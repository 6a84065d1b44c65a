package server

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"

	"pathdb"
)

func decodeError(t *testing.T, data []byte) ErrorResponse {
	t.Helper()
	var er ErrorResponse
	if err := json.Unmarshal(data, &er); err != nil {
		t.Fatalf("error body not valid JSON: %v\n%s", err, data)
	}
	return er
}

// TestQueryFaultMapsTo500 drives the fault plane through the HTTP layer:
// a query that exhausts the storage retry budget must answer 500 with a
// structured body whose kind round-trips the pathdb taxonomy, and the
// fault counters must surface on /metrics.
func TestQueryFaultMapsTo500(t *testing.T) {
	db := newTestDB(t, 0.1)
	_, ts := newTestServer(t, db, pathdb.EngineConfig{}, Options{})

	db.SetFaults(pathdb.FaultConfig{Seed: 4, ReadError: 1})
	resp, data := postQuery(t, ts.URL, QueryRequest{Path: itemQuery, Strategy: "xschedule"})
	db.SetFaults(pathdb.FaultConfig{})
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500: %s", resp.StatusCode, data)
	}
	er := decodeError(t, data)
	if pathdb.ParseErrorKind(er.Kind) != pathdb.KindIO {
		t.Fatalf("error kind %q does not round-trip to KindIO: %+v", er.Kind, er)
	}
	if er.Error == "" {
		t.Fatal("error body missing message")
	}

	// The same query succeeds once the plane is disarmed.
	resp, data = postQuery(t, ts.URL, QueryRequest{Path: itemQuery})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-disarm status %d: %s", resp.StatusCode, data)
	}

	mresp, err := http.Get(ts.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	body := string(raw)
	for _, want := range []string{
		"pathdb_engine_faulted_total 1",
		"pathdb_server_io_errors_total 1",
		"pathdb_ledger_read_faults_total",
		"pathdb_ledger_read_retries_total",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}
