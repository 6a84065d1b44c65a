package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"pathdb"
)

func postUpdate(t *testing.T, url string, req UpdateRequest) (*http.Response, []byte) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/update", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}

func fetchMetrics(t *testing.T, url string) map[string]float64 {
	t.Helper()
	resp, err := http.Get(url + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return parsePromText(t, buf.String())
}

func decodeUpdate(t *testing.T, data []byte) UpdateResponse {
	t.Helper()
	var ur UpdateResponse
	if err := json.Unmarshal(data, &ur); err != nil {
		t.Fatalf("update response not valid JSON: %v\n%s", err, data)
	}
	return ur
}

// TestUpdateEndpoint drives the full insert → query → delete → query loop
// over HTTP and checks the transaction counters surface on /metrics.
func TestUpdateEndpoint(t *testing.T) {
	db := newTestDB(t, 0.1)
	_, ts := newTestServer(t, db, pathdb.EngineConfig{}, Options{})

	resp, data := postUpdate(t, ts.URL, UpdateRequest{
		Op:     "insert",
		Parent: "/site",
		XML:    `<annotation><note>added over http</note></annotation>`,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("insert: status %d: %s", resp.StatusCode, data)
	}
	ur := decodeUpdate(t, data)
	if ur.Op != "insert" || ur.Inserted == nil || ur.Inserted.Name != "annotation" {
		t.Fatalf("insert response: %+v", ur)
	}
	if ur.Epoch == 0 {
		t.Fatalf("insert did not advance the epoch: %+v", ur)
	}

	// The committed fragment is visible to queries.
	qresp, qdata := postQuery(t, ts.URL, QueryRequest{Path: "/site/annotation/note"})
	if qresp.StatusCode != http.StatusOK {
		t.Fatalf("query after insert: status %d: %s", qresp.StatusCode, qdata)
	}
	if qr := decodeResponse(t, qdata); qr.Count != 1 {
		t.Fatalf("query after insert: count %d, want 1", qr.Count)
	}

	// Delete removes every match and reports the count.
	resp, data = postUpdate(t, ts.URL, UpdateRequest{Op: "delete", Path: "/site/annotation"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("delete: status %d: %s", resp.StatusCode, data)
	}
	if ur = decodeUpdate(t, data); ur.Deleted != 1 {
		t.Fatalf("delete response: %+v", ur)
	}
	_, qdata = postQuery(t, ts.URL, QueryRequest{Path: "/site/annotation"})
	if qr := decodeResponse(t, qdata); qr.Count != 0 {
		t.Fatalf("query after delete: count %d, want 0", qr.Count)
	}

	// Deleting a path with no matches commits nothing and still answers.
	resp, data = postUpdate(t, ts.URL, UpdateRequest{Op: "delete", Path: "/site/annotation"})
	if resp.StatusCode != http.StatusOK || decodeUpdate(t, data).Deleted != 0 {
		t.Fatalf("empty delete: status %d: %s", resp.StatusCode, data)
	}

	// The transaction counters surface on /metrics.
	m := fetchMetrics(t, ts.URL)
	if m["pathdb_txn_commits_total"] < 2 {
		t.Fatalf("txn commits on /metrics: %v", m["pathdb_txn_commits_total"])
	}
	if m["pathdb_server_updated_total"] != 3 {
		t.Fatalf("server updated_total: %v, want 3", m["pathdb_server_updated_total"])
	}
	if m["pathdb_engine_updates_total"] < 2 {
		t.Fatalf("engine updates_total: %v", m["pathdb_engine_updates_total"])
	}
}

// TestUpdateValidation exercises the 400 paths: malformed bodies, unknown
// ops, missing fields, bad fragments and ambiguous insert targets.
func TestUpdateValidation(t *testing.T) {
	db := newTestDB(t, 0.1)
	_, ts := newTestServer(t, db, pathdb.EngineConfig{}, Options{})

	cases := []struct {
		name string
		req  UpdateRequest
	}{
		{"unknown op", UpdateRequest{Op: "rename", Path: "/site"}},
		{"insert missing xml", UpdateRequest{Op: "insert", Parent: "/site"}},
		{"insert missing parent", UpdateRequest{Op: "insert", XML: "<x/>"}},
		{"delete missing path", UpdateRequest{Op: "delete"}},
		{"malformed fragment", UpdateRequest{Op: "insert", Parent: "/site", XML: "<broken"}},
		{"two fragment roots", UpdateRequest{Op: "insert", Parent: "/site", XML: "<x/><y/>"}},
		{"ambiguous parent", UpdateRequest{Op: "insert", Parent: "/site/regions//item", XML: "<x/>"}},
		{"negative timeout", UpdateRequest{Op: "delete", Path: "/site", TimeoutMS: -1}},
	}
	for _, c := range cases {
		resp, data := postUpdate(t, ts.URL, c.req)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400: %s", c.name, resp.StatusCode, data)
		}
	}

	resp, _ := http.Get(ts.URL + "/v1/update")
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /update: status %d, want 405", resp.StatusCode)
	}
	resp.Body.Close()

	m := fetchMetrics(t, ts.URL)
	if m["pathdb_server_update_errors_total"] != float64(len(cases)) {
		t.Fatalf("update_errors_total: %v, want %d", m["pathdb_server_update_errors_total"], len(cases))
	}
}

// TestUpdateConcurrentWithQueries hammers the server with parallel readers
// and writers: every response must be coherent (200s only), inserts must
// accumulate exactly, and group commit should keep the WAL flush rate at or
// below one flush per commit.
func TestUpdateConcurrentWithQueries(t *testing.T) {
	db := newTestDB(t, 0.1)
	_, ts := newTestServer(t, db, pathdb.EngineConfig{MaxInFlight: 8}, Options{})

	const writers, perWriter, readers = 2, 10, 4
	var wg sync.WaitGroup
	errs := make(chan error, writers*perWriter+readers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				resp, data := postUpdate(t, ts.URL, UpdateRequest{
					Op:     "insert",
					Parent: "/site",
					XML:    fmt.Sprintf("<probe w='%d' i='%d'/>", w, i),
				})
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("writer %d insert %d: status %d: %s", w, i, resp.StatusCode, data)
					return
				}
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				resp, data := postQuery(t, ts.URL, QueryRequest{Path: "/site/probe"})
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("reader: status %d: %s", resp.StatusCode, data)
					return
				}
				if qr := decodeResponse(t, data); qr.Count > writers*perWriter {
					errs <- fmt.Errorf("reader saw %d probes, max possible %d", qr.Count, writers*perWriter)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	_, data := postQuery(t, ts.URL, QueryRequest{Path: "/site/probe"})
	if qr := decodeResponse(t, data); qr.Count != writers*perWriter {
		t.Fatalf("final probe count %d, want %d", qr.Count, writers*perWriter)
	}
	m := fetchMetrics(t, ts.URL)
	if c, f := m["pathdb_txn_commits_total"], m["pathdb_txn_wal_flushes_total"]; c == 0 || f > c {
		t.Fatalf("group commit regressed: %v flushes for %v commits", f, c)
	}
}

// TestQueryChoiceExposed checks the auto-strategy decision rides along in
// the /query response.
func TestQueryChoiceExposed(t *testing.T) {
	db := newTestDB(t, 0.1)
	_, ts := newTestServer(t, db, pathdb.EngineConfig{}, Options{})

	resp, data := postQuery(t, ts.URL, QueryRequest{Path: descQuery})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query: status %d: %s", resp.StatusCode, data)
	}
	qr := decodeResponse(t, data)
	if qr.Choice == nil {
		t.Fatalf("auto query response carries no choice: %s", data)
	}
	if qr.Choice.ChosenStrategy != qr.Strategy {
		t.Fatalf("choice strategy %q != resolved strategy %q", qr.Choice.ChosenStrategy, qr.Strategy)
	}
	if qr.Choice.Coverage <= 0 || qr.Choice.ScheduleCostNs <= 0 || qr.Choice.ScanCostNs <= 0 {
		t.Fatalf("degenerate choice estimates: %+v", qr.Choice)
	}
	// The fixture flushes its pool: the decision was made for a cold run.
	if !bytes.Contains(data, []byte(`"residency"`)) || qr.Choice.Residency != 0 || qr.Choice.ChosenStrategy != "xscan" {
		t.Fatalf("flushed pool: %s", data)
	}

	// A forced strategy bypasses the model: no choice in the response.
	resp, data = postQuery(t, ts.URL, QueryRequest{Path: descQuery, Strategy: "xscan"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("forced query: status %d: %s", resp.StatusCode, data)
	}
	if qr = decodeResponse(t, data); qr.Choice != nil {
		t.Fatalf("forced-strategy response carries a choice: %s", data)
	}

	// A volume that fits its pool stays resident once a scan has read it,
	// and the decision says so: nothing is left to reorder, so the plain
	// plan runs.
	warm, err := pathdb.GenerateXMark(pathdb.XMarkConfig{ScaleFactor: 0.1, Seed: 42, EntityScale: 0.1}, pathdb.Options{})
	if err != nil {
		t.Fatal(err)
	}
	eng := warm.NewEngine(pathdb.EngineConfig{})
	defer eng.Close()
	wts := httptest.NewServer(New(warm, eng, Options{}))
	defer wts.Close()
	if resp, data := postQuery(t, wts.URL, QueryRequest{Path: "//*", Strategy: "xscan"}); resp.StatusCode != http.StatusOK {
		t.Fatalf("warming scan: status %d: %s", resp.StatusCode, data)
	}
	_, data = postQuery(t, wts.URL, QueryRequest{Path: descQuery})
	if qr = decodeResponse(t, data); qr.Choice == nil || qr.Choice.Residency != 1 || qr.Strategy != "simple" {
		t.Fatalf("resident volume: %s", data)
	}

	// pred_eval is the evaluator the path runs with: a branching path
	// joins from its first read on, a path without predicates says nested.
	for i := 0; i < 3; i++ {
		_, data = postQuery(t, wts.URL, QueryRequest{Path: "/site//item[mailbox/mail//keyword]"})
		if qr = decodeResponse(t, data); qr.Choice == nil || qr.Choice.PredEval != "join" {
			t.Fatalf("branching query, read %d: %s", i, data)
		}
	}
	if _, data = postQuery(t, wts.URL, QueryRequest{Path: descQuery}); decodeResponse(t, data).Choice.PredEval != "nested" {
		t.Fatalf("predicate-free query: %s", data)
	}
}

// TestDerivedMetrics moves every pathdb_derived_* counter of /v1/metrics:
// a join of /r/g[t0] reads its /r/g prefix from levels and builds the r, g
// and t0 levels, the prefix's candidate set and the predicate's filter set
// (five misses), then reuses both sets (two hits); a commit adding a match
// is followed by an advance of the three levels over the page it wrote,
// which moves two of them, so both sets are merged again (two misses, and
// hits on the three levels); and a generation that 130 templates fill
// (those that find no room left probe instead) is dropped at the next
// commit.
func TestDerivedMetrics(t *testing.T) {
	var doc strings.Builder
	doc.WriteString("<r>")
	for k := 0; k < 130; k++ {
		fmt.Fprintf(&doc, "<g><t%d>x</t%d></g>", k, k)
	}
	doc.WriteString("</r>")
	db, err := pathdb.LoadXMLString(doc.String(), pathdb.Options{})
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, db, pathdb.EngineConfig{}, Options{})
	join := func(k int) {
		if resp, data := postQuery(t, ts.URL, QueryRequest{Path: fmt.Sprintf("/r/g[t%d]", k)}); resp.StatusCode != http.StatusOK {
			t.Fatalf("query: status %d: %s", resp.StatusCode, data)
		}
	}
	commit := func() {
		if resp, data := postUpdate(t, ts.URL, UpdateRequest{Op: "insert", Parent: "/r", XML: "<g><t0>y</t0></g>"}); resp.StatusCode != http.StatusOK {
			t.Fatalf("insert: status %d: %s", resp.StatusCode, data)
		}
	}
	join(0)
	join(0)
	commit()
	join(0)
	m := fetchMetrics(t, ts.URL)
	for name, want := range map[string]float64{"hits": 5, "misses": 7, "level_builds": 3, "level_advances": 3, "pages_advanced": 1, "generations_dropped": 0} {
		if got := m["pathdb_derived_"+name+"_total"]; got != want {
			t.Errorf("pathdb_derived_%s_total = %v, want %v", name, got, want)
		}
	}
	for k := 1; k < 130; k++ {
		join(k)
	}
	commit()
	join(0)
	if m = fetchMetrics(t, ts.URL); m["pathdb_derived_generations_dropped_total"] != 1 || m["pathdb_derived_level_builds_total"] < 100 {
		t.Fatalf("after filling the generation and a commit: %v dropped, %v builds",
			m["pathdb_derived_generations_dropped_total"], m["pathdb_derived_level_builds_total"])
	}
}
