package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"
	"time"

	"pathdb"
	"pathdb/internal/shard"
)

// openStream POSTs req to url negotiating NDJSON and returns the live
// response (caller closes Body).
func openStream(t *testing.T, url string, req QueryRequest) *http.Response {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	hreq, err := http.NewRequest(http.MethodPost, url+"/v1/query", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	hreq.Header.Set("Content-Type", "application/json")
	hreq.Header.Set("Accept", "application/x-ndjson")
	resp, err := http.DefaultClient.Do(hreq)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// readStream drains an NDJSON response into node lines plus the trailing
// summary, which must be present and last.
func readStream(t *testing.T, body io.Reader) ([]NodeJSON, StreamSummaryJSON) {
	t.Helper()
	sc := bufio.NewScanner(body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	var nodes []NodeJSON
	var sum StreamSummaryJSON
	sawSum := false
	for sc.Scan() {
		if sawSum {
			t.Fatalf("line after the summary record: %s", sc.Bytes())
		}
		var probe struct {
			Summary bool `json:"summary"`
		}
		if err := json.Unmarshal(sc.Bytes(), &probe); err != nil {
			t.Fatalf("bad NDJSON line: %v\n%s", err, sc.Bytes())
		}
		if probe.Summary {
			if err := json.Unmarshal(sc.Bytes(), &sum); err != nil {
				t.Fatal(err)
			}
			sawSum = true
			continue
		}
		var n NodeJSON
		if err := json.Unmarshal(sc.Bytes(), &n); err != nil {
			t.Fatal(err)
		}
		nodes = append(nodes, n)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if !sawSum {
		t.Fatalf("stream ended without a summary line (%d nodes)", len(nodes))
	}
	return nodes, sum
}

// drainShutdown tears down a hand-built server and asserts the goroutine
// count settles back to the pre-construction baseline.
func drainShutdown(t *testing.T, ts *httptest.Server, shut func(context.Context) error, baseline int) {
	t.Helper()
	ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := shut(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if g := runtime.NumGoroutine(); g > baseline {
		buf := make([]byte, 1<<20)
		t.Fatalf("goroutines leaked: %d > baseline %d\n%s",
			g, baseline, buf[:runtime.Stack(buf, true)])
	}
}

// The streamed node sequence must be identical — same IDs, same order —
// to the buffered /v1/query response for the same sorted query.
func TestStreamQueryMatchesBuffered(t *testing.T) {
	db := newTestDB(t, 0.1)
	_, ts := newTestServer(t, db, pathdb.EngineConfig{}, Options{MaxNodes: 1 << 20})

	// Buffered mode echoes min(limit, MaxNodes) nodes; ask for everything.
	resp, data := postQuery(t, ts.URL, QueryRequest{Path: itemQuery, Sorted: true, Limit: 1 << 20})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("buffered status %d: %s", resp.StatusCode, data)
	}
	want := decodeResponse(t, data)
	if len(want.Nodes) == 0 || len(want.Nodes) != want.Count {
		t.Fatalf("buffered fixture unusable: %d nodes of count %d", len(want.Nodes), want.Count)
	}

	sresp := openStream(t, ts.URL, QueryRequest{Path: itemQuery, Sorted: true})
	defer sresp.Body.Close()
	if sresp.StatusCode != http.StatusOK {
		t.Fatalf("stream status %d", sresp.StatusCode)
	}
	if ct := sresp.Header.Get("Content-Type"); ct != ndjsonType {
		t.Fatalf("Content-Type %q, want %q", ct, ndjsonType)
	}
	nodes, sum := readStream(t, sresp.Body)
	if len(nodes) != len(want.Nodes) {
		t.Fatalf("streamed %d nodes, buffered %d", len(nodes), len(want.Nodes))
	}
	for i := range nodes {
		if nodes[i].ID != want.Nodes[i].ID || nodes[i].Ord != want.Nodes[i].Ord {
			t.Fatalf("node %d differs: streamed %+v, buffered %+v", i, nodes[i], want.Nodes[i])
		}
	}
	if sum.Count != want.Count {
		t.Fatalf("summary count %d, buffered %d", sum.Count, want.Count)
	}
	if sum.Error != "" || sum.Kind != "" {
		t.Fatalf("clean stream carries error %q/%q", sum.Error, sum.Kind)
	}
	if sum.Strategy == "" || sum.Strategy == "auto" {
		t.Fatalf("summary strategy %q unresolved", sum.Strategy)
	}
}

// checkStreamLimits streams itemQuery under limits below, at and above its
// match count: exactly min(limit, count) node lines, and truncated flagged
// only when the limit cut a node off.
func checkStreamLimits(t *testing.T, url string, count int) {
	t.Helper()
	for _, limit := range []int{5, count - 1, count, count + 1} {
		resp := openStream(t, url, QueryRequest{Path: itemQuery, Sorted: true, Limit: limit})
		nodes, sum := readStream(t, resp.Body)
		resp.Body.Close()
		want := min(limit, count)
		if len(nodes) != want || sum.Count != want || sum.Truncated != (limit < count) {
			t.Fatalf("limit %d of %d matches: %d nodes, count %d, truncated %v; want %d/%d/%v",
				limit, count, len(nodes), sum.Count, sum.Truncated, want, want, limit < count)
		}
	}
}

// The request's limit truncates production in stream mode: exactly N node
// lines, count N, truncated flagged only when a node was cut off.
func TestStreamQueryLimit(t *testing.T) {
	db := newTestDB(t, 0.1)
	_, ts := newTestServer(t, db, pathdb.EngineConfig{}, Options{})
	q, err := db.Query(itemQuery)
	if err != nil {
		t.Fatal(err)
	}
	checkStreamLimits(t, ts.URL, q.Count())
}

// A storage fault mid-stream is reported in-band: HTTP 200 (the status
// line is long gone), node lines stop, and the trailing summary carries
// the typed kind; the server's io-error counter moves.
func TestStreamQueryFaultInBand(t *testing.T) {
	db := newTestDB(t, 0.1)
	srv, ts := newTestServer(t, db, pathdb.EngineConfig{}, Options{})
	db.SetFaults(pathdb.FaultConfig{Seed: 3, ReadError: 1})
	defer db.SetFaults(pathdb.FaultConfig{})

	resp := openStream(t, ts.URL, QueryRequest{Path: itemQuery, Strategy: "xschedule"})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream status %d, want 200 with in-band failure", resp.StatusCode)
	}
	_, sum := readStream(t, resp.Body)
	if sum.Error == "" || (sum.Kind != "io" && sum.Kind != "corrupt") {
		t.Fatalf("summary error %q kind %q, want in-band io/corrupt", sum.Error, sum.Kind)
	}
	if srv.ioErrors.Load() == 0 {
		t.Fatal("in-band fault did not move the io error counter")
	}
}

// A client that disconnects mid-stream cancels the query server-side: the
// handler stops pulling the cursor, the disconnect is counted, and no
// goroutine outlives the teardown (run with -race).
func TestStreamClientDisconnect(t *testing.T) {
	baseline := runtime.NumGoroutine()

	db := newTestDB(t, 0.5)
	eng := db.NewEngine(pathdb.EngineConfig{MaxInFlight: 2})
	db.ResetStats()
	srv := New(db, eng, Options{})
	ts := httptest.NewServer(srv)

	// Unsorted streams are live, but a warm-cache result can land entirely
	// in socket buffers before the hang-up is visible server-side, in which
	// case the handler legitimately finishes without a failed write. As in
	// the router-mode test below, an attempt that loses that race is
	// retried: keep hanging up after k lines until three disconnects were
	// provably noticed mid-stream.
	deadline := time.Now().Add(15 * time.Second)
	for k := 0; srv.gone.Load() < 3 && time.Now().Before(deadline); k = (k + 1) % 3 {
		resp := openStream(t, ts.URL, QueryRequest{Path: descQuery})
		sc := bufio.NewScanner(resp.Body)
		for i := 0; i <= k && sc.Scan(); i++ {
		}
		resp.Body.Close() // hang up mid-stream
		time.Sleep(2 * time.Millisecond)
	}
	if g := srv.gone.Load(); g < 3 {
		t.Fatalf("client_gone = %d after repeated mid-stream disconnects", g)
	}

	drainShutdown(t, ts, srv.Shutdown, baseline)
}

// The API is mounted under /v1/ only: the unversioned paths of earlier
// revisions answer 404, on the single-volume server and the router alike.
func TestUnversionedPathsGone(t *testing.T) {
	db := newTestDB(t, 0.1)
	_, ts := newTestServer(t, db, pathdb.EngineConfig{}, Options{})
	_, rts := newTestRouter(t, shard.Config{Shards: 2}, 64, shard.QuotaConfig{})

	for _, base := range []string{ts.URL, rts.URL} {
		for _, name := range []string{"query", "update", "metrics", "healthz"} {
			resp, err := http.Get(base + "/" + name)
			if err != nil {
				t.Fatal(err)
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusNotFound {
				t.Fatalf("GET /%s: status %d, want 404", name, resp.StatusCode)
			}
		}
		resp, err := http.Get(base + "/v1/healthz")
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET /v1/healthz: status %d, want 200", resp.StatusCode)
		}
	}
}

// Router mode: the streamed NDJSON sequence must match the buffered
// router response node for node — same global document order, same shard
// attribution — with the cluster summary in the trailing record; limits
// at and around the match count flag truncation exactly as on one volume.
func TestRouterStreamMatchesBuffered(t *testing.T) {
	_, ts := newTestRouter(t, shard.Config{}, 256, shard.QuotaConfig{})

	resp, data := postRouterQuery(t, ts.URL,
		QueryRequest{Path: itemQuery, Sorted: true, Limit: 1000}, "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("buffered status %d: %s", resp.StatusCode, data)
	}
	want := decodeRouterResponse(t, data)
	if len(want.Nodes) == 0 || len(want.Nodes) != want.Count {
		t.Fatalf("buffered fixture unusable: %d nodes of count %d", len(want.Nodes), want.Count)
	}

	sresp := openStream(t, ts.URL, QueryRequest{Path: itemQuery, Sorted: true})
	defer sresp.Body.Close()
	if sresp.StatusCode != http.StatusOK {
		t.Fatalf("stream status %d", sresp.StatusCode)
	}
	nodes, sum := readStream(t, sresp.Body)
	if len(nodes) != len(want.Nodes) {
		t.Fatalf("streamed %d nodes, buffered %d", len(nodes), len(want.Nodes))
	}
	for i := range nodes {
		if nodes[i].ID != want.Nodes[i].ID || nodes[i].Ord != want.Nodes[i].Ord ||
			nodes[i].Shard != want.Nodes[i].Shard {
			t.Fatalf("node %d differs: streamed %+v, buffered %+v", i, nodes[i], want.Nodes[i])
		}
	}
	if sum.Count != want.Count {
		t.Fatalf("summary count %d, buffered %d", sum.Count, want.Count)
	}
	if sum.Partial || len(sum.Degraded) != 0 {
		t.Fatalf("healthy cluster streamed partial/degraded: %+v", sum)
	}
	checkStreamLimits(t, ts.URL, want.Count)
}

// Router mode disconnect: hanging up mid-merge closes every shard cursor
// (the scatter is cancelled) and leaves no goroutines behind.
func TestRouterStreamClientDisconnect(t *testing.T) {
	baseline := runtime.NumGoroutine()

	cl, err := shard.NewXMark(
		pathdb.XMarkConfig{ScaleFactor: 0.25, Seed: 42, EntityScale: 0.1},
		pathdb.Options{Layout: pathdb.Shuffled, LayoutSeed: 42, BufferPages: 64},
		shard.Config{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	rt := NewRouter(cl, Options{}, shard.QuotaConfig{})
	ts := httptest.NewServer(rt)

	// The merge's per-shard sort barrier means the whole scatter runs
	// before the first byte, so a disconnect is only provably mid-query
	// when it lands during that execution window: cancel the request
	// context while Do is still waiting on headers. An attempt that loses
	// the race (the scatter finished first) is retried.
	body, _ := json.Marshal(QueryRequest{Path: descQuery})
	deadline := time.Now().Add(15 * time.Second)
	for rt.gone.Load() < 3 && time.Now().Before(deadline) {
		ctx, cancel := context.WithCancel(context.Background())
		hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/query", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		hreq.Header.Set("Content-Type", "application/json")
		hreq.Header.Set("Accept", "application/x-ndjson")
		done := make(chan struct{})
		go func() {
			defer close(done)
			resp, err := http.DefaultClient.Do(hreq)
			if err != nil {
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}()
		time.Sleep(3 * time.Millisecond) // let the request reach the handler
		cancel()
		<-done
	}
	if g := rt.gone.Load(); g < 3 {
		t.Fatalf("router client_gone = %d after repeated mid-scatter disconnects", g)
	}

	drainShutdown(t, ts, rt.Shutdown, baseline)
}
