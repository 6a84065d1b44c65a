package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"pathdb"
)

// Queries of the XMark test document. itemQuery is cheap; descQuery is the
// heavy descendant scan the timeout and drain tests lean on.
const (
	itemQuery = "/site/regions//item"
	descQuery = "/site//description"
)

// newTestDB builds a fresh shuffled XMark volume with a deliberately small
// buffer pool, so queries keep doing device I/O (and therefore keep
// prefetching) no matter how often the tests run them.
func newTestDB(t *testing.T, sf float64) *pathdb.DB {
	t.Helper()
	db, err := pathdb.GenerateXMark(
		pathdb.XMarkConfig{ScaleFactor: sf, Seed: 42, EntityScale: 0.1},
		pathdb.Options{Layout: pathdb.Shuffled, LayoutSeed: 42, BufferPages: 64})
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// newTestServer wires a DB, an engine and a Server behind httptest.
func newTestServer(t *testing.T, db *pathdb.DB, cfg pathdb.EngineConfig, opts Options) (*Server, *httptest.Server) {
	t.Helper()
	eng := db.NewEngine(cfg)
	db.ResetStats()
	srv := New(db, eng, opts)
	ts := httptest.NewServer(srv)
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
	})
	return srv, ts
}

func postQuery(t *testing.T, url string, req QueryRequest) (*http.Response, []byte) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/query", "application/json", bytes.NewReader(body))
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

func decodeResponse(t *testing.T, data []byte) QueryResponse {
	t.Helper()
	var qr QueryResponse
	if err := json.Unmarshal(data, &qr); err != nil {
		t.Fatalf("response not valid JSON: %v\n%s", err, data)
	}
	return qr
}

func TestQueryEndpoint(t *testing.T) {
	db := newTestDB(t, 0.1)
	_, ts := newTestServer(t, db, pathdb.EngineConfig{}, Options{})

	q, err := db.Query(itemQuery)
	if err != nil {
		t.Fatal(err)
	}
	want := q.Count()

	resp, data := postQuery(t, ts.URL, QueryRequest{Path: itemQuery, Limit: 5, Sorted: true})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	qr := decodeResponse(t, data)
	if qr.Count != want {
		t.Fatalf("count = %d, want %d", qr.Count, want)
	}
	if len(qr.Nodes) != 5 || !qr.Truncated {
		t.Fatalf("nodes = %d truncated = %v, want 5 true", len(qr.Nodes), qr.Truncated)
	}
	for _, n := range qr.Nodes {
		if n.Name != "item" || n.Ord == "" {
			t.Fatalf("bad node %+v", n)
		}
	}
	if qr.Strategy == "" || qr.CostVNs <= 0 {
		t.Fatalf("missing cost/strategy: %+v", qr)
	}

	// Forced strategy is echoed back.
	resp, data = postQuery(t, ts.URL, QueryRequest{Path: itemQuery, Strategy: "xscan"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	if qr := decodeResponse(t, data); qr.Strategy != "xscan" || qr.Count != want || qr.Nodes != nil {
		t.Fatalf("forced strategy response: %+v", qr)
	}

	// Union queries work over the wire.
	resp, data = postQuery(t, ts.URL, QueryRequest{Path: itemQuery + " | " + descQuery})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("union status %d: %s", resp.StatusCode, data)
	}
}

func TestQueryValidation(t *testing.T) {
	db := newTestDB(t, 0.1)
	_, ts := newTestServer(t, db, pathdb.EngineConfig{}, Options{})

	for name, tc := range map[string]QueryRequest{
		"empty path":       {},
		"relative path":    {Path: "regions/item"},
		"bad syntax":       {Path: "/site//"},
		"bad strategy":     {Path: itemQuery, Strategy: "quantum"},
		"negative limit":   {Path: itemQuery, Limit: -1},
		"negative timeout": {Path: itemQuery, TimeoutMS: -1},
	} {
		resp, data := postQuery(t, ts.URL, tc)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (%s)", name, resp.StatusCode, data)
		}
		var er ErrorResponse
		if err := json.Unmarshal(data, &er); err != nil || er.Error == "" {
			t.Errorf("%s: error body %q", name, data)
		}
	}

	// Unknown fields are rejected (catches client typos like "patj").
	resp, err := http.Post(ts.URL+"/v1/query", "application/json",
		strings.NewReader(`{"patj": "/site"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown field: status %d, want 400", resp.StatusCode)
	}

	// GET on /query is a 405.
	resp, err = http.Get(ts.URL + "/v1/query")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /query: status %d, want 405", resp.StatusCode)
	}
}

// TestQueryTimeout checks deadline propagation end to end: a 1ms budget on
// a query that needs tens of milliseconds maps to 504, the engine counts
// the cancellation, and the cancelled query's in-flight prefetches are
// withdrawn from the device (async_withdrawn accounting).
func TestQueryTimeout(t *testing.T) {
	db := newTestDB(t, 0.5)
	srv, ts := newTestServer(t, db, pathdb.EngineConfig{}, Options{})

	// A budget that expires while the query still waits in the queue makes
	// the dispatcher drop it unrun, with nothing prefetched to withdraw, so
	// requests go on until a timed-out one has withdrawn prefetches. After
	// each 504 an unbudgeted query, which the dispatcher runs only once the
	// timed-out one has stopped, settles its withdrawals.
	timeouts := 0
	for i := 0; i < 50 && (timeouts == 0 || srv.eng.CostLedger().AsyncWithdrawn == 0); i++ {
		// Force XSchedule so the query prefetches asynchronously — the
		// withdrawal accounting below is about exactly those requests.
		resp, data := postQuery(t, ts.URL, QueryRequest{Path: descQuery, TimeoutMS: 1, Strategy: "xschedule"})
		switch resp.StatusCode {
		case http.StatusGatewayTimeout:
			timeouts++
			var er ErrorResponse
			if err := json.Unmarshal(data, &er); err != nil || er.Error == "" {
				t.Fatalf("504 body %q", data)
			}
			if resp, data := postQuery(t, ts.URL, QueryRequest{Path: "/site"}); resp.StatusCode != http.StatusOK {
				t.Fatalf("settling query: status %d: %s", resp.StatusCode, data)
			}
		case http.StatusOK:
			// The machine raced the budget; try again.
		default:
			t.Fatalf("status %d: %s", resp.StatusCode, data)
		}
	}
	if timeouts == 0 {
		t.Fatal("no request timed out despite a 1ms budget on a heavy query")
	}

	m := srv.eng.Metrics()
	if m.Cancelled == 0 {
		t.Fatalf("engine cancelled = 0 after timeouts (metrics %+v)", m)
	}
	if w := srv.eng.CostLedger().AsyncWithdrawn; w == 0 {
		t.Fatalf("async_withdrawn = 0 after %d timeouts: cancelled queries' prefetches were not withdrawn", timeouts)
	}
	if srv.timeouts.Load() == 0 {
		t.Fatal("server timeout counter not incremented")
	}
}

// TestLoadShedding saturates a deliberately tiny engine: admission
// rejections must surface as 503 + Retry-After, not as queueing.
func TestLoadShedding(t *testing.T) {
	db := newTestDB(t, 0.25)
	srv, ts := newTestServer(t, db,
		pathdb.EngineConfig{MaxInFlight: 1, QueueDepth: 1}, Options{RetryAfter: 7})

	const n = 16
	var wg sync.WaitGroup
	var mu sync.Mutex
	statuses := make(map[int]int)
	retryAfterOK := true
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, data := postQuery(t, ts.URL, QueryRequest{Path: descQuery})
			mu.Lock()
			defer mu.Unlock()
			statuses[resp.StatusCode]++
			if resp.StatusCode == http.StatusServiceUnavailable {
				if resp.Header.Get("Retry-After") != "7" {
					retryAfterOK = false
				}
				var er ErrorResponse
				if json.Unmarshal(data, &er) != nil || er.Error == "" {
					retryAfterOK = false
				}
			}
		}()
	}
	wg.Wait()

	if statuses[http.StatusOK] == 0 || statuses[http.StatusServiceUnavailable] == 0 {
		t.Fatalf("want both 200s and 503s under saturation, got %v", statuses)
	}
	if statuses[http.StatusOK]+statuses[http.StatusServiceUnavailable] != n {
		t.Fatalf("unexpected statuses: %v", statuses)
	}
	if !retryAfterOK {
		t.Fatal("503 responses missing Retry-After: 7 or an error body")
	}
	if m := srv.eng.Metrics(); m.Rejected == 0 {
		t.Fatalf("engine rejected = 0 under saturation (metrics %+v)", m)
	}
	if srv.shed.Load() == 0 {
		t.Fatal("server shed counter not incremented")
	}

	// Park the engine: an unread stream holds the dispatcher (its first
	// block waits for a consumer) and a second fills the one-slot queue.
	// An update's target lookup must then shed like a query, not wait.
	// The running stream is closed first: closing the queued one waits for
	// the dispatcher.
	var parked []*pathdb.Cursor
	defer func() {
		for _, cur := range parked {
			cur.Close()
		}
	}()
	for i := 0; i < 2; i++ {
		cur, err := srv.ses.Stream(context.Background(), descQuery, pathdb.QueryOptions{})
		if err != nil {
			t.Fatal(err)
		}
		parked = append(parked, cur)
	}
	shedBefore := fetchMetrics(t, ts.URL)["pathdb_server_shed_total"]
	resp, data := postUpdate(t, ts.URL, UpdateRequest{Op: "delete", Path: "/site/nothing_here", TimeoutMS: 2000})
	if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") != "7" {
		t.Fatalf("update against a full queue: status %d Retry-After %q (%s), want 503 and 7",
			resp.StatusCode, resp.Header.Get("Retry-After"), data)
	}
	if er := decodeError(t, data); er.Kind != pathdb.KindOverloaded.String() {
		t.Fatalf("shed update kind %q, want %q", er.Kind, pathdb.KindOverloaded)
	}
	if got := fetchMetrics(t, ts.URL)["pathdb_server_shed_total"]; got != shedBefore+1 {
		t.Fatalf("pathdb_server_shed_total %v after a shed update, want %v", got, shedBefore+1)
	}
}

// promLine matches one Prometheus text-format sample: a metric name
// followed by a float value.
var promLine = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*) (\S+)$`)

// parsePromText validates Prometheus text exposition: every sample line
// parses, every sample is preceded by matching HELP and TYPE comments, and
// the values are floats. Returns the samples by name.
func parsePromText(t *testing.T, text string) map[string]float64 {
	t.Helper()
	samples := make(map[string]float64)
	helped := make(map[string]bool)
	typed := make(map[string]bool)
	for ln, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		if strings.HasPrefix(line, "# HELP ") {
			parts := strings.SplitN(line[len("# HELP "):], " ", 2)
			if len(parts) != 2 || parts[1] == "" {
				t.Fatalf("line %d: malformed HELP: %q", ln+1, line)
			}
			helped[parts[0]] = true
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			parts := strings.SplitN(line[len("# TYPE "):], " ", 2)
			if len(parts) != 2 || (parts[1] != "counter" && parts[1] != "gauge") {
				t.Fatalf("line %d: malformed TYPE: %q", ln+1, line)
			}
			typed[parts[0]] = true
			continue
		}
		m := promLine.FindStringSubmatch(line)
		if m == nil {
			t.Fatalf("line %d: not a valid sample: %q", ln+1, line)
		}
		v, err := strconv.ParseFloat(m[2], 64)
		if err != nil {
			t.Fatalf("line %d: value %q not a float: %v", ln+1, m[2], err)
		}
		if !helped[m[1]] || !typed[m[1]] {
			t.Fatalf("line %d: sample %q lacks HELP/TYPE", ln+1, m[1])
		}
		if _, dup := samples[m[1]]; dup {
			t.Fatalf("line %d: duplicate series %q", ln+1, m[1])
		}
		samples[m[1]] = v
	}
	return samples
}

func TestMetricsEndpoint(t *testing.T) {
	db := newTestDB(t, 0.1)
	_, ts := newTestServer(t, db, pathdb.EngineConfig{}, Options{})

	for i := 0; i < 3; i++ {
		postQuery(t, ts.URL, QueryRequest{Path: itemQuery})
	}
	resp, err := http.Get(ts.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type %q", ct)
	}
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	samples := parsePromText(t, buf.String())

	for _, name := range []string{
		"pathdb_engine_submitted_total",
		"pathdb_engine_rejected_total",
		"pathdb_engine_batched_total",
		"pathdb_ledger_now_virtual_seconds_total",
		"pathdb_ledger_page_reads_total",
		"pathdb_ledger_async_withdrawn_total",
		"pathdb_server_requests_total",
		"pathdb_server_inflight",
		"pathdb_server_draining",
		"pathdb_volume_pages",
	} {
		if _, ok := samples[name]; !ok {
			t.Errorf("missing series %q", name)
		}
	}
	if samples["pathdb_engine_submitted_total"] < 3 {
		t.Fatalf("submitted = %v, want >= 3", samples["pathdb_engine_submitted_total"])
	}
	if samples["pathdb_server_served_total"] != 3 {
		t.Fatalf("served = %v, want 3", samples["pathdb_server_served_total"])
	}
	if samples["pathdb_ledger_now_virtual_seconds_total"] <= 0 {
		t.Fatal("virtual clock did not advance")
	}
	if samples["pathdb_volume_pages"] != float64(db.Pages()) {
		t.Fatalf("volume pages = %v, want %d", samples["pathdb_volume_pages"], db.Pages())
	}
}

func TestHealthz(t *testing.T) {
	db := newTestDB(t, 0.1)
	srv, ts := newTestServer(t, db, pathdb.EngineConfig{}, Options{})

	resp, err := http.Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthy: status %d", resp.StatusCode)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	resp, err = http.Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining: status %d, want 503", resp.StatusCode)
	}
}

// TestGracefulShutdown is the drain acceptance test: with N slow queries in
// flight, Shutdown lets every one of them complete while new requests are
// refused with 503, and afterwards the engine's dispatcher goroutine is
// gone (checked against the pre-engine goroutine baseline; run with -race).
func TestGracefulShutdown(t *testing.T) {
	baseline := runtime.NumGoroutine()

	db := newTestDB(t, 0.5)
	eng := db.NewEngine(pathdb.EngineConfig{MaxInFlight: 2})
	db.ResetStats()
	srv := New(db, eng, Options{})
	ts := httptest.NewServer(srv)

	// Hold N heavy queries in flight (more than MaxInFlight, so some drain
	// from the engine's queue during shutdown, not just from execution).
	const n = 8
	type outcome struct {
		status int
		body   []byte
		err    error
	}
	results := make(chan outcome, n)
	for i := 0; i < n; i++ {
		go func() {
			body, _ := json.Marshal(QueryRequest{Path: descQuery})
			resp, err := http.Post(ts.URL+"/v1/query", "application/json", bytes.NewReader(body))
			if err != nil {
				results <- outcome{err: err}
				return
			}
			defer resp.Body.Close()
			var buf bytes.Buffer
			_, _ = buf.ReadFrom(resp.Body)
			results <- outcome{status: resp.StatusCode, body: buf.Bytes()}
		}()
	}
	// Wait until every request is inside a handler, so the drain provably
	// overlaps them.
	deadline := time.Now().Add(10 * time.Second)
	for srv.InFlight() < n {
		if time.Now().After(deadline) {
			t.Fatalf("only %d/%d requests in flight", srv.InFlight(), n)
		}
		time.Sleep(100 * time.Microsecond)
	}

	shutdownDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		shutdownDone <- srv.Shutdown(ctx)
	}()
	// New requests are shed as soon as the drain flag flips.
	for !srv.Draining() {
		time.Sleep(100 * time.Microsecond)
	}
	resp, data := postQuery(t, ts.URL, QueryRequest{Path: itemQuery})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("request during drain: status %d (%s), want 503", resp.StatusCode, data)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("503 during drain missing Retry-After")
	}

	// Every in-flight query completes with a full, valid response.
	for i := 0; i < n; i++ {
		o := <-results
		if o.err != nil {
			t.Fatalf("in-flight request failed: %v", o.err)
		}
		if o.status != http.StatusOK {
			t.Fatalf("in-flight request: status %d (%s), want 200", o.status, o.body)
		}
		if qr := decodeResponse(t, o.body); qr.Count == 0 {
			t.Fatalf("in-flight request returned no results: %+v", qr)
		}
	}
	if err := <-shutdownDone; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}

	// The engine is closed: a direct session submission fails.
	if _, err := eng.NewSession().Do(context.Background(), itemQuery, pathdb.QueryOptions{}); err == nil {
		t.Fatal("engine still accepts queries after Shutdown")
	}

	// No goroutine leak: with the HTTP server torn down, we must settle
	// back to the baseline (the dispatcher and any worker pool are gone).
	ts.Close()
	deadline = time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutines leaked: %d > baseline %d\n%s",
				runtime.NumGoroutine(), baseline, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(time.Millisecond)
	}
}

// TestShutdownDeadline: a drain whose context has already expired still
// shuts the engine down, and reports at most the context's error.
func TestShutdownDeadline(t *testing.T) {
	db := newTestDB(t, 0.1)
	eng := db.NewEngine(pathdb.EngineConfig{})
	srv := New(db, eng, Options{})

	ctx, cancel := context.WithCancel(context.Background())
	cancel() // already expired
	// Nothing is in flight or queued, so both the handler drain and the
	// engine drain may see either their work done or the dead context:
	// Shutdown returns nil, or context.Canceled — from the engine drain,
	// wrapped by the engine's Shutdown.
	if err := srv.Shutdown(ctx); err != nil && !errors.Is(err, context.Canceled) {
		t.Fatalf("Shutdown: %v", err)
	}
	if !srv.Draining() {
		t.Fatal("not draining after Shutdown")
	}
	// Either way the engine must be unusable now.
	if _, err := eng.NewSession().Do(context.Background(), itemQuery, pathdb.QueryOptions{}); err == nil {
		t.Fatal("engine alive after deadline shutdown")
	}
}

// TestConcurrentUnknownNames hammers the parser with fresh tag names from
// many goroutines: the dictionary interning path must be race-free (this
// is what makes arbitrary network queries safe).
func TestConcurrentUnknownNames(t *testing.T) {
	db := newTestDB(t, 0.1)
	_, ts := newTestServer(t, db, pathdb.EngineConfig{}, Options{})

	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 8; j++ {
				path := fmt.Sprintf("/site/never_seen_tag_%d_%d", i, j)
				resp, data := postQuery(t, ts.URL, QueryRequest{Path: path})
				if resp.StatusCode != http.StatusOK {
					t.Errorf("%s: status %d (%s)", path, resp.StatusCode, data)
					return
				}
				if qr := decodeResponse(t, data); qr.Count != 0 {
					t.Errorf("%s: count %d, want 0", path, qr.Count)
				}
			}
		}(i)
	}
	wg.Wait()
}
