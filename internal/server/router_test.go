package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"pathdb"
	"pathdb/internal/shard"
)

// newTestRouter wires a 4-shard XMark cluster behind a Router. mod lets a
// test adjust the shard config (faults need a tiny buffer and no count
// cache) before the cluster is built.
func newTestRouter(t *testing.T, cfg shard.Config, buffer int, quota shard.QuotaConfig) (*Router, *httptest.Server) {
	t.Helper()
	if cfg.Shards == 0 {
		cfg.Shards = 4
	}
	cl, err := shard.NewXMark(
		pathdb.XMarkConfig{ScaleFactor: 0.25, Seed: 42, EntityScale: 0.1},
		pathdb.Options{Layout: pathdb.Shuffled, LayoutSeed: 42, BufferPages: buffer},
		cfg)
	if err != nil {
		t.Fatal(err)
	}
	rt := NewRouter(cl, Options{}, quota)
	ts := httptest.NewServer(rt)
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = rt.Shutdown(ctx)
	})
	return rt, ts
}

func postRouterQuery(t *testing.T, url string, req QueryRequest, tenant string) (*http.Response, []byte) {
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
	if tenant != "" {
		hreq.Header.Set("X-Tenant", tenant)
	}
	resp, err := http.DefaultClient.Do(hreq)
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

func decodeRouterResponse(t *testing.T, data []byte) RouterQueryResponse {
	t.Helper()
	var qr RouterQueryResponse
	if err := json.Unmarshal(data, &qr); err != nil {
		t.Fatalf("response not valid JSON: %v\n%s", err, data)
	}
	return qr
}

// End to end: the router's merged count equals the coordinator's, the
// response carries the per-shard breakdown, and node requests come back in
// document order with shard tags.
func TestRouterQueryEndToEnd(t *testing.T) {
	rt, ts := newTestRouter(t, shard.Config{}, 256, shard.QuotaConfig{})

	want, err := rt.Cluster().Query(context.Background(), itemQuery, pathdb.QueryOptions{}, false)
	if err != nil {
		t.Fatal(err)
	}
	resp, body := postRouterQuery(t, ts.URL, QueryRequest{Path: itemQuery}, "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	qr := decodeRouterResponse(t, body)
	if qr.Count != want.Count {
		t.Fatalf("router count %d, coordinator %d", qr.Count, want.Count)
	}
	if qr.Shards != 4 || len(qr.PerShard) != 4 {
		t.Fatalf("response reports %d shards with %d per-shard entries, want 4/4", qr.Shards, len(qr.PerShard))
	}

	for _, ps := range qr.PerShard {
		if ps.Strategy == "" {
			t.Fatalf("shard %d reports no strategy for its count: %+v", ps.Shard, ps)
		}
	}

	resp, body = postRouterQuery(t, ts.URL, QueryRequest{Path: itemQuery, Limit: 10}, "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("node query status %d: %s", resp.StatusCode, body)
	}
	qr = decodeRouterResponse(t, body)
	if len(qr.Nodes) != 10 || !qr.Truncated {
		t.Fatalf("limit 10: %d nodes, truncated=%v", len(qr.Nodes), qr.Truncated)
	}
	for i, n := range qr.Nodes {
		if n.Shard < 0 || n.Shard >= 4 {
			t.Fatalf("node %d tagged with shard %d", i, n.Shard)
		}
	}
}

// Inserts route to one owning shard; deletes fan out; both survive a
// round-trip through the HTTP surface.
func TestRouterUpdateRoundTrip(t *testing.T) {
	_, ts := newTestRouter(t, shard.Config{}, 256, shard.QuotaConfig{})

	post := func(req UpdateRequest) (*http.Response, RouterUpdateResponse) {
		body, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(ts.URL+"/v1/update", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		if _, err := buf.ReadFrom(resp.Body); err != nil {
			t.Fatal(err)
		}
		var ur RouterUpdateResponse
		if resp.StatusCode == http.StatusOK {
			if err := json.Unmarshal(buf.Bytes(), &ur); err != nil {
				t.Fatalf("update response not valid JSON: %v\n%s", err, buf.Bytes())
			}
		}
		return resp, ur
	}

	resp, ur := post(UpdateRequest{Op: "insert", Parent: "/site", XML: "<routerpad/>"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("insert status %d", resp.StatusCode)
	}
	if ur.Shard < 0 || ur.Shard >= 4 || ur.Inserted == nil || ur.Epoch == 0 {
		t.Fatalf("insert response %+v lacks owner/node/epoch", ur)
	}

	qresp, body := postRouterQuery(t, ts.URL, QueryRequest{Path: "/site//routerpad"}, "")
	if qresp.StatusCode != http.StatusOK {
		t.Fatalf("query status %d", qresp.StatusCode)
	}
	if qr := decodeRouterResponse(t, body); qr.Count != 1 {
		t.Fatalf("inserted node counts %d cluster-wide, want 1", qr.Count)
	}

	resp, ur = post(UpdateRequest{Op: "delete", Path: "/site//routerpad"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("delete status %d", resp.StatusCode)
	}
	if ur.Deleted != 1 || ur.Shard != -1 {
		t.Fatalf("delete response %+v, want deleted=1 shard=-1", ur)
	}

	// A malformed parent is the client's fault: 400, not 500.
	resp, _ = post(UpdateRequest{Op: "insert", Parent: "/site//item", XML: "<x/>"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("ambiguous parent: status %d, want 400", resp.StatusCode)
	}
}

// metricSamples parses a /metrics payload into name{labels} -> value.
var metricLine = regexp.MustCompile(`(?m)^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^}]*\})? (\S+)$`)

func metricSamples(t *testing.T, url string) map[string]float64 {
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
	out := make(map[string]float64)
	for _, m := range metricLine.FindAllStringSubmatch(buf.String(), -1) {
		v, err := strconv.ParseFloat(m[3], 64)
		if err != nil {
			t.Fatalf("metric %s%s: bad value %q", m[1], m[2], m[3])
		}
		out[m[1]+m[2]] = v
	}
	return out
}

// The sharded /metrics rollup: every shard-scoped series carries a shard
// label, the cluster aggregate equals the sum of the labeled samples, and
// router-level pathdb_server_* series appear exactly once, unlabeled — so
// nothing is double-counted between the levels.
func TestShardedMetricsRollup(t *testing.T) {
	_, ts := newTestRouter(t, shard.Config{}, 256, shard.QuotaConfig{})

	for i := 0; i < 3; i++ {
		resp, body := postRouterQuery(t, ts.URL, QueryRequest{Path: descQuery}, "tenant-a")
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("query %d status %d: %s", i, resp.StatusCode, body)
		}
	}

	ms := metricSamples(t, ts.URL)
	for _, name := range []string{
		"pathdb_engine_submitted_total", "pathdb_engine_completed_total",
		"pathdb_txn_epoch", "pathdb_volume_pages", "pathdb_shard_degraded_hits_total",
		"pathdb_derived_hits_total", "pathdb_derived_level_builds_total",
	} {
		sum := 0.0
		for s := 0; s < 4; s++ {
			v, ok := ms[name+`{shard="`+strconv.Itoa(s)+`"}`]
			if !ok {
				t.Fatalf("series %s missing shard %d sample", name, s)
			}
			sum += v
		}
		if _, ok := ms[name]; ok {
			t.Fatalf("series %s also appears unlabeled — double-counted", name)
		}
		if agg, ok := ms["pathdb_cluster_"+name[len("pathdb_engine_"):]]; ok {
			if agg != sum {
				t.Fatalf("cluster aggregate of %s is %v, labeled sum %v", name, agg, sum)
			}
		}
	}
	if got := ms["pathdb_cluster_shards"]; got != 4 {
		t.Fatalf("pathdb_cluster_shards %v, want 4", got)
	}
	agg, sum := ms["pathdb_cluster_completed_total"], 0.0
	for s := 0; s < 4; s++ {
		sum += ms[`pathdb_engine_completed_total{shard="`+strconv.Itoa(s)+`"}`]
	}
	if agg != sum {
		t.Fatalf("pathdb_cluster_completed_total %v != labeled sum %v", agg, sum)
	}
	if ms["pathdb_server_requests_total"] < 3 {
		t.Fatalf("router served 3 queries, pathdb_server_requests_total=%v", ms["pathdb_server_requests_total"])
	}
	if ms[`pathdb_tenant_admitted_total{tenant="tenant-a"}`] < 3 {
		t.Fatalf("tenant-a admitted %v, want >= 3", ms[`pathdb_tenant_admitted_total{tenant="tenant-a"}`])
	}
}

// A tenant at its admission share is answered 429 with Retry-After while
// other tenants keep being admitted.
func TestRouterTenantQuota(t *testing.T) {
	rt, ts := newTestRouter(t, shard.Config{}, 256,
		shard.QuotaConfig{Capacity: 8, MaxTenantShare: 0.25})

	// Pin tenant-a at its share (2 of 8) from the inside; the next request
	// must shed while tenant-b still gets through.
	for i := 0; i < rt.quotas.PerTenant(); i++ {
		if !rt.quotas.Acquire("tenant-a") {
			t.Fatalf("acquire %d failed below the share", i)
		}
		defer rt.quotas.Release("tenant-a")
	}

	resp, body := postRouterQuery(t, ts.URL, QueryRequest{Path: itemQuery}, "tenant-a")
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("tenant at quota: status %d, want 429 (%s)", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	var er ErrorResponse
	if err := json.Unmarshal(body, &er); err != nil || er.Kind != pathdb.KindOverloaded.String() {
		t.Fatalf("429 body %s, want kind %q", body, pathdb.KindOverloaded)
	}

	resp, body = postRouterQuery(t, ts.URL, QueryRequest{Path: itemQuery}, "tenant-b")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("tenant-b sheds with tenant-a at quota: status %d (%s)", resp.StatusCode, body)
	}

	ms := metricSamples(t, ts.URL)
	if ms["pathdb_server_quota_shed_total"] < 1 {
		t.Fatalf("quota shed not counted: %v", ms["pathdb_server_quota_shed_total"])
	}
	if ms[`pathdb_tenant_shed_total{tenant="tenant-a"}`] < 1 {
		t.Fatalf("tenant-a shed not counted")
	}
}

// A shard lost to storage faults yields a typed partial 200 — with the
// correct merged count — never a 500.
func TestRouterDegradedShardPartial200(t *testing.T) {
	const bad = 2
	rt, ts := newTestRouter(t, shard.Config{}, 8, shard.QuotaConfig{})

	base, err := rt.Cluster().Query(context.Background(), descQuery, pathdb.QueryOptions{}, false)
	if err != nil {
		t.Fatal(err)
	}
	expect := 0
	answered := 0
	for _, ps := range base.PerShard {
		if ps.Shard == bad {
			continue
		}
		expect += ps.Count
		answered++
	}
	expect -= (answered - 1) * base.SpineMatches

	rt.Cluster().SetFaults(bad, pathdb.FaultConfig{Seed: 7, ReadError: 0.5})
	partials := 0
	for i := 0; i < 40 && partials == 0; i++ {
		resp, body := postRouterQuery(t, ts.URL, QueryRequest{Path: descQuery}, "")
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("query %d: status %d under a one-shard fault (%s) — want 200", i, resp.StatusCode, body)
		}
		qr := decodeRouterResponse(t, body)
		if !qr.Partial {
			if qr.Count != base.Count {
				t.Fatalf("query %d: complete count %d, want %d", i, qr.Count, base.Count)
			}
			continue
		}
		partials++
		if len(qr.Degraded) != 1 || qr.Degraded[0].Shard != bad {
			t.Fatalf("query %d: degraded %+v, want shard %d", i, qr.Degraded, bad)
		}
		if qr.Degraded[0].Kind != pathdb.KindIO.String() && qr.Degraded[0].Kind != pathdb.KindCorrupt.String() {
			t.Fatalf("query %d: degraded kind %q not a storage kind", i, qr.Degraded[0].Kind)
		}
		if qr.Count != expect {
			t.Fatalf("query %d: partial count %d, want %d", i, qr.Count, expect)
		}
	}
	if partials == 0 {
		t.Fatal("no partial result in 40 queries at 50% read faults")
	}

	ms := metricSamples(t, ts.URL)
	if ms["pathdb_server_partial_total"] < 1 {
		t.Fatalf("pathdb_server_partial_total=%v after a partial 200", ms["pathdb_server_partial_total"])
	}
	if ms[`pathdb_shard_degraded_hits_total{shard="`+strconv.Itoa(bad)+`"}`] < 1 {
		t.Fatal("degraded shard's hit counter never moved")
	}
}

// Shutdown drains: in-flight requests finish, new ones are refused with
// 503 + Retry-After, and the drain completes.
func TestRouterDrain(t *testing.T) {
	rt, ts := newTestRouter(t, shard.Config{}, 256, shard.QuotaConfig{})

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := rt.Shutdown(ctx); err != nil {
		t.Fatalf("drain failed: %v", err)
	}
	resp, body := postRouterQuery(t, ts.URL, QueryRequest{Path: itemQuery}, "")
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("post-drain status %d (%s), want 503", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("post-drain 503 without Retry-After")
	}
}

// TestRouterServerParity sends the same requests to a single-volume Server
// and a 2-shard Router. Every rejection lives in the one front end, so both
// must answer each with the same status, error kind and Retry-After.
func TestRouterServerParity(t *testing.T) {
	srv, sts := newTestServer(t, newTestDB(t, 0.25), pathdb.EngineConfig{}, Options{})
	rt, rts := newTestRouter(t, shard.Config{Shards: 2}, 64, shard.QuotaConfig{})

	type answer struct {
		status     int
		kind       string
		retryAfter string
	}
	send := func(base, method, endpoint, body string) answer {
		t.Helper()
		req, err := http.NewRequest(method, base+"/v1/"+endpoint, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var er ErrorResponse
		if err := json.NewDecoder(resp.Body).Decode(&er); err != nil && resp.StatusCode != http.StatusOK {
			t.Fatalf("%s /v1/%s %s: status %d with no JSON error body", method, endpoint, body, resp.StatusCode)
		}
		return answer{resp.StatusCode, er.Kind, resp.Header.Get("Retry-After")}
	}
	type request struct {
		name, method, endpoint, body string
		want                         int
	}
	check := func(rq request, srvGot, rtGot answer) {
		t.Helper()
		if srvGot.status != rq.want || srvGot != rtGot {
			t.Errorf("%s: server %+v, router %+v, want status %d on both", rq.name, srvGot, rtGot, rq.want)
		}
	}
	for _, rq := range []request{
		{"GET query", http.MethodGet, "query", "", http.StatusMethodNotAllowed},
		{"GET update", http.MethodGet, "update", "", http.StatusMethodNotAllowed},
		{"bad body", http.MethodPost, "query", `{"path":`, http.StatusBadRequest},
		{"unknown field", http.MethodPost, "query", `{"patj": "/site"}`, http.StatusBadRequest},
		{"missing path", http.MethodPost, "query", `{"limit": 3}`, http.StatusBadRequest},
		{"negative limit", http.MethodPost, "query", `{"path": "/site", "limit": -1}`, http.StatusBadRequest},
		{"negative timeout", http.MethodPost, "query", `{"path": "/site", "timeout_ms": -1}`, http.StatusBadRequest},
		{"bad strategy", http.MethodPost, "query", `{"path": "/site", "strategy": "quantum"}`, http.StatusBadRequest},
		{"retired preds field", http.MethodPost, "query", `{"path": "/site", "preds": "join"}`, http.StatusBadRequest},
		{"malformed path", http.MethodPost, "query", `{"path": "/site//"}`, http.StatusBadRequest},
		{"update bad body", http.MethodPost, "update", `{"op":`, http.StatusBadRequest},
		{"update unknown field", http.MethodPost, "update", `{"op": "delete", "pth": "/site"}`, http.StatusBadRequest},
		{"unknown op", http.MethodPost, "update", `{"op": "rename", "path": "/site"}`, http.StatusBadRequest},
		{"insert missing xml", http.MethodPost, "update", `{"op": "insert", "parent": "/site"}`, http.StatusBadRequest},
		{"insert missing parent", http.MethodPost, "update", `{"op": "insert", "xml": "<x/>"}`, http.StatusBadRequest},
		{"delete missing path", http.MethodPost, "update", `{"op": "delete"}`, http.StatusBadRequest},
		{"bad fragment", http.MethodPost, "update", `{"op": "insert", "parent": "/site", "xml": "<broken"}`, http.StatusBadRequest},
		{"ambiguous parent", http.MethodPost, "update", `{"op": "insert", "parent": "/site/regions//item", "xml": "<x/>"}`, http.StatusBadRequest},
		{"malformed update path", http.MethodPost, "update", `{"op": "delete", "path": "/site//"}`, http.StatusBadRequest},
		{"update negative timeout", http.MethodPost, "update", `{"op": "delete", "path": "/site", "timeout_ms": -1}`, http.StatusBadRequest},
	} {
		check(rq, send(sts.URL, rq.method, rq.endpoint, rq.body), send(rts.URL, rq.method, rq.endpoint, rq.body))
	}

	// A 1 ms budget on a heavy node query: 504 with the timeout kind. A
	// machine that beats the budget answers 200; try again.
	timeout := request{"1 ms timeout", http.MethodPost, "query",
		`{"path": "` + descQuery + `", "strategy": "xschedule", "limit": 1, "timeout_ms": 1}`, http.StatusGatewayTimeout}
	timedOut := func(base string) answer {
		var a answer
		for i := 0; i < 20 && a.status != http.StatusGatewayTimeout; i++ {
			a = send(base, timeout.method, timeout.endpoint, timeout.body)
		}
		return a
	}
	check(timeout, timedOut(sts.URL), timedOut(rts.URL))

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if err := rt.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	for _, rq := range []request{
		{"draining query", http.MethodPost, "query", `{"path": "/site"}`, http.StatusServiceUnavailable},
		{"draining update", http.MethodPost, "update", `{"op": "delete", "path": "/site/nothing_here"}`, http.StatusServiceUnavailable},
	} {
		srvGot, rtGot := send(sts.URL, rq.method, rq.endpoint, rq.body), send(rts.URL, rq.method, rq.endpoint, rq.body)
		check(rq, srvGot, rtGot)
		if srvGot.retryAfter == "" || srvGot.kind != pathdb.KindClosed.String() {
			t.Errorf("%s: %+v, want Retry-After and kind %q", rq.name, srvGot, pathdb.KindClosed)
		}
	}
}
