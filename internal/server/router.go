package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"encoding/json"

	"pathdb"
	"pathdb/internal/shard"
)

// Router is the sharded counterpart of Server: the same HTTP/JSON surface
// served by a scatter-gather coordinator over N independent volumes
// instead of one engine. It adds three router-level behaviours on top of
// the single-volume semantics:
//
//   - Scatter-gather queries. /query fans across every shard with the
//     request's deadline propagated; replicated spine matches are merged
//     exactly once and nodes come back in global document order. Under the
//     quorum policy a shard lost to storage faults yields a typed partial
//     200 ("partial": true plus a "degraded" list), not a 500.
//
//   - Routed updates. /update inserts land on the owning shard (ring
//     placement for spine parents, locality for entity parents); deletes
//     fan out so spine replicas never diverge.
//
//   - Per-tenant admission quotas. The X-Tenant header names the tenant
//     (default "anon"); a tenant at its concurrency share is answered 429
//     with Retry-After while other tenants keep being admitted — the PR 3
//     admission queue generalized so one hot tenant cannot starve the
//     rest.
//
// /metrics emits per-shard series with a shard label, cluster aggregates
// under pathdb_cluster_*, and router-level pathdb_server_* counters that
// exist only here (shard engines export pathdb_engine_*), so sums stay
// double-count-free.
type Router struct {
	cluster *shard.Cluster
	quotas  *shard.Quotas
	opts    Options
	mux     *http.ServeMux

	mu       sync.Mutex
	draining bool
	inflight sync.WaitGroup

	inflightN atomic.Int64
	requests  atomic.Int64 // /query requests accepted into a handler
	served    atomic.Int64 // 200s (partials included)
	partials  atomic.Int64 // 200s that were partial (a degraded shard excluded)
	shed      atomic.Int64 // 503s from drain or engine admission
	quotaShed atomic.Int64 // 429s from per-tenant quotas
	timeouts  atomic.Int64 // 504s
	badReqs   atomic.Int64 // 400s
	gone      atomic.Int64 // client disconnected mid-query
	ioErrors  atomic.Int64 // 500s from storage faults past the policy's tolerance

	updates    atomic.Int64
	updated    atomic.Int64
	updateErrs atomic.Int64
}

// NewRouter builds the sharded front end over cl. The cluster must outlive
// the router; Shutdown drains it.
func NewRouter(cl *shard.Cluster, opts Options, quota shard.QuotaConfig) *Router {
	rt := &Router{
		cluster: cl,
		quotas:  shard.NewQuotas(quota),
		opts:    opts.withDefaults(),
		mux:     http.NewServeMux(),
	}
	rt.mux.HandleFunc("/v1/query", rt.handleQuery)
	rt.mux.HandleFunc("/v1/update", rt.handleUpdate)
	rt.mux.HandleFunc("/v1/metrics", rt.handleMetrics)
	rt.mux.HandleFunc("/v1/healthz", rt.handleHealthz)
	return rt
}

// ServeHTTP implements http.Handler.
func (rt *Router) ServeHTTP(w http.ResponseWriter, r *http.Request) { rt.mux.ServeHTTP(w, r) }

// Cluster returns the coordinator the router serves.
func (rt *Router) Cluster() *shard.Cluster { return rt.cluster }

// InFlight returns the number of requests currently executing.
func (rt *Router) InFlight() int64 { return rt.inflightN.Load() }

// Draining reports whether Shutdown has begun.
func (rt *Router) Draining() bool {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.draining
}

// Shutdown drains the router exactly like Server.Shutdown: refuse new
// requests, wait for in-flight handlers, then drain every shard engine.
func (rt *Router) Shutdown(ctx context.Context) error {
	rt.mu.Lock()
	rt.draining = true
	rt.mu.Unlock()

	done := make(chan struct{})
	go func() {
		rt.inflight.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-ctx.Done():
		rt.cluster.Close()
		return ctx.Err()
	}
	return rt.cluster.Shutdown(ctx)
}

func (rt *Router) enter() bool {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if rt.draining {
		return false
	}
	rt.inflight.Add(1)
	rt.inflightN.Add(1)
	return true
}

func (rt *Router) leave() {
	rt.inflightN.Add(-1)
	rt.inflight.Done()
}

// tenantOf names the request's tenant for quota accounting.
func tenantOf(r *http.Request) string {
	if t := r.Header.Get("X-Tenant"); t != "" {
		return t
	}
	return "anon"
}

// DegradedJSON reports one shard excluded from a partial result.
type DegradedJSON struct {
	Shard int    `json:"shard"`
	Kind  string `json:"kind"`
	Error string `json:"error"`
}

// ShardStatJSON is one shard's contribution echoed in a router response.
type ShardStatJSON struct {
	Shard      int    `json:"shard"`
	Count      int    `json:"count"`
	Cached     bool   `json:"cached,omitempty"`
	Strategy   string `json:"strategy,omitempty"`
	Shared     bool   `json:"shared,omitempty"`
	CostVNs    int64  `json:"cost_v_ns"`
	WallExecNs int64  `json:"wall_exec_ns"`
	Failed     bool   `json:"failed,omitempty"`
	Kind       string `json:"kind,omitempty"`
}

// RouterQueryResponse is the POST /query result body in router mode: the
// merged count plus the per-shard breakdown. Count already counts each
// replicated spine match once; SpineMatches says how many of the matches
// sit on the replicated spine.
type RouterQueryResponse struct {
	Path         string          `json:"path"`
	Count        int             `json:"count"`
	Shards       int             `json:"shards"`
	SpineMatches int             `json:"spine_matches"`
	Partial      bool            `json:"partial,omitempty"`
	Degraded     []DegradedJSON  `json:"degraded,omitempty"`
	PerShard     []ShardStatJSON `json:"per_shard"`
	Nodes        []NodeJSON      `json:"nodes,omitempty"`
	Truncated    bool            `json:"truncated,omitempty"`

	// CostVNs sums the shards' own virtual costs (work done);
	// WallExecNs is the slowest shard's execution time (latency —
	// the shards run in parallel).
	CostVNs    int64 `json:"cost_v_ns"`
	WallExecNs int64 `json:"wall_exec_ns"`
}

func (rt *Router) handleQuery(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		writeJSON(w, http.StatusMethodNotAllowed, ErrorResponse{Error: "POST only"})
		return
	}
	if !rt.enter() {
		rt.shed.Add(1)
		rt.unavailable(w, "draining", pathdb.KindClosed.String())
		return
	}
	defer rt.leave()
	rt.requests.Add(1)

	tenant := tenantOf(r)
	if !rt.quotas.Acquire(tenant) {
		rt.quotaShed.Add(1)
		w.Header().Set("Retry-After", strconv.Itoa(rt.opts.RetryAfter))
		writeJSON(w, http.StatusTooManyRequests, ErrorResponse{
			Error: fmt.Sprintf("tenant %q at its admission quota", tenant),
			Kind:  pathdb.KindOverloaded.String(),
		})
		return
	}
	defer rt.quotas.Release(tenant)

	var req QueryRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, rt.opts.MaxBody))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		rt.badRequest(w, fmt.Sprintf("bad request body: %v", err))
		return
	}
	if req.Path == "" {
		rt.badRequest(w, "missing \"path\"")
		return
	}
	if req.Limit < 0 || req.TimeoutMS < 0 {
		rt.badRequest(w, "\"limit\" and \"timeout_ms\" must be non-negative")
		return
	}
	opts := pathdb.QueryOptions{Sorted: req.Sorted}
	if req.Strategy != "" {
		strat, err := pathdb.ParseStrategy(req.Strategy)
		if err != nil {
			rt.badRequest(w, err.Error())
			return
		}
		opts.Strategy = strat
	}
	if req.Preds != "" {
		pe, err := pathdb.ParsePredEval(req.Preds)
		if err != nil {
			rt.badRequest(w, err.Error())
			return
		}
		opts.PredEval = pe
	}
	if err := rt.cluster.Check(req.Path); err != nil {
		rt.badRequest(w, err.Error())
		return
	}

	timeout := rt.opts.MaxTimeout
	if t := time.Duration(req.TimeoutMS) * time.Millisecond; t > 0 && t < timeout {
		timeout = t
	}
	ctx, cancel := context.WithTimeout(r.Context(), timeout)
	defer cancel()

	// Content negotiation: Accept: application/x-ndjson streams the
	// cluster's k-way merge straight to the wire.
	if wantsStream(r) {
		rt.streamQuery(ctx, w, r, req, opts)
		return
	}

	m, err := rt.cluster.Query(ctx, req.Path, opts, req.Limit > 0)
	if err != nil {
		rt.queryError(w, r, err)
		return
	}
	rt.served.Add(1)
	if m.Partial {
		rt.partials.Add(1)
	}
	writeJSON(w, http.StatusOK, rt.response(req, m))
}

// response shapes a merged scatter-gather result.
func (rt *Router) response(req QueryRequest, m *shard.Merged) RouterQueryResponse {
	out := RouterQueryResponse{
		Path:         req.Path,
		Count:        m.Count,
		Shards:       rt.cluster.Shards(),
		SpineMatches: m.SpineMatches,
		Partial:      m.Partial,
	}
	for _, f := range m.Degraded {
		out.Degraded = append(out.Degraded, DegradedJSON{
			Shard: f.Shard,
			Kind:  f.Kind.String(),
			Error: f.Err.Error(),
		})
	}
	for _, ps := range m.PerShard {
		sj := ShardStatJSON{
			Shard:      ps.Shard,
			Count:      ps.Count,
			Cached:     ps.Cached,
			CostVNs:    int64(ps.CostV),
			WallExecNs: ps.WallExec,
			Failed:     ps.Failed,
		}
		switch {
		case ps.Failed:
			sj.Kind = ps.Kind.String()
		case ps.Cached:
			// No strategy ran: the count came from the epoch-keyed cache.
		default:
			sj.Strategy = ps.Strategy.String()
			out.CostVNs += int64(ps.CostV)
			if ps.WallExec > out.WallExecNs {
				out.WallExecNs = ps.WallExec
			}
			sj.Shared = ps.Shared
		}
		out.PerShard = append(out.PerShard, sj)
	}
	limit := req.Limit
	if limit > rt.opts.MaxNodes {
		limit = rt.opts.MaxNodes
	}
	if limit > len(m.Nodes) {
		limit = len(m.Nodes)
	}
	if limit > 0 {
		out.Nodes = make([]NodeJSON, limit)
		for i := range out.Nodes {
			sn := m.Nodes[i]
			out.Nodes[i] = NodeJSON{
				ID:    sn.Node.ID(),
				Name:  sn.Node.Name(),
				Ord:   sn.Node.OrdPath(),
				Shard: sn.Shard,
			}
		}
		out.Truncated = limit < len(m.Nodes)
	}
	return out
}

// RouterUpdateResponse is the POST /update result body in router mode.
type RouterUpdateResponse struct {
	Op string `json:"op"`
	// Shard is the owning shard of an insert (-1 for deletes, which fan
	// out).
	Shard        int       `json:"shard"`
	Inserted     *NodeJSON `json:"inserted,omitempty"`
	Deleted      int       `json:"deleted"`
	PerShard     []int     `json:"per_shard_deleted,omitempty"`
	Epoch        uint64    `json:"epoch,omitempty"`
	CommitWallNs int64     `json:"commit_wall_ns"`
}

func (rt *Router) handleUpdate(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		writeJSON(w, http.StatusMethodNotAllowed, ErrorResponse{Error: "POST only"})
		return
	}
	if !rt.enter() {
		rt.shed.Add(1)
		rt.unavailable(w, "draining", pathdb.KindClosed.String())
		return
	}
	defer rt.leave()
	rt.updates.Add(1)

	var req UpdateRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, rt.opts.MaxBody))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		rt.updateBadRequest(w, fmt.Sprintf("bad request body: %v", err))
		return
	}
	if req.TimeoutMS < 0 {
		rt.updateBadRequest(w, "\"timeout_ms\" must be non-negative")
		return
	}
	timeout := rt.opts.MaxTimeout
	if t := time.Duration(req.TimeoutMS) * time.Millisecond; t > 0 && t < timeout {
		timeout = t
	}
	ctx, cancel := context.WithTimeout(r.Context(), timeout)
	defer cancel()

	switch req.Op {
	case "insert":
		rt.handleInsert(ctx, w, r, req)
	case "delete":
		rt.handleDelete(ctx, w, r, req)
	default:
		rt.updateBadRequest(w, fmt.Sprintf("unknown op %q (want \"insert\" or \"delete\")", req.Op))
	}
}

func (rt *Router) handleInsert(ctx context.Context, w http.ResponseWriter, r *http.Request, req UpdateRequest) {
	if req.Parent == "" || req.XML == "" {
		rt.updateBadRequest(w, "insert needs \"parent\" and \"xml\"")
		return
	}
	if err := rt.cluster.CheckFragment(req.XML); err != nil {
		rt.updateBadRequest(w, err.Error())
		return
	}
	if err := rt.cluster.Check(req.Parent); err != nil {
		rt.updateBadRequest(w, err.Error())
		return
	}
	start := time.Now()
	res, err := rt.cluster.Insert(ctx, req.Parent, req.XML)
	if err != nil {
		var pe *shard.ParentError
		if errors.As(err, &pe) {
			rt.updateBadRequest(w, pe.Error())
			return
		}
		rt.updateError(w, r, err)
		return
	}
	rt.updated.Add(1)
	writeJSON(w, http.StatusOK, RouterUpdateResponse{
		Op:           "insert",
		Shard:        res.Shard,
		Inserted:     &NodeJSON{ID: res.Node.ID(), Name: res.Node.Name(), Ord: res.Node.OrdPath(), Shard: res.Shard},
		Epoch:        res.Epoch,
		CommitWallNs: time.Since(start).Nanoseconds(),
	})
}

func (rt *Router) handleDelete(ctx context.Context, w http.ResponseWriter, r *http.Request, req UpdateRequest) {
	if req.Path == "" {
		rt.updateBadRequest(w, "delete needs \"path\"")
		return
	}
	if err := rt.cluster.Check(req.Path); err != nil {
		rt.updateBadRequest(w, err.Error())
		return
	}
	start := time.Now()
	res, err := rt.cluster.Delete(ctx, req.Path)
	if err != nil {
		rt.updateError(w, r, err)
		return
	}
	rt.updated.Add(1)
	writeJSON(w, http.StatusOK, RouterUpdateResponse{
		Op:           "delete",
		Shard:        -1,
		Deleted:      res.Deleted,
		PerShard:     res.PerShard,
		CommitWallNs: time.Since(start).Nanoseconds(),
	})
}

// queryError maps scatter failures onto HTTP statuses with the same
// taxonomy the single-volume server uses. A QuorumError unwraps to the
// first shard's storage fault, so the errors.Is chain below classifies it
// as a 500 with the typed kind — the degraded-beyond-quorum outcome.
func (rt *Router) queryError(w http.ResponseWriter, r *http.Request, err error) {
	switch {
	case errors.Is(err, pathdb.ErrOverloaded):
		rt.shed.Add(1)
		rt.unavailable(w, "overloaded: a shard admission queue is full", pathdb.KindOverloaded.String())
	case errors.Is(err, pathdb.ErrClosed):
		rt.shed.Add(1)
		rt.unavailable(w, "draining", pathdb.KindClosed.String())
	case errors.Is(err, pathdb.ErrIO) || errors.Is(err, pathdb.ErrCorrupt):
		rt.ioErrors.Add(1)
		writeJSON(w, http.StatusInternalServerError, ErrorResponse{Error: err.Error(), Kind: errKind(err)})
	case errors.Is(err, pathdb.ErrTimeout) && r.Context().Err() == nil:
		rt.timeouts.Add(1)
		writeJSON(w, http.StatusGatewayTimeout, ErrorResponse{Error: "query timed out", Kind: errKind(err)})
	case r.Context().Err() != nil:
		rt.gone.Add(1)
	default:
		writeJSON(w, http.StatusInternalServerError, ErrorResponse{Error: err.Error(), Kind: errKind(err)})
	}
}

func (rt *Router) updateError(w http.ResponseWriter, r *http.Request, err error) {
	rt.updateErrs.Add(1)
	switch {
	case errors.Is(err, pathdb.ErrOverloaded):
		rt.shed.Add(1)
		rt.unavailable(w, "overloaded: a shard admission queue is full", pathdb.KindOverloaded.String())
	case errors.Is(err, pathdb.ErrClosed):
		rt.shed.Add(1)
		rt.unavailable(w, "draining", pathdb.KindClosed.String())
	case errors.Is(err, pathdb.ErrGone):
		writeJSON(w, http.StatusConflict, ErrorResponse{Error: err.Error(), Kind: errKind(err)})
	case errors.Is(err, pathdb.ErrIO) || errors.Is(err, pathdb.ErrCorrupt):
		rt.ioErrors.Add(1)
		writeJSON(w, http.StatusInternalServerError, ErrorResponse{Error: err.Error(), Kind: errKind(err)})
	case errors.Is(err, pathdb.ErrTimeout) && r.Context().Err() == nil:
		rt.timeouts.Add(1)
		writeJSON(w, http.StatusGatewayTimeout, ErrorResponse{Error: "update timed out", Kind: errKind(err)})
	case r.Context().Err() != nil:
		rt.gone.Add(1)
	default:
		writeJSON(w, http.StatusInternalServerError, ErrorResponse{Error: err.Error(), Kind: errKind(err)})
	}
}

func (rt *Router) unavailable(w http.ResponseWriter, msg, kind string) {
	w.Header().Set("Retry-After", strconv.Itoa(rt.opts.RetryAfter))
	writeJSON(w, http.StatusServiceUnavailable, ErrorResponse{Error: msg, Kind: kind})
}

func (rt *Router) badRequest(w http.ResponseWriter, msg string) {
	rt.badReqs.Add(1)
	writeJSON(w, http.StatusBadRequest, ErrorResponse{Error: msg})
}

func (rt *Router) updateBadRequest(w http.ResponseWriter, msg string) {
	rt.updateErrs.Add(1)
	rt.badRequest(w, msg)
}

func (rt *Router) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if rt.Draining() {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "draining")
		return
	}
	fmt.Fprintf(w, "ok shards=%d degraded=%d\n",
		rt.cluster.Shards(), rt.cluster.Shards()-len(rt.cluster.Ring().Healthy()))
}

// handleMetrics renders the sharded /metrics rollup: every shard-scoped
// series carries a shard label (HELP/TYPE stated once, one sample per
// shard), cluster-wide sums live under distinct pathdb_cluster_* names,
// and the pathdb_server_* request counters are router-level only — shard
// engines never emit them — so no series is double-counted between levels.
func (rt *Router) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		http.Error(w, "GET only", http.StatusMethodNotAllowed)
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	var b strings.Builder

	ms := rt.cluster.Metrics()
	shardLabel := func(i int) string { return labelValue("shard", strconv.Itoa(i)) }
	samples := func(f func(shard.ShardMetrics) float64) []labeledSample {
		out := make([]labeledSample, len(ms))
		for i, sm := range ms {
			out[i] = labeledSample{labels: shardLabel(sm.Shard), v: f(sm)}
		}
		return out
	}
	// One engine counter → a labeled per-shard series plus a cluster sum
	// under its own name.
	engC := func(name, agg, help string, f func(shard.ShardMetrics) float64) {
		labeledCounter(&b, name, help+" (per shard).", samples(f))
		sum := 0.0
		for _, sm := range ms {
			sum += f(sm)
		}
		counter(&b, agg, help+" (all shards).", sum)
	}
	engC("pathdb_engine_submitted_total", "pathdb_cluster_submitted_total",
		"Queries admitted by the shard engines", func(sm shard.ShardMetrics) float64 { return float64(sm.Engine.Submitted) })
	engC("pathdb_engine_rejected_total", "pathdb_cluster_rejected_total",
		"Submissions shed by full shard admission queues", func(sm shard.ShardMetrics) float64 { return float64(sm.Engine.Rejected) })
	engC("pathdb_engine_completed_total", "pathdb_cluster_completed_total",
		"Queries finished without error", func(sm shard.ShardMetrics) float64 { return float64(sm.Engine.Completed) })
	engC("pathdb_engine_cancelled_total", "pathdb_cluster_cancelled_total",
		"Queries failed with a context error", func(sm shard.ShardMetrics) float64 { return float64(sm.Engine.Cancelled) })
	engC("pathdb_engine_gangs_total", "pathdb_cluster_gangs_total",
		"Dispatcher batches executed", func(sm shard.ShardMetrics) float64 { return float64(sm.Engine.Gangs) })
	engC("pathdb_engine_batched_total", "pathdb_cluster_batched_total",
		"Queries that ran on a gang-shared I/O scheduler", func(sm shard.ShardMetrics) float64 { return float64(sm.Engine.Batched) })
	engC("pathdb_engine_faulted_total", "pathdb_cluster_faulted_total",
		"Queries failed by a storage page fault", func(sm shard.ShardMetrics) float64 { return float64(sm.Engine.Faulted) })
	engC("pathdb_engine_updates_total", "pathdb_cluster_updates_total",
		"Write transactions admitted", func(sm shard.ShardMetrics) float64 { return float64(sm.Engine.Updates) })

	engC("pathdb_txn_commits_total", "pathdb_cluster_commits_total",
		"Transactions committed", func(sm shard.ShardMetrics) float64 { return float64(sm.Txn.Commits) })
	engC("pathdb_txn_groups_total", "pathdb_cluster_groups_total",
		"Commit groups flushed to the WAL", func(sm shard.ShardMetrics) float64 { return float64(sm.Txn.Groups) })
	engC("pathdb_txn_wal_flushes_total", "pathdb_cluster_wal_flushes_total",
		"WAL page writes across all commit groups", func(sm shard.ShardMetrics) float64 { return float64(sm.Txn.Flushes) })
	labeledGauge(&b, "pathdb_txn_epoch", "Current published volume version (per shard).",
		samples(func(sm shard.ShardMetrics) float64 { return float64(sm.Txn.Epoch) }))
	labeledGauge(&b, "pathdb_txn_pinned_snapshots", "Snapshots currently pinned by readers (per shard).",
		samples(func(sm shard.ShardMetrics) float64 { return float64(sm.Txn.Pinned) }))

	// Each shard's full cost ledger, labeled; the virtual clocks of
	// independent volumes tick independently, so no cluster sum is
	// emitted for them (a sum of independent clocks measures nothing).
	if len(ms) > 0 {
		for fi, nv := range ms[0].Ledger.Named() {
			vals := make([]labeledSample, len(ms))
			for i, sm := range ms {
				vals[i] = labeledSample{labels: shardLabel(sm.Shard), v: float64(sm.Ledger.Named()[fi].Value)}
			}
			if base, ok := strings.CutSuffix(nv.Name, "_ns"); ok {
				for i := range vals {
					vals[i].v /= 1e9
				}
				labeledCounter(&b, "pathdb_ledger_"+base+"_virtual_seconds_total",
					"Virtual clock \""+nv.Name+"\" of the shard cost ledger.", vals)
				continue
			}
			labeledCounter(&b, "pathdb_ledger_"+nv.Name+"_total",
				"Counter \""+nv.Name+"\" of the shard cost ledger.", vals)
		}
	}

	labeledGauge(&b, "pathdb_volume_pages", "Data pages per shard volume.",
		samples(func(sm shard.ShardMetrics) float64 { return float64(sm.Pages) }))
	labeledCounter(&b, "pathdb_shard_degraded_hits_total",
		"Queries a shard failed with a tolerable storage fault (absorbed by the quorum policy).",
		samples(func(sm shard.ShardMetrics) float64 { return float64(sm.DegradedHits) }))
	labeledCounter(&b, "pathdb_shard_count_cache_hits_total",
		"Per-shard counts served from the epoch-keyed cache without executing a plan.",
		samples(func(sm shard.ShardMetrics) float64 { return float64(sm.CacheHits) }))
	ring := rt.cluster.Ring()
	labeledGauge(&b, "pathdb_shard_degraded", "1 while the shard is marked degraded on the ring.",
		samples(func(sm shard.ShardMetrics) float64 { return boolGauge(ring.IsDegraded(sm.Shard)) }))

	// Per-tenant quota accounting.
	ts := rt.quotas.Stats()
	tsamples := func(f func(shard.TenantStat) float64) []labeledSample {
		out := make([]labeledSample, len(ts))
		for i, t := range ts {
			out[i] = labeledSample{labels: labelValue("tenant", t.Tenant), v: f(t)}
		}
		return out
	}
	if len(ts) > 0 {
		labeledGauge(&b, "pathdb_tenant_inflight", "Requests currently admitted per tenant.",
			tsamples(func(t shard.TenantStat) float64 { return float64(t.InFlight) }))
		labeledCounter(&b, "pathdb_tenant_admitted_total", "Requests admitted per tenant.",
			tsamples(func(t shard.TenantStat) float64 { return float64(t.Admitted) }))
		labeledCounter(&b, "pathdb_tenant_shed_total", "Requests answered 429 per tenant (quota exhausted).",
			tsamples(func(t shard.TenantStat) float64 { return float64(t.Shed) }))
	}

	// Router-level request counters: emitted only here (no shard engine
	// exports pathdb_server_*), so they never double-count against the
	// per-shard series above.
	gauge(&b, "pathdb_cluster_shards", "Shards served by this router.", float64(rt.cluster.Shards()))
	gauge(&b, "pathdb_server_inflight", "Requests currently executing.", float64(rt.inflightN.Load()))
	gauge(&b, "pathdb_server_draining", "1 once Shutdown has begun.", boolGauge(rt.Draining()))
	counter(&b, "pathdb_server_requests_total", "Query requests accepted into a handler.", float64(rt.requests.Load()))
	counter(&b, "pathdb_server_served_total", "Query requests answered 200.", float64(rt.served.Load()))
	counter(&b, "pathdb_server_partial_total", "Query requests answered 200 with a partial (degraded-shard) result.", float64(rt.partials.Load()))
	counter(&b, "pathdb_server_shed_total", "Requests answered 503 (overload or drain).", float64(rt.shed.Load()))
	counter(&b, "pathdb_server_quota_shed_total", "Requests answered 429 (per-tenant quota).", float64(rt.quotaShed.Load()))
	counter(&b, "pathdb_server_timeouts_total", "Requests answered 504 (deadline expired).", float64(rt.timeouts.Load()))
	counter(&b, "pathdb_server_bad_requests_total", "Requests answered 400.", float64(rt.badReqs.Load()))
	counter(&b, "pathdb_server_client_gone_total", "Requests whose client disconnected mid-flight.", float64(rt.gone.Load()))
	counter(&b, "pathdb_server_io_errors_total", "Requests answered 500 for a storage fault.", float64(rt.ioErrors.Load()))
	counter(&b, "pathdb_server_updates_total", "Update requests accepted into a handler.", float64(rt.updates.Load()))
	counter(&b, "pathdb_server_updated_total", "Update requests answered 200.", float64(rt.updated.Load()))
	counter(&b, "pathdb_server_update_errors_total", "Update requests answered 4xx/5xx.", float64(rt.updateErrs.Load()))

	_, _ = w.Write([]byte(b.String()))
}
