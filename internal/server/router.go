package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"pathdb"
	"pathdb/internal/shard"
)

// Router is the sharded backend of the front end: the same HTTP/JSON
// surface served by a scatter-gather coordinator over N independent
// volumes instead of one engine. What it adds:
//
//   - Scatter-gather queries. /v1/query fans across every shard with the
//     request's deadline propagated; replicated spine matches are merged
//     exactly once and nodes come back in global document order. Under the
//     quorum policy a shard lost to storage faults yields a typed partial
//     200 ("partial": true plus a "degraded" list), not a 500.
//
//   - Routed updates. /v1/update inserts land on the owning shard (ring
//     placement for spine parents, locality for entity parents); deletes
//     fan out so spine replicas never diverge.
//
//   - Per-tenant admission quotas, its admission step. The X-Tenant header
//     names the tenant (default "anon"); a tenant at its concurrency share
//     is answered 429 with Retry-After while other tenants keep being
//     admitted, so one hot tenant cannot starve the rest.
//
// /v1/metrics emits per-shard series with a shard label, cluster aggregates
// under pathdb_cluster_*, and the front end's pathdb_server_* counters,
// which no shard engine exports, so sums stay double-count-free.
type Router struct {
	*front
	cluster   *shard.Cluster
	quotas    *shard.Quotas
	quotaShed atomic.Int64 // 429s from per-tenant quotas
}

// NewRouter builds the sharded front end over cl. The cluster must outlive
// the router; Shutdown drains it.
func NewRouter(cl *shard.Cluster, opts Options, quota shard.QuotaConfig) *Router {
	rt := &Router{cluster: cl, quotas: shard.NewQuotas(quota)}
	rt.front = newFront(rt, opts)
	return rt
}

// Cluster returns the coordinator the router serves.
func (rt *Router) Cluster() *shard.Cluster { return rt.cluster }

// DegradedJSON reports one shard excluded from a partial result.
type DegradedJSON struct {
	Shard int    `json:"shard"`
	Kind  string `json:"kind"`
	Error string `json:"error"`
}

func degradedJSON(fs []shard.ShardFailure) []DegradedJSON {
	var out []DegradedJSON
	for _, f := range fs {
		out = append(out, DegradedJSON{Shard: f.Shard, Kind: f.Kind.String(), Error: f.Err.Error()})
	}
	return out
}

// ShardStatJSON is one shard's contribution echoed in a router response.
type ShardStatJSON struct {
	Shard      int    `json:"shard"`
	Count      int    `json:"count"`
	Strategy   string `json:"strategy,omitempty"`
	Shared     bool   `json:"shared,omitempty"`
	CostVNs    int64  `json:"cost_v_ns"`
	WallExecNs int64  `json:"wall_exec_ns"`
	Failed     bool   `json:"failed,omitempty"`
	Kind       string `json:"kind,omitempty"`
}

// RouterQueryResponse is the POST /v1/query result body in router mode:
// the merged count plus the per-shard breakdown. Count already counts each
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

// RouterUpdateResponse is the POST /v1/update result body in router mode.
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

func (rt *Router) check(path string) error        { return rt.cluster.Check(path) }
func (rt *Router) checkFragment(xml string) error { return rt.cluster.CheckFragment(xml) }

// tenantOf names the request's tenant for quota accounting.
func tenantOf(r *http.Request) string {
	if t := r.Header.Get("X-Tenant"); t != "" {
		return t
	}
	return "anon"
}

// admit takes a slot of the request tenant's quota, answering 429 when the
// tenant is at its share.
func (rt *Router) admit(w http.ResponseWriter, r *http.Request) bool {
	tenant := tenantOf(r)
	if rt.quotas.Acquire(tenant) {
		return true
	}
	rt.quotaShed.Add(1)
	rt.retryLater(w, http.StatusTooManyRequests, ErrorResponse{
		Error: fmt.Sprintf("tenant %q at its admission quota", tenant),
		Kind:  pathdb.KindOverloaded.String(),
	})
	return false
}

func (rt *Router) release(r *http.Request) { rt.quotas.Release(tenantOf(r)) }

// query drains the cluster's merge keeping only the min(limit, MaxNodes)
// nodes it echoes, so the coordinator never holds every shard's result; a
// count-only request (limit 0) keeps none.
func (rt *Router) query(ctx context.Context, req QueryRequest, opts pathdb.QueryOptions) (any, bool, error) {
	sc, err := rt.cluster.Stream(ctx, req.Path, opts)
	if err != nil {
		return nil, false, err
	}
	m, err := sc.Drain(min(req.Limit, rt.opts.MaxNodes))
	if err != nil {
		return nil, false, err
	}
	out := RouterQueryResponse{
		Path:         req.Path,
		Count:        m.Count,
		Shards:       rt.cluster.Shards(),
		SpineMatches: m.SpineMatches,
		Partial:      m.Partial,
		Degraded:     degradedJSON(m.Degraded),
	}
	for _, ps := range m.PerShard {
		sj := ShardStatJSON{
			Shard:      ps.Shard,
			Count:      ps.Count,
			CostVNs:    int64(ps.CostV),
			WallExecNs: ps.WallExec,
			Failed:     ps.Failed,
		}
		if ps.Failed {
			sj.Kind = ps.Kind.String()
		} else {
			sj.Strategy = ps.Strategy.String()
			out.CostVNs += int64(ps.CostV)
			out.WallExecNs = max(out.WallExecNs, ps.WallExec)
			sj.Shared = ps.Shared
		}
		out.PerShard = append(out.PerShard, sj)
	}
	if len(m.Nodes) > 0 {
		out.Nodes = make([]NodeJSON, len(m.Nodes))
		for i, sn := range m.Nodes {
			out.Nodes[i] = nodeJSON(sn.Node, sn.Shard)
		}
		out.Truncated = len(m.Nodes) < m.Count
	}
	return out, m.Partial, nil
}

// open streams the cluster's k-way merge: merged nodes go to the client
// in global document order as the shards produce them, and the router
// never holds more than the heap of stream heads plus one flush chunk.
// Document order is inherent to the merge, so "sorted" is implied.
func (rt *Router) open(ctx context.Context, path string, opts pathdb.QueryOptions) (nodeCursor, error) {
	sc, err := rt.cluster.Stream(ctx, path, opts)
	if err != nil {
		return nil, err
	}
	return clusterCursor{sc}, nil
}

func (rt *Router) insert(ctx context.Context, parent, xml string) (any, error) {
	start := time.Now()
	res, err := rt.cluster.Insert(ctx, parent, xml)
	if err != nil {
		var pe *shard.ParentError
		if errors.As(err, &pe) {
			return nil, requestError(pe.Error())
		}
		return nil, err
	}
	n := nodeJSON(res.Node, res.Shard)
	return RouterUpdateResponse{
		Op:           "insert",
		Shard:        res.Shard,
		Inserted:     &n,
		Epoch:        res.Epoch,
		CommitWallNs: time.Since(start).Nanoseconds(),
	}, nil
}

func (rt *Router) delete(ctx context.Context, path string) (any, error) {
	start := time.Now()
	res, err := rt.cluster.Delete(ctx, path)
	if err != nil {
		return nil, err
	}
	return RouterUpdateResponse{
		Op:           "delete",
		Shard:        -1,
		Deleted:      res.Deleted,
		PerShard:     res.PerShard,
		CommitWallNs: time.Since(start).Nanoseconds(),
	}, nil
}

func (rt *Router) health() string {
	return fmt.Sprintf("ok shards=%d degraded=%d",
		rt.cluster.Shards(), rt.cluster.Shards()-len(rt.cluster.Ring().Healthy()))
}

func (rt *Router) shutdown(ctx context.Context) error { return rt.cluster.Shutdown(ctx) }
func (rt *Router) close()                             { rt.cluster.Close() }

// metrics renders the sharded rollup: every shard-scoped series carries a
// shard label (HELP/TYPE stated once, one sample per shard), cluster-wide
// sums live under distinct pathdb_cluster_* names, and the router's own
// partial and quota counters join the front end's pathdb_server_* block.
func (rt *Router) metrics(b *strings.Builder) {
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
		labeledCounter(b, name, help+" (per shard).", samples(f))
		sum := 0.0
		for _, sm := range ms {
			sum += f(sm)
		}
		counter(b, agg, help+" (all shards).", sum)
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
	labeledGauge(b, "pathdb_txn_epoch", "Current published volume version (per shard).",
		samples(func(sm shard.ShardMetrics) float64 { return float64(sm.Txn.Epoch) }))
	labeledGauge(b, "pathdb_txn_pinned_snapshots", "Snapshots currently pinned by readers (per shard).",
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
				labeledCounter(b, "pathdb_ledger_"+base+"_virtual_seconds_total",
					"Virtual clock \""+nv.Name+"\" of the shard cost ledger.", vals)
				continue
			}
			labeledCounter(b, "pathdb_ledger_"+nv.Name+"_total",
				"Counter \""+nv.Name+"\" of the shard cost ledger.", vals)
		}
	}

	labeledGauge(b, "pathdb_volume_pages", "Data pages per shard volume.",
		samples(func(sm shard.ShardMetrics) float64 { return float64(sm.Pages) }))
	labeledCounter(b, "pathdb_shard_degraded_hits_total",
		"Queries a shard failed with a tolerable storage fault (absorbed by the quorum policy).",
		samples(func(sm shard.ShardMetrics) float64 { return float64(sm.DegradedHits) }))
	for _, d := range derivedSeries {
		labeledCounter(b, d.name, d.help+" (per shard)", samples(func(sm shard.ShardMetrics) float64 { return float64(d.v(sm.Derived)) }))
	}
	ring := rt.cluster.Ring()
	labeledGauge(b, "pathdb_shard_degraded", "1 while the shard is marked degraded on the ring.",
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
		labeledGauge(b, "pathdb_tenant_inflight", "Requests currently admitted per tenant.",
			tsamples(func(t shard.TenantStat) float64 { return float64(t.InFlight) }))
		labeledCounter(b, "pathdb_tenant_admitted_total", "Requests admitted per tenant.",
			tsamples(func(t shard.TenantStat) float64 { return float64(t.Admitted) }))
		labeledCounter(b, "pathdb_tenant_shed_total", "Requests answered 429 per tenant (quota exhausted).",
			tsamples(func(t shard.TenantStat) float64 { return float64(t.Shed) }))
	}

	gauge(b, "pathdb_cluster_shards", "Shards served by this router.", float64(rt.cluster.Shards()))
	counter(b, "pathdb_server_partial_total", "Query requests answered 200 with a partial (degraded-shard) result.", float64(rt.partials.Load()))
	counter(b, "pathdb_server_quota_shed_total", "Requests answered 429 (per-tenant quota).", float64(rt.quotaShed.Load()))
}
