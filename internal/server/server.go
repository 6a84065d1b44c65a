package server

import (
	"context"
	"fmt"
	"net/http"
	"strings"
	"time"

	"pathdb"
)

// Server is the front end over one engine. Create with New, mount it as an
// http.Handler, and call Shutdown to drain.
type Server struct {
	*front
	db  *pathdb.DB
	eng *pathdb.Engine
	ses *pathdb.Session
}

// New builds a server over db's engine. The engine must outlive the
// server; Shutdown closes it.
func New(db *pathdb.DB, eng *pathdb.Engine, opts Options) *Server {
	s := &Server{db: db, eng: eng, ses: eng.NewSession()}
	s.front = newFront(s, opts)
	return s
}

// QueryResponse is the POST /v1/query result body.
type QueryResponse struct {
	Path      string     `json:"path"`
	Count     int        `json:"count"`
	Strategy  string     `json:"strategy"`
	Shared    bool       `json:"shared"`
	Gang      int        `json:"gang"`
	Nodes     []NodeJSON `json:"nodes,omitempty"`
	Truncated bool       `json:"truncated,omitempty"`

	// Choice surfaces the cost model's decision when the query ran under
	// the auto strategy: the strategy it picked, the estimated cluster
	// coverage that drove the pick, and the virtual cost estimated for
	// each candidate operator. Absent when a strategy was forced.
	Choice *ChoiceJSON `json:"choice,omitempty"`

	// Virtual costs (calibrated cost model, machine independent) and the
	// wall-clock split, all in nanoseconds.
	CostVNs          int64 `json:"cost_v_ns"`
	CPUVNs           int64 `json:"cpu_v_ns"`
	IOWaitVNs        int64 `json:"iowait_v_ns"`
	SharedVNs        int64 `json:"shared_v_ns,omitempty"`
	VirtualLatencyNs int64 `json:"virtual_latency_ns"`
	WallQueueNs      int64 `json:"wall_queue_ns"`
	WallExecNs       int64 `json:"wall_exec_ns"`
}

// ChoiceJSON is the cost-model decision echoed in a QueryResponse.
type ChoiceJSON struct {
	ChosenStrategy string  `json:"chosen_strategy"`
	Coverage       float64 `json:"coverage"`
	Residency      float64 `json:"residency"`
	PagesTouched   int     `json:"pages_touched"`
	ScheduleCostNs int64   `json:"schedule_cost_ns"`
	ScanCostNs     int64   `json:"scan_cost_ns"`
	SimpleCostNs   int64   `json:"simple_cost_ns"`
	// PredEval is the predicate evaluator the path runs with, "join" or
	// "nested" ("nested" too for a path without predicates).
	PredEval string `json:"pred_eval"`
}

// UpdateResponse is the POST /v1/update result body.
type UpdateResponse struct {
	Op       string    `json:"op"`
	Inserted *NodeJSON `json:"inserted,omitempty"` // the fragment root (insert)
	Deleted  int       `json:"deleted"`            // nodes removed (delete)
	// Epoch is the volume version current after the commit.
	Epoch uint64 `json:"epoch"`
	// CommitWallNs is the wall-clock time of the whole transaction —
	// staging plus the group-commit acknowledgement (under concurrent
	// writers, dominated by the shared WAL flush window).
	CommitWallNs int64 `json:"commit_wall_ns"`
}

func (s *Server) checkFragment(xml string) error { return s.db.CheckFragment(xml) }

func (s *Server) admit(http.ResponseWriter, *http.Request) bool { return true }
func (s *Server) release(*http.Request)                         {}

// query runs the path with non-blocking admission and echoes at most
// min(limit, MaxNodes) nodes.
func (s *Server) query(ctx context.Context, req QueryRequest, opts pathdb.QueryOptions) (any, bool, error) {
	res, err := s.ses.TryDo(ctx, req.Path, opts)
	if err != nil {
		return nil, false, err
	}
	out := QueryResponse{
		Path:             req.Path,
		Count:            res.Count(),
		Strategy:         res.Strategy.String(),
		Shared:           res.Shared,
		Gang:             res.Gang,
		CostVNs:          int64(res.CostV),
		CPUVNs:           int64(res.CPUV),
		IOWaitVNs:        int64(res.IOWaitV),
		SharedVNs:        int64(res.SharedV),
		VirtualLatencyNs: int64(res.VirtualLatency),
		WallQueueNs:      res.WallQueue.Nanoseconds(),
		WallExecNs:       res.WallExec.Nanoseconds(),
	}
	if c := res.Choice; c != nil {
		out.Choice = &ChoiceJSON{
			ChosenStrategy: c.Strategy.String(),
			Coverage:       c.Coverage,
			Residency:      c.Residency,
			PagesTouched:   c.PagesTouched,
			ScheduleCostNs: int64(c.ScheduleCost),
			ScanCostNs:     int64(c.ScanCost),
			SimpleCostNs:   int64(c.SimpleCost),
			PredEval:       c.PredEval.String(),
		}
	}
	if limit := min(req.Limit, s.opts.MaxNodes, len(res.Nodes)); limit > 0 {
		out.Nodes = make([]NodeJSON, limit)
		for i := range out.Nodes {
			out.Nodes[i] = nodeJSON(res.Nodes[i], 0)
		}
		out.Truncated = limit < len(res.Nodes)
	}
	return out, false, nil
}

func (s *Server) open(ctx context.Context, path string, opts pathdb.QueryOptions) (nodeCursor, error) {
	cur, err := s.ses.TryStream(ctx, path, opts)
	if err != nil {
		return nil, err
	}
	return volumeCursor{cur}, nil
}

// insert resolves the parent path (it must match exactly one node) and
// commits the fragment under it.
func (s *Server) insert(ctx context.Context, parent, xml string) (any, error) {
	res, err := s.ses.TryDo(ctx, parent, pathdb.QueryOptions{})
	if err != nil {
		return nil, err
	}
	if res.Count() != 1 {
		return nil, requestError(fmt.Sprintf("parent path %q matches %d nodes; need exactly 1", parent, res.Count()))
	}
	start := time.Now()
	var node pathdb.Node
	err = s.eng.Update(func(tx *pathdb.Tx) error {
		n, err := tx.InsertXML(res.Nodes[0], xml)
		node = n
		return err
	})
	if err != nil {
		return nil, err
	}
	n := nodeJSON(node, 0)
	return UpdateResponse{
		Op:           "insert",
		Inserted:     &n,
		Epoch:        s.db.TxnMetrics().Epoch,
		CommitWallNs: time.Since(start).Nanoseconds(),
	}, nil
}

// delete resolves the path and removes every match in one transaction
// (zero matches commit nothing and answer deleted: 0).
func (s *Server) delete(ctx context.Context, path string) (any, error) {
	res, err := s.ses.TryDo(ctx, path, pathdb.QueryOptions{})
	if err != nil {
		return nil, err
	}
	start := time.Now()
	if res.Count() > 0 {
		err = s.eng.Update(func(tx *pathdb.Tx) error {
			for _, n := range res.Nodes {
				if err := tx.Delete(n); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	return UpdateResponse{
		Op:           "delete",
		Deleted:      res.Count(),
		Epoch:        s.db.TxnMetrics().Epoch,
		CommitWallNs: time.Since(start).Nanoseconds(),
	}, nil
}

// metrics emits the engine's admission/dispatch counters, the transaction
// counters and the volume's full cost ledger under the stable names
// stats.Ledger.Named exports.
func (s *Server) metrics(b *strings.Builder) {
	m := s.eng.Metrics()
	counter(b, "pathdb_engine_submitted_total", "Queries admitted by the engine.", float64(m.Submitted))
	counter(b, "pathdb_engine_rejected_total", "Submissions shed because the admission queue was full.", float64(m.Rejected))
	counter(b, "pathdb_engine_completed_total", "Queries finished without error.", float64(m.Completed))
	counter(b, "pathdb_engine_cancelled_total", "Queries failed with a context error (deadline or disconnect).", float64(m.Cancelled))
	counter(b, "pathdb_engine_gangs_total", "Dispatcher batches executed.", float64(m.Gangs))
	counter(b, "pathdb_engine_batched_total", "Queries that ran on a gang-shared I/O scheduler.", float64(m.Batched))
	counter(b, "pathdb_engine_faulted_total", "Queries failed by a storage page fault (I/O or corruption).", float64(m.Faulted))
	counter(b, "pathdb_engine_updates_total", "Write transactions admitted by the engine.", float64(m.Updates))
	counter(b, "pathdb_engine_overhead_virtual_seconds_total", "Virtual time spent on dispatch bookkeeping.", m.OverheadV.Seconds())

	// Transaction subsystem: commit/abort outcomes and the group-commit
	// shape (flushes per commit < 1 means concurrent writers batched onto
	// shared WAL flushes).
	tm := s.eng.TxnMetrics()
	counter(b, "pathdb_txn_commits_total", "Transactions committed.", float64(tm.Commits))
	counter(b, "pathdb_txn_aborts_total", "Transactions rolled back.", float64(tm.Aborts))
	counter(b, "pathdb_txn_groups_total", "Commit groups flushed to the WAL.", float64(tm.Groups))
	counter(b, "pathdb_txn_wal_flushes_total", "WAL page writes across all commit groups.", float64(tm.Flushes))
	gauge(b, "pathdb_txn_max_group_size", "Largest commit group observed.", float64(tm.MaxGroup))
	gauge(b, "pathdb_txn_flushes_per_commit", "WAL flushes divided by commits (group commit drives it below 1).", tm.FlushesPerCommit)
	gauge(b, "pathdb_txn_epoch", "Current published volume version.", float64(tm.Epoch))
	gauge(b, "pathdb_txn_pinned_snapshots", "Snapshots currently pinned by readers.", float64(tm.Pinned))
	gauge(b, "pathdb_txn_free_pages", "Reclaimed pages awaiting reuse.", float64(tm.FreePage))

	// The whole cost ledger, one series per field. Virtual clocks (the
	// "_ns" names) become seconds; event counts stay raw.
	led := s.eng.CostLedger()
	for _, nv := range led.Named() {
		if base, ok := strings.CutSuffix(nv.Name, "_ns"); ok {
			counter(b, "pathdb_ledger_"+base+"_virtual_seconds_total",
				"Virtual clock \""+nv.Name+"\" of the volume cost ledger.", float64(nv.Value)/1e9)
			continue
		}
		counter(b, "pathdb_ledger_"+nv.Name+"_total",
			"Counter \""+nv.Name+"\" of the volume cost ledger.", float64(nv.Value))
	}
	gauge(b, "pathdb_volume_pages", "Data pages of the loaded volume.", float64(s.db.Pages()))
	dm := s.db.DerivedMetrics()
	for _, d := range derivedSeries {
		counter(b, d.name, d.help, float64(d.v(dm)))
	}
}

func (s *Server) health() string                     { return "ok" }
func (s *Server) shutdown(ctx context.Context) error { return s.eng.Shutdown(ctx) }
func (s *Server) close()                             { s.eng.Close() }
