package pathdb

import (
	"context"
	"fmt"
	"time"

	"pathdb/internal/core"
	"pathdb/internal/engine"
	"pathdb/internal/stats"
	"pathdb/internal/xpath"
)

// Typed engine errors. Callers (and the HTTP server's status-code mapping)
// classify failures with errors.Is against these sentinels instead of
// string-matching internal errors.
var (
	// ErrOverloaded is the admission-control rejection: the engine's queue
	// is at QueueDepth and the submission chose not to wait (TryDo). It
	// wraps the internal engine.ErrQueueFull, so errors.Is sees both.
	ErrOverloaded = fmt.Errorf("pathdb: engine overloaded: %w", engine.ErrQueueFull)
	// ErrClosed is returned for queries submitted to (or stranded in) an
	// engine that has been closed or is draining.
	ErrClosed = fmt.Errorf("pathdb: engine closed: %w", engine.ErrClosed)
)

// EngineConfig tunes the concurrent engine's admission control.
type EngineConfig struct {
	// MaxInFlight caps how many admitted queries execute together as one
	// gang, sharing the I/O scheduler where possible (default 8); a union's
	// branches are never split across gangs.
	MaxInFlight int
	// QueueDepth bounds the admission queue, in queries or whole unions:
	// TryDo beyond it is rejected, Do blocks (default 64).
	QueueDepth int
	// Parallel is ignored: the engine executes every gang on its one
	// dispatcher goroutine. The field is kept so existing configurations
	// compile.
	Parallel int
}

// Engine serves queries submitted from many goroutines against one loaded
// document — the concurrent counterpart of DB.Query. Open sessions with
// NewSession; Close shuts the dispatcher down.
//
// See internal/engine for the execution model: submissions are admitted
// into a bounded queue and gathered into gangs by a single dispatcher, which
// executes each gang itself over read-only storage views, with compatible
// XSchedule plans batched onto one shared scheduler so the asynchronous I/O
// layer reorders cluster loads across query boundaries. Every query pays
// its costs on a private virtual clock that is folded into the volume clock
// at completion.
type Engine struct {
	// The engine's write/transaction surface is the same volumeAPI the DB
	// embeds, parameterized with the engine's write-admission hook: Update
	// through an Engine respects drain/close and is waited for by
	// shutdown, but the transaction semantics cannot drift from DB.Update.
	volumeAPI

	db *DB
	e  *engine.Engine
}

// NewEngine starts a concurrent engine over the document, sharing the DB's
// cost-model chooser and transaction manager. The DB's blocking queries
// may run beside it: they pin their own snapshots and charge their own
// ledgers. Their virtual costs then depend on what the engine's gangs do
// on the shared device at the same time.
func (db *DB) NewEngine(cfg EngineConfig) *Engine {
	e := &Engine{
		db: db,
		e: engine.New(db.store, engine.Config{
			MaxInFlight: cfg.MaxInFlight,
			QueueDepth:  cfg.QueueDepth,
			// Each gang pins one MVCC snapshot for all its members, so
			// concurrent Updates never tear a gang's reads (see txn.go).
			Snapshots: func() engine.Snapshot { return db.mgr.Snapshot() },
			// Share the facade's chooser (concurrency-safe) so the volume
			// collects document statistics exactly once.
			Chooser: db.chooser,
		}),
	}
	e.volumeAPI = volumeAPI{vol: db, admit: e.e.AdmitWrite}
	return e
}

// Close stops the engine; queries still queued fail with ErrClosed.
func (e *Engine) Close() { e.e.Close() }

// Shutdown drains the engine gracefully: admission stops immediately (new
// submissions fail with ErrClosed), every query already admitted — queued
// or in flight — runs to completion, then the dispatcher exits. If ctx
// expires first the engine hard-closes (remaining queued queries fail with
// ErrClosed) and Shutdown returns the context's error.
func (e *Engine) Shutdown(ctx context.Context) error {
	return wrapErr("shutdown", "", e.e.Drain(ctx))
}

// Draining reports whether the engine has stopped admitting queries
// (Shutdown or Close has begun).
func (e *Engine) Draining() bool { return e.e.Draining() }

// CostLedger returns an atomic snapshot of the volume's cost ledger — the
// clocks and physical counters accumulated by every query since the last
// ResetStats. stats.Ledger.Named enumerates the fields under stable
// exported names; the HTTP server's /metrics endpoint is built on it.
func (e *Engine) CostLedger() stats.Ledger { return e.db.store.Ledger().Snapshot() }

// EngineMetrics is a snapshot of the engine's counters.
type EngineMetrics struct {
	Submitted int64       // admitted queries
	Rejected  int64       // admission-queue rejections
	Completed int64       // finished without error
	Cancelled int64       // failed with a context error
	Gangs     int64       // dispatcher batches executed
	Batched   int64       // queries that ran on a gang-shared scheduler
	Faulted   int64       // queries failed by a page fault (I/O or corruption)
	Updates   int64       // write transactions admitted
	OverheadV stats.Ticks // virtual time spent on dispatch bookkeeping
}

// Metrics returns a snapshot of the engine's counters.
func (e *Engine) Metrics() EngineMetrics {
	m := e.e.Metrics()
	return EngineMetrics{
		Submitted: m.Submitted,
		Rejected:  m.Rejected,
		Completed: m.Completed,
		Cancelled: m.Cancelled,
		Gangs:     m.Gangs,
		Batched:   m.Batched,
		Faulted:   m.Faulted,
		Updates:   m.Updates,
		OverheadV: m.OverheadV,
	}
}

// NewSession opens a submission handle. Sessions are cheap; give each
// client goroutine its own.
func (e *Engine) NewSession() *Session { return &Session{eng: e, s: e.e.NewSession()} }

// Session submits queries to an Engine. Its methods are safe for
// concurrent use.
type Session struct {
	eng *Engine
	s   *engine.Session
}

// QueryOptions tunes one query. It is the single options struct for every
// evaluation surface — Session.Do/TryDo/Stream/TryStream, DB.QueryCtx and
// DB.QueryStream — so callers plumb one value instead of per-call-site
// flags.
type QueryOptions struct {
	// Strategy forces a physical strategy (default Auto: the cost model
	// decides per query).
	Strategy Strategy
	// Sorted requests results in document order. A plan that yields
	// document order by itself — a Simple plan whose path shape keeps it —
	// streams as it produces; any other sorted result must be fully
	// evaluated before the first node is delivered (order enforcement
	// buffers at the producer), trading time-to-first-result for ordering.
	Sorted bool
	// MemLimit bounds the speculative structure S (0 = unlimited).
	MemLimit int
	// Timeout, when positive, bounds the whole evaluation (queue wait
	// included): the query fails with ErrTimeout when it expires. It
	// composes with the caller's context — whichever deadline is sooner
	// wins.
	Timeout time.Duration
	// Limit caps the result at N nodes (0 = unlimited). Streaming
	// evaluation (unsorted, or sorted over an ordered plan) stops pulling
	// the operator tree after N matches; order-enforced evaluation sees
	// everything, sorts, and keeps the first N in document order.
	Limit int
	// PredEval forces the predicate evaluator (default PredAuto: the
	// structural semi-join when its levels fit the derived cache,
	// per-candidate probing otherwise).
	PredEval PredEval
}

// context derives the evaluation context: the caller's ctx, additionally
// bounded by opts.Timeout when set. The returned cancel must always be
// called.
func (opts QueryOptions) context(ctx context.Context) (context.Context, context.CancelFunc) {
	if ctx == nil {
		ctx = context.Background()
	}
	if opts.Timeout > 0 {
		return context.WithTimeout(ctx, opts.Timeout)
	}
	return context.WithCancel(ctx)
}

// ExecResult is the outcome of one engine query.
type ExecResult struct {
	Nodes    []Node
	Strategy Strategy // resolved strategy (meaningful when Auto was used)
	Shared   bool     // ran on a gang-shared scheduler (batched I/O)
	Gang     int      // gang size this query executed in

	// Choice is the cost model's full decision — strategy, coverage and
	// per-candidate cost estimates. Nil when a strategy was forced (the
	// model never ran). Union queries report the first branch's choice.
	Choice *PlanChoice

	// VirtualLatency is submit-to-done on the volume's virtual clock.
	VirtualLatency stats.Ticks
	// CostV is the query's own elapsed virtual time (CPUV + IOWaitV),
	// measured on its private ledger — deterministic on a warm buffer
	// regardless of the gang it ran in; a union's sums its branches'.
	// SharedV is the clock of the gang-shared scheduler the query's
	// branches pooled in (its prefetch I/O, counted once; zero for solo
	// runs).
	CostV   stats.Ticks
	CPUV    stats.Ticks
	IOWaitV stats.Ticks
	SharedV stats.Ticks
	// WallQueue and WallExec split the real (simulation) latency into
	// time queued and time executing.
	WallQueue time.Duration
	WallExec  time.Duration
}

// Count returns the result cardinality.
func (r *ExecResult) Count() int { return len(r.Nodes) }

func fromCore(s core.Strategy) Strategy {
	switch s {
	case core.StrategySimple:
		return Simple
	case core.StrategyScan:
		return Scan
	default:
		return Schedule
	}
}

// Do evaluates an absolute location path (or a '|' union of paths) through
// the engine, blocking until the result is ready or ctx is done.
// Cancelling ctx abandons the query: if still queued it never runs, if
// running it stops at the next operator poll point. A full admission queue
// makes Do wait (backpressure); use TryDo to shed instead.
//
// Do is sugar over the cursor: it opens one over queries that buffer their
// result in the engine (so they may join a gang-shared scheduler) and
// drains it.
func (s *Session) Do(ctx context.Context, path string, opts QueryOptions) (ExecResult, error) {
	return s.drain(ctx, path, opts, false)
}

// TryDo is Do with non-blocking admission: when the engine's queue is at
// QueueDepth it fails immediately with ErrOverloaded instead of waiting —
// the load-shedding half of admission control, which a front end maps to
// "try again later". A union is admitted or shed whole.
func (s *Session) TryDo(ctx context.Context, path string, opts QueryOptions) (ExecResult, error) {
	return s.drain(ctx, path, opts, true)
}

func (s *Session) drain(ctx context.Context, path string, opts QueryOptions, try bool) (ExecResult, error) {
	c, err := s.stream(ctx, path, opts, try, false)
	if err != nil {
		return ExecResult{}, err
	}
	defer c.Close()
	return c.Drain()
}

// branchQueries maps a query's union branches onto the engine queries every
// surface runs. live requests incremental delivery; a sorted union never
// streams. A plain path is ordered inside its plan. A sorted union carries
// no per-branch Limit: its global document order — and so its first N —
// only exists once the cursor has merged every branch.
func (opts QueryOptions) branchQueries(branches [][]xpath.Step, live bool) []engine.Query {
	union := len(branches) > 1
	queries := make([]engine.Query, len(branches))
	for i, path := range branches {
		queries[i] = engine.Query{Path: path, Auto: opts.Strategy == Auto, Strategy: opts.Strategy.internal(),
			Sorted: opts.Sorted && !union, MemLimit: opts.MemLimit, Limit: opts.Limit, PredEval: opts.PredEval.internal(),
			Stream: live && !(opts.Sorted && union)}
		if opts.Sorted && union {
			queries[i].Limit = 0
		}
	}
	return queries
}
