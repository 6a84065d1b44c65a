// Package engine serves many submitting sessions against one volume with a
// single-threaded cost-model executor.
//
// The paper gets its overlap from one source: XSchedule feeds an
// asynchronous device queue that reorders cluster loads (Sec. 3.7). This
// package extends that across query boundaries, along the lines of the
// paper's outlook (Sec. 7): several sessions submit queries, admission
// control bounds the work in flight, and the cluster requests of XSchedule
// plans admitted together pool in the one device queue (core.MultiPlan).
//
// Execution model — one dispatcher. Any number of goroutines submit into a
// bounded admission queue, a query or a union's branches as one unit; a
// single dispatcher goroutine drains it in gangs of whole units and runs
// each gang itself (runGang): the batchable members together as one shared
// group (a MultiPlan), then every other member solo, in submission order,
// each through a Branch. The pathdb facade runs a drained direct union the
// same way on the caller's goroutine (Exec). A streaming query holds the
// dispatcher only while its consumer lags a full sink block behind.
//
// Cost accounting. Each query runs against a read-only storage view
// (storage.Store.Reader) with its own stats.Ledger: the query's CPU charges
// and I/O waits advance a private virtual clock seeded at the device's
// instant when the query starts. A shared group additionally owns a group
// ledger that pays for the pooled scheduler I/O. At completion every ledger
// is folded into the volume ledger (stats.Ledger.Merge). With a warm buffer
// a solo member costs what the same plan costs outside the engine, and a
// shared member what it costs on the same MultiPlan outside the engine.
//
// Cancellation. Every query carries a context.Context. A query cancelled
// while queued never executes; one cancelled mid-execution stops at the
// next operator poll point, and its in-flight cluster prefetches are
// cancelled (per-view, so its gang-mates keep theirs) so they cannot leak
// into subsequent queries.
package engine

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"pathdb/internal/core"
	"pathdb/internal/plan"
	"pathdb/internal/stats"
	"pathdb/internal/storage"
	"pathdb/internal/xpath"
)

// Engine errors.
var (
	// ErrClosed is returned for queries submitted to (or stranded in) a
	// closed engine.
	ErrClosed = errors.New("engine: closed")
	// ErrQueueFull is the admission-control rejection: the queue is at
	// QueueDepth and the caller chose not to wait (TrySubmit).
	ErrQueueFull = errors.New("engine: admission queue full")
)

// A Snapshot pins one version of the volume for the duration of a gang:
// every view opened from it resolves pages through the same immutable
// version map, so concurrent commits never tear an executing query.
type Snapshot interface {
	// View opens a read view of the pinned version, charging to led.
	View(led *stats.Ledger) *storage.Store
	// Epoch identifies the pinned version.
	Epoch() uint64
	// Release unpins the version, allowing superseded pages to be
	// reclaimed. The engine calls it once per snapshot.
	Release()
}

// Config tunes the engine's admission control.
type Config struct {
	// MaxInFlight caps the gang size: how many admitted queries execute
	// together, sharing the I/O scheduler where possible. A union is never
	// split: a gang takes its first unit whole and further units while it
	// has fewer members than this. Default 8.
	MaxInFlight int
	// QueueDepth bounds the admission queue in units (a union is one);
	// TrySubmit beyond it returns ErrQueueFull, Submit blocks. Default 64.
	QueueDepth int
	// Snapshots, when set, pins one version per gang: every member view
	// resolves pages through it, isolating queries from concurrent
	// commits. The pathdb facade sets it to its txn manager's Snapshot.
	// Nil falls back to a view pinned at gang start, with no pin that
	// holds its pages back from reclamation.
	Snapshots func() Snapshot
	// Chooser, when set, is an existing cost chooser to share (it is
	// concurrency-safe) instead of building a second one at construction.
	// The facade passes its own so a DB keeps one set of statistics.
	Chooser *plan.Chooser
}

func (c Config) withDefaults() Config {
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = 8
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	return c
}

// Query is one unit of admitted work.
type Query struct {
	// Path is the simplified physical step list.
	Path []xpath.Step
	// Contexts are the context nodes; nil means the volume roots.
	Contexts []storage.NodeID
	// Auto asks the cost model to choose the strategy; otherwise Strategy
	// is used as given.
	Auto     bool
	Strategy core.Strategy
	// Sorted requests document-order results. A plan that yields document
	// order by itself (core.Plan.Ordered) delivers them as it produces them;
	// any other is order-enforced inside the plan (core.PlanOptions.
	// SortResults): its final sort sees every match before the first leaves.
	Sorted bool
	// MemLimit bounds the speculative structure S (0 = unlimited).
	MemLimit int
	// Limit caps delivered results at N (0 = unlimited): the query stops
	// pulling its plan after N matches — the first N in document order when
	// Sorted.
	Limit int
	// Stream delivers results incrementally through Pending.C instead of
	// buffering them in Result.Results. Streaming queries always run solo
	// (never on a gang-shared scheduler): their production is paced by the
	// consumer, and parking a shared group's pooled I/O behind a slow
	// consumer would stall the other members.
	Stream bool
	// PredEval forces the predicate evaluator; PredAuto leaves it to the
	// plan (core.AutoPredEval on the query's view).
	PredEval core.PredEval
}

// Result is the outcome of one executed query.
type Result struct {
	Results  []core.Result
	Strategy core.Strategy
	Choice   *plan.Choice // cost-model decision when Auto was set

	Gang   int  // how many queries executed in this query's gang
	Shared bool // ran on a gang-shared scheduler (batched I/O)

	// Per-query virtual costs, measured on the query's private ledger.
	// CostV = CPUV + IOWaitV is the query's own elapsed virtual time; with
	// a warm buffer it is deterministic and equal to a serial run of the
	// same query. SharedV is this query's group-scheduler clock (pooled
	// prefetch I/O paid once per shared group; the same value is reported
	// to every member, zero for solo runs).
	CostV   stats.Ticks
	CPUV    stats.Ticks
	IOWaitV stats.Ticks
	SharedV stats.Ticks

	// Virtual stamps on the volume clock (which advances as per-query
	// ledgers merge into it at completion).
	SubmitV stats.Ticks
	StartV  stats.Ticks
	DoneV   stats.Ticks

	// Wall-clock components (the simulation's real cost).
	WallQueue time.Duration
	WallExec  time.Duration
}

// Count returns the result cardinality.
func (r *Result) Count() int { return len(r.Results) }

// Metrics is a snapshot of the engine's counters.
type Metrics struct {
	Submitted int64       // admitted queries
	Rejected  int64       // ErrQueueFull rejections
	Completed int64       // finished without error
	Cancelled int64       // failed with a context error
	Gangs     int64       // dispatcher batches executed
	Batched   int64       // queries that ran on a shared scheduler
	Faulted   int64       // queries failed by a storage page fault (I/O or corruption)
	Updates   int64       // write transactions admitted via AdmitWrite
	OverheadV stats.Ticks // virtual CPU spent on admission/dispatch bookkeeping
}

// Engine owns the dispatcher for one volume. Create with New, then open
// sessions with NewSession; Close shuts the dispatcher down.
type Engine struct {
	store   *storage.Store
	chooser *plan.Chooser
	cfg     Config

	queue chan []*Pending // admitted units: a query, or a union's branches
	stop  chan struct{}
	drain chan struct{}
	wg    sync.WaitGroup

	// admit guards the submission fast path (read side) against shutdown
	// (write side): Close/Drain flip closed under the write lock, so once
	// either returns no goroutine can still be mid-send on queue and a
	// final sweep of the queue cannot strand a Pending.
	admit     sync.RWMutex
	closed    atomic.Bool
	drainOnce sync.Once
	stopOnce  sync.Once

	// overhead is charged for admission and dispatch bookkeeping, separate
	// from the volume clock that queries pay.
	overhead stats.Ledger

	// writers tracks admitted write transactions so shutdown waits for
	// them the way it waits for the in-flight gang.
	writers sync.WaitGroup

	submitted atomic.Int64
	rejected  atomic.Int64
	completed atomic.Int64
	cancelled atomic.Int64
	gangs     atomic.Int64
	batched   atomic.Int64
	faulted   atomic.Int64
	updates   atomic.Int64
}

// New builds an engine over store and starts its dispatcher. Unless cfg
// brings a chooser, it builds one from the store's cluster synopses.
func New(store *storage.Store, cfg Config) *Engine {
	cfg = cfg.withDefaults()
	chooser := cfg.Chooser
	if chooser == nil {
		chooser = plan.NewChooser(store)
	}
	e := &Engine{
		store:   store,
		chooser: chooser,
		cfg:     cfg,
		queue:   make(chan []*Pending, cfg.QueueDepth),
		stop:    make(chan struct{}),
		drain:   make(chan struct{}),
	}
	e.wg.Add(1)
	go e.run()
	return e
}

// Store returns the engine's volume.
func (e *Engine) Store() *storage.Store { return e.store }

// Metrics returns a snapshot of the engine's counters.
func (e *Engine) Metrics() Metrics {
	return Metrics{
		Submitted: e.submitted.Load(),
		Rejected:  e.rejected.Load(),
		Completed: e.completed.Load(),
		Cancelled: e.cancelled.Load(),
		Gangs:     e.gangs.Load(),
		Batched:   e.batched.Load(),
		Faulted:   e.faulted.Load(),
		Updates:   e.updates.Load(),
		OverheadV: e.overhead.Total(),
	}
}

// AdmitWrite admits one write transaction: it fails with ErrClosed once
// the engine is draining, and otherwise registers the writer so Drain and
// Close wait for it like they wait for the in-flight gang. The returned
// release must be called exactly once, when the write has committed or
// aborted.
func (e *Engine) AdmitWrite() (release func(), err error) {
	e.admit.RLock()
	defer e.admit.RUnlock()
	if e.closed.Load() {
		return nil, ErrClosed
	}
	e.writers.Add(1)
	e.updates.Add(1)
	var once sync.Once
	return func() { once.Do(e.writers.Done) }, nil
}

// Close stops the dispatcher, failing queries still queued with ErrClosed.
// Submissions racing Close fail with ErrClosed as well. Close waits for the
// in-flight gang to finish.
func (e *Engine) Close() {
	e.shutAdmission()
	e.stopOnce.Do(func() { close(e.stop) })
	e.wg.Wait()
	e.writers.Wait()
	e.failQueued()
}

// Drain stops admission — submissions from here on fail with ErrClosed —
// then lets the dispatcher finish every query already admitted (queued or
// in flight) before stopping it. This is the graceful half of shutdown:
// Close abandons the queue, Drain serves it. If ctx expires first, Drain
// falls back to Close (remaining queued queries fail with ErrClosed) and
// returns the context's error. Draining reports the engine's state to
// callers that shed before submitting.
func (e *Engine) Drain(ctx context.Context) error {
	e.shutAdmission()
	e.drainOnce.Do(func() { close(e.drain) })
	done := make(chan struct{})
	go func() {
		e.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		e.writers.Wait() // admitted writes finish like admitted queries
		e.failQueued()   // a submission that raced shutAdmission
		return nil
	case <-ctx.Done():
		e.Close()
		return ctx.Err()
	}
}

// Draining reports whether the engine has stopped admitting queries.
func (e *Engine) Draining() bool { return e.closed.Load() }

// shutAdmission flips the closed flag under the admission write lock: when
// it returns, every future Submit/TrySubmit observes closed, and no
// goroutine is still between its closed check and its queue send.
func (e *Engine) shutAdmission() {
	e.admit.Lock()
	e.closed.Store(true)
	e.admit.Unlock()
}

// failQueued fails every query still sitting in the admission queue after
// the dispatcher has exited.
func (e *Engine) failQueued() {
	for {
		select {
		case unit := <-e.queue:
			for _, p := range unit {
				p.finish(Result{}, ErrClosed)
			}
		default:
			return
		}
	}
}

// NewSession opens a session. Sessions are cheap handles; each submitting
// goroutine should own one.
func (e *Engine) NewSession() *Session { return &Session{e: e} }

// run is the dispatcher: it drains the admission queue in gangs and executes
// each gang on this goroutine.
func (e *Engine) run() {
	defer e.wg.Done()
	for {
		select {
		case unit := <-e.queue:
			e.execute(e.gather(unit))
		case <-e.stop:
			e.failQueued()
			return
		case <-e.drain:
			// Graceful drain: admission is already closed, so the queue
			// can only shrink. Serve what is left, then exit. A hard stop
			// racing the drain still wins between gangs.
			for {
				select {
				case <-e.stop:
					e.failQueued()
					return
				case unit := <-e.queue:
					e.execute(e.gather(unit))
				default:
					return
				}
			}
		}
	}
}

// gather greedily extends a gang by whole units while it has fewer than
// MaxInFlight members, without waiting: the queries that arrived while the
// previous gang executed batch together. Admit sizes a unit exactly, so
// appending to the first copies it.
func (e *Engine) gather(gang []*Pending) []*Pending {
	for len(gang) < e.cfg.MaxInFlight {
		select {
		case unit := <-e.queue:
			gang = append(gang, unit...)
		default:
			return gang
		}
	}
	return gang
}

// viewOf opens a read view of st charging led: through the pinned snapshot
// when there is one, else pinned to the version current at call time.
func viewOf(st *storage.Store, snap Snapshot, led *stats.Ledger) *storage.Store {
	if snap != nil {
		return snap.View(led)
	}
	return st.SnapshotView(led)
}

// execute runs one gang on the dispatcher (runGang). The whole gang reads
// one pinned snapshot, acquired here and released when every member has
// finished.
func (e *Engine) execute(gang []*Pending) {
	e.gangs.Add(1)
	var snap Snapshot
	if e.cfg.Snapshots != nil {
		snap = e.cfg.Snapshots()
		defer snap.Release()
	}
	// Dispatch bookkeeping is charged to the engine's overhead ledger, one
	// set-op per admitted member, keeping the volume clock pure.
	e.overhead.AdvanceCPU(stats.Ticks(len(gang)) * e.store.Disk().Model().CPUSetOp)

	ms := make([]Member, 0, len(gang))
	for _, p := range gang {
		if err := p.ctx.Err(); err != nil {
			e.cancelled.Add(1)
			p.finish(Result{}, err)
			continue
		}
		strat, choice := e.chooser.Resolve(p.q.Path, p.q.Auto, p.q.Strategy)
		ms = append(ms, Member{Ctx: p.ctx, Query: p.q, Strat: strat, Choice: choice, p: p})
	}
	runGang(e.store, snap, ms)
}

// contextsOf returns q's context nodes, the roots when it names none.
func contextsOf(st *storage.Store, q Query) []storage.NodeID {
	if q.Contexts != nil {
		return q.Contexts
	}
	return st.Roots()
}

// emit appends r to blk, a streaming query's open block, and hands blocks to
// the consumer: the first as soon as the consumer takes it (one match, when
// the consumer is already waiting), later ones when they are full and the
// next match needs room. Only that hand-over waits (back-pressure: the
// producer runs at most one block ahead), so a query of at most streamDepth
// matches never waits on its consumer. emit reports false — stop producing —
// when the query's context is cancelled or the engine is stopping, so an
// abandoned consumer can never wedge the dispatcher.
func (e *Engine) emit(p *Pending, blk []core.Result, r core.Result) ([]core.Result, bool) {
	if len(blk) == streamDepth {
		select {
		case p.sink <- blk:
			blk = nil
		case <-p.ctx.Done():
			return blk, false
		case <-e.stop:
			return blk, false
		}
	}
	if blk == nil {
		blk = newBlock()
	}
	blk = append(blk, r)
	if p.sent++; p.sent == len(blk) {
		// Nothing handed over yet: offer the block without waiting.
		select {
		case p.sink <- blk:
			blk = nil
		default:
		}
	}
	return blk, true
}
