package core

import (
	"context"

	"pathdb/internal/stats"
	"pathdb/internal/storage"
	"pathdb/internal/xpath"
)

// EvalState is the per-query evaluation context shared by the operators of
// one plan: the store, the location path, and the memory-pressure fallback
// switch of Sec. 5.4.6.
type EvalState struct {
	Store *storage.Store
	Path  []xpath.Step // Path[i-1] is location step πᵢ

	// levelsKey, when set, names the derived-cache entry of the candidate
	// set the plan reads its whole path from levels with (Levels).
	levelsKey string

	// Ctx, when non-nil, carries the query's deadline and cancellation.
	// The I/O-performing operators poll it between productions and end
	// their streams early once it is done; the caller distinguishes a
	// cancelled run from an exhausted one via Ctx.Err.
	Ctx context.Context

	// MemLimit bounds the number of speculative instances XAssembly may
	// hold in S; 0 means unlimited. When exceeded, the plan degrades to
	// fallback mode: S is discarded, the XStep chain crosses borders like
	// plain Unnest-Maps, XSchedule stops speculating and XScan restarts
	// its producer.
	MemLimit int

	// Arena, when non-nil, supplies pooled scratch structures to the
	// plan's operators (borrowed at Open, returned at Close). Exactly one
	// running plan may use an arena at a time.
	Arena *Arena

	fallback bool
}

// NewEvalState builds the shared state for evaluating path over store.
func NewEvalState(store *storage.Store, path []xpath.Step) *EvalState {
	return &EvalState{Store: store, Path: path}
}

// Len returns |π|.
func (es *EvalState) Len() int { return len(es.Path) }

// Cancelled reports whether the query's context has been cancelled or has
// exceeded its deadline. It is cooperative-cancellation's poll point:
// cheap enough for operator Next loops (one atomic load inside ctx).
func (es *EvalState) Cancelled() bool {
	return es.Ctx != nil && es.Ctx.Err() != nil
}

// Fallback reports whether the plan has degraded to fallback mode.
func (es *EvalState) Fallback() bool { return es.fallback }

// EnterFallback switches the plan to fallback mode (idempotent).
func (es *EvalState) EnterFallback() {
	if !es.fallback {
		es.fallback = true
		stats.Inc(&es.Store.Ledger().FallbackEvents)
	}
}

func (es *EvalState) ledger() *stats.Ledger { return es.Store.Ledger() }

func (es *EvalState) chargeTuple() {
	led := es.ledger()
	stats.Inc(&led.TuplesMoved)
	led.AdvanceCPU(es.Store.Disk().Model().CPUTupleMove)
}

func (es *EvalState) chargeSetOp(n int) {
	led := es.ledger()
	led.AdvanceCPU(stats.Ticks(n) * es.Store.Disk().Model().CPUSetOp)
}

// ContextOp is the leaf operator enumerating context nodes as non-full,
// complete path instances with S_L = S_R = 0.
type ContextOp struct {
	es  *EvalState
	ids []storage.NodeID
	pos int
}

// NewContextOp returns a context operator over the given nodes. For XScan
// plans the ids must be sorted by cluster; SortContexts does that.
func NewContextOp(es *EvalState, ids []storage.NodeID) *ContextOp {
	return &ContextOp{es: es, ids: ids}
}

// SortContexts orders context NodeIDs by cluster id (XScan's input
// requirement, Sec. 5.4.3.1).
func SortContexts(ids []storage.NodeID) {
	for i := 1; i < len(ids); i++ {
		for j := i; j > 0 && ids[j-1].Page() > ids[j].Page(); j-- {
			ids[j-1], ids[j] = ids[j], ids[j-1]
		}
	}
}

// Open resets the enumeration.
func (c *ContextOp) Open() { c.pos = 0 }

// Next emits the next context instance.
func (c *ContextOp) Next() (Instance, bool) {
	if c.pos >= len(c.ids) {
		return Instance{}, false
	}
	id := c.ids[c.pos]
	c.pos++
	c.es.chargeTuple()
	return ContextInstance(id), true
}

// Close releases nothing; contexts are caller-owned.
func (c *ContextOp) Close() {}

// Rewind restarts the enumeration (used by XScan's fallback, Sec. 5.4.6).
func (c *ContextOp) Rewind() { c.pos = 0 }
