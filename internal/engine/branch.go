package engine

import (
	"context"
	"time"

	"pathdb/internal/core"
	"pathdb/internal/plan"
	"pathdb/internal/stats"
	"pathdb/internal/storage"
)

// Branch runs one query's plan — a single path, or one branch of a union —
// on the calling goroutine: the dispatcher drives a solo gang member through
// one, and the pathdb facade pulls its blocking queries through one. The
// plan reads a view of a pinned snapshot charging a private ledger, seeded
// at the device's instant when the branch starts, and a sorted query's
// document order is enforced inside the plan (the final sort of Sec. 5.5).
// Start may be called again once Stop has returned.
type Branch struct {
	st     *storage.Store // the volume, whose ledger receives the work
	view   *storage.Store
	led    *stats.Ledger
	baseV  stats.Ticks
	ctx    context.Context
	arena  *core.Arena
	plan   *core.Plan    // nil when building it faulted
	root   core.Operator // the plan's root while it is open
	n      int
	limit  int
	done   bool  // production has ended
	clean  bool  // ...by itself: exhausted or at the limit
	err    error // the page fault or context error that ended it
	startW time.Time
	res    Result
}

// Start builds q's plan with the resolved strategy over a view of snap (of
// the current version when snap is nil). A page fault while building ends
// the branch: Next reports false and Stop returns the fault.
func (b *Branch) Start(ctx context.Context, st *storage.Store, snap Snapshot, q Query, strat core.Strategy, choice *plan.Choice) {
	*b = Branch{st: st, led: stats.NewLedger(), ctx: ctx, limit: q.Limit, arena: core.GetArena(), baseV: st.Disk().Clock(), startW: time.Now()}
	b.led.SeedAt(b.baseV)
	b.view = viewOf(st, snap, b.led)
	b.res = Result{Strategy: strat, Choice: choice, StartV: st.Ledger().Total()}
	defer b.fault()
	b.plan = core.BuildPlan(b.view, q.Path, contextsOf(st, q), strat, core.PlanOptions{
		MemLimit:    q.MemLimit,
		Ctx:         ctx,
		Arena:       b.arena,
		SortResults: q.Sorted,
		PredEval:    q.PredEval,
		LevelRead:   choice != nil && choice.LevelRead,
	})
	if choice != nil {
		choice.PredEval, choice.LevelRead = b.plan.PredEval, b.plan.LevelRead()
	}
}

// Plan returns the branch's plan, nil when building it faulted.
func (b *Branch) Plan() *core.Plan { return b.plan }

// Next returns the next match, opening the plan on the first call. It
// reports false once production has ended: the plan is exhausted, Limit is
// reached, the context is done or a page fault was raised below.
func (b *Branch) Next() (r core.Result, ok bool) {
	if b.done {
		return r, false
	}
	defer b.fault()
	if b.root == nil {
		root := b.plan.Root()
		root.Open()
		b.root = root
	}
	inst, ok := b.root.Next()
	if !ok {
		b.end(b.ctx.Err()) // a cancelled plan ends its stream early
		return r, false
	}
	if b.n++; b.n == b.limit {
		b.end(nil)
	}
	return core.Result{Node: inst.NR, Ord: inst.Ord}, true
}

// Stop ends the branch where it stands: it closes the plan, withdraws the
// view's cluster prefetches unless the plan ran to its end — they must not
// surface inside a later query — returns the arena and folds the ledger
// into the volume ledger. The Result carries the strategy, choice, costs
// and the StartV, DoneV and WallExec stamps; the error is what ended
// production early, if anything did.
func (b *Branch) Stop() (Result, error) {
	if !b.done {
		b.end(b.ctx.Err())
		b.clean = false
	}
	if !b.clean {
		b.view.CancelRequests()
	}
	core.PutArena(b.arena)
	b.res.WallExec = time.Since(b.startW)
	fold(b.st, b.led, b.baseV, &b.res)
	return b.res, b.err
}

// end ends production with err (nil: by itself) and closes the plan.
func (b *Branch) end(err error) {
	if !b.done {
		b.done, b.err, b.clean = true, err, err == nil
	}
	if root := b.root; root != nil {
		b.root = nil
		defer b.fault()
		root.Close()
	}
}

// fault turns a page fault raised below the branch into the error that ends
// it; any other panic goes on. It must be deferred directly.
func (b *Branch) fault() {
	if r := recover(); r != nil {
		pe, ok := storage.AsPageFault(r)
		if !ok {
			panic(r)
		}
		if b.done, b.clean = true, false; b.err == nil {
			b.err = pe
		}
		b.end(pe)
	}
}

// fold merges a ledger seeded at baseV into the volume ledger, stamping res
// with the time past the seed — the query's own — and the volume clock
// after the merge.
func fold(st *storage.Store, led *stats.Ledger, baseV stats.Ticks, res *Result) {
	d := led.Sub(clockBase(baseV))
	res.CostV, res.CPUV, res.IOWaitV = d.Now, d.CPU, d.IOWait
	st.Ledger().Merge(d)
	res.DoneV = st.Ledger().Total()
}
