package engine

import (
	"context"
	"time"

	"pathdb/internal/core"
	"pathdb/internal/plan"
	"pathdb/internal/stats"
	"pathdb/internal/storage"
)

// Member is one query of a gang with its strategy resolved: a query the
// dispatcher admitted, or a branch of a union the pathdb facade runs on the
// caller's goroutine (Exec).
type Member struct {
	Ctx    context.Context
	Query  Query
	Strat  core.Strategy
	Choice *plan.Choice // nil when the strategy was forced

	p *Pending // where the outcome goes
}

// batchable reports whether m can join a shared group: it is not a live
// stream, the shared XStep chain has no predicate filters, and only
// Schedule plans pool their cluster accesses.
func (m *Member) batchable() bool {
	if m.Query.Stream || m.Strat != core.StrategySchedule {
		return false
	}
	for _, s := range m.Query.Path {
		if len(s.Predicates) > 0 {
			return false
		}
	}
	return true
}

// runGang runs a gang on the calling goroutine — the dispatcher's, or a
// drained direct union's (Exec): the batchable members together as one
// shared group (runGroup) when there are at least two, then every other
// member solo, in order. Each member's Pending settles as it finishes.
func runGang(st *storage.Store, snap Snapshot, ms []Member) {
	n := 0
	for i := range ms {
		if ms[i].batchable() {
			n++
		}
	}
	pooled := n >= 2 // a shared group needs two members to be worth the demux
	if pooled {
		group := make([]Member, 0, n)
		for _, m := range ms {
			if m.batchable() {
				group = append(group, m)
			}
		}
		runGroup(st, snap, group, len(ms))
	}
	for _, m := range ms {
		if !pooled || !m.batchable() {
			res, err := solo(st, snap, m)
			m.p.settle(res, err, len(ms))
		}
	}
}

// runGroup runs ms — a gang's batchable members, at least two — on one
// shared XSchedule (core.MultiPlan) over a view of snap: their cluster
// accesses pool in one device queue, so overlapping working sets load once
// and the scheduler reorders across queries. A group ledger pays the pooled
// prefetch I/O, each member's SharedV; each member charges its own CPU and
// synchronous I/O to a private view. A sorted member's bucket is sorted
// after the run (the shared scheduler emits in arrival order), charged to
// the member, and capped at its Limit. A page fault ends the run — members
// interleave, so no bucket is usable: the group's prefetches are withdrawn,
// its work folded, and every member re-runs solo, so only those that need
// the bad page fail. Each Pending settles as its member finishes, stamped
// with the gang's size.
func runGroup(st *storage.Store, snap Snapshot, ms []Member, gang int) {
	// Every ledger of the group is seeded with the device's current
	// instant: the group arrives now, and is billed for time past its
	// arrival — not for device history that earlier gangs and committed
	// writers already paid for. The seed is subtracted back out before
	// folding into the volume ledger, whose clock is a sum of work.
	baseV := st.Disk().Clock()
	gled := stats.NewLedger()
	gled.SeedAt(baseV)
	gview := viewOf(st, snap, gled)
	startV, startW := st.Ledger().Total(), time.Now()

	res := make([]Result, len(ms))
	queries := make([]core.MultiQuery, len(ms))
	for i, m := range ms {
		led := stats.NewLedger() // the member's, reached through its view
		led.SeedAt(baseV)
		queries[i] = core.MultiQuery{
			Path:     m.Query.Path,
			Contexts: contextsOf(st, m.Query),
			Ctx:      m.Ctx,
			MemLimit: m.Query.MemLimit,
			PredEval: m.Query.PredEval,
			Store:    viewOf(st, snap, led),
		}
	}
	arena := core.GetArena()
	var end ended
	func() {
		defer fault(&end)
		mp := core.BuildMultiPlan(gview, queries, core.PlanOptions{Arena: arena})
		for i, m := range ms {
			if m.Choice != nil {
				m.Choice.PredEval = mp.PredEvals[i]
			}
		}
		mp.RunEach(
			func(i int) bool {
				if ms[i].Ctx.Err() != nil {
					return true
				}
				// An unsorted member with a result cap is done once its
				// bucket is full (a sorted member must see everything
				// before truncating).
				lim := ms[i].Query.Limit
				return lim > 0 && !ms[i].Query.Sorted && len(res[i].Results) >= lim
			},
			func(i int, r core.Result) { res[i].Results = append(res[i].Results, r) },
		)
	}()
	core.PutArena(arena)

	var spent Result // the stamps of ledgers no member reports
	sharedV := gled.Total() - baseV
	fold(st, gled, baseV, &spent)
	if end.err != nil {
		gview.CancelRequests()
		for _, q := range queries {
			fold(st, q.Store.Ledger(), baseV, &spent)
		}
		for _, m := range ms {
			r, err := solo(st, snap, m)
			m.p.settle(r, err, gang)
		}
		return
	}
	wall := time.Since(startW)
	anyCancelled := false
	for i, m := range ms {
		r, led := &res[i], queries[i].Store.Ledger()
		r.Strategy, r.Choice, r.Shared, r.SharedV, r.StartV, r.WallExec = core.StrategySchedule, m.Choice, true, sharedV, startV, wall
		err := m.Ctx.Err()
		if err != nil {
			anyCancelled = true
		} else if rs := r.Results; m.Query.Sorted {
			if len(rs) > 1 {
				cmp := core.SortResults(rs)
				led.AdvanceCPU(stats.Ticks(cmp) * st.Disk().Model().CPUSetOp)
			}
			if lim := m.Query.Limit; lim > 0 && len(rs) > lim {
				// Order enforcement saw everything (and paid for it); the
				// cap keeps the first N in document order.
				r.Results = rs[:lim]
			}
		}
		fold(st, led, baseV, r)
		m.p.settle(*r, err, gang)
	}
	if anyCancelled {
		// Abandon the cancelled members' in-flight prefetches so they
		// cannot surface inside a later gang.
		gview.CancelRequests()
	}
}

// solo runs m on its own plan through a Branch: a buffered member collects
// its matches in the Result, a streaming one hands them to its consumer as
// they are produced.
func solo(st *storage.Store, snap Snapshot, m Member) (Result, error) {
	var b Branch
	b.Start(st, snap, m)
	var rs []core.Result // the matches, or a stream's open block
	stopped := false
	for r, ok := b.Next(); ok; r, ok = b.Next() {
		if m.p.sink == nil {
			rs = append(rs, r)
		} else if rs, ok = m.p.e.emit(m.p, rs, r); !ok {
			// The consumer is gone (context cancelled) or the engine is
			// stopping: stop pulling.
			stopped = true
			break
		}
	}
	res, err := b.Stop()
	if err == nil && stopped {
		err = ErrClosed // the engine stopped under a producer parked on its consumer
	}
	res.Results = rs
	return res, err
}

// Branch runs one query's plan — a single path, or one branch of a union —
// on the calling goroutine: every solo gang member runs through one, and
// the pathdb facade pulls its live queries through one. The plan reads a
// view of a pinned snapshot charging a private ledger, seeded at the
// device's instant when the branch starts, and a sorted query's document
// order is enforced inside the plan (the final sort of Sec. 5.5). Start may
// be called again once Stop has returned.
type Branch struct {
	ended
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
	startW time.Time
	res    Result
}

// ended is how a run's production ended.
type ended struct {
	done  bool  // production has ended
	clean bool  // ...by itself: exhausted or at the limit
	err   error // the page fault or context error that ended it
}

// fault turns a page fault raised below a run — a Branch, or a group's
// MultiPlan — into the error that ends it; any other panic goes on. It must
// be deferred directly.
func fault(end *ended) {
	if r := recover(); r != nil {
		pe, ok := storage.AsPageFault(r)
		if !ok {
			panic(r)
		}
		if end.done, end.clean = true, false; end.err == nil {
			end.err = pe
		}
	}
}

// Start builds m's plan with its resolved strategy over a view of snap (of
// the current version when snap is nil). A page fault while building ends
// the branch: Next reports false and Stop returns the fault.
func (b *Branch) Start(st *storage.Store, snap Snapshot, m Member) {
	*b = Branch{st: st, led: stats.NewLedger(), ctx: m.Ctx, limit: m.Query.Limit, arena: core.GetArena(), baseV: st.Disk().Clock(), startW: time.Now()}
	b.led.SeedAt(b.baseV)
	b.view = viewOf(st, snap, b.led)
	b.res = Result{Strategy: m.Strat, Choice: m.Choice, StartV: st.Ledger().Total()}
	defer fault(&b.ended)
	b.plan = core.BuildPlan(b.view, m.Query.Path, contextsOf(st, m.Query), m.Strat, core.PlanOptions{
		MemLimit:    m.Query.MemLimit,
		Ctx:         m.Ctx,
		Arena:       b.arena,
		SortResults: m.Query.Sorted,
		PredEval:    m.Query.PredEval,
		LevelRead:   m.Choice != nil && m.Choice.LevelRead,
	})
	if m.Choice != nil {
		m.Choice.PredEval, m.Choice.LevelRead = b.plan.PredEval, b.plan.LevelRead()
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
	defer fault(&b.ended)
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
		b.done, b.err = true, b.ctx.Err() // stopped early: not clean
	}
	b.end(nil)
	if !b.clean {
		b.view.CancelRequests()
	}
	core.PutArena(b.arena)
	b.res.WallExec = time.Since(b.startW)
	fold(b.st, b.led, b.baseV, &b.res)
	return b.res, b.err
}

// end ends production with err (nil: by itself), unless it has ended
// already, and closes the plan if it is open.
func (b *Branch) end(err error) {
	if !b.done {
		b.done, b.err, b.clean = true, err, err == nil
	}
	if root := b.root; root != nil {
		b.root = nil
		defer fault(&b.ended)
		root.Close()
	}
}

// fold merges a ledger seeded at baseV into the volume ledger, stamping res
// with the time past the seed — the query's own — and the volume clock
// after the merge.
func fold(st *storage.Store, led *stats.Ledger, baseV stats.Ticks, res *Result) {
	d := led.Sub(stats.Ledger{Now: baseV})
	res.CostV, res.CPUV, res.IOWaitV = d.Now, d.CPU, d.IOWait
	st.Ledger().Merge(d)
	res.DoneV = st.Ledger().Total()
}
