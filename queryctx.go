package pathdb

import (
	"context"

	"pathdb/internal/core"
	"pathdb/internal/stats"
	"pathdb/internal/storage"
	"pathdb/internal/vdisk"
)

// QueryCtx evaluates an absolute location path (or a '|' union of paths)
// directly on the DB — the one-shot, engine-free counterpart of
// Session.Do, sharing its QueryOptions. The context cancels or deadlines
// the evaluation at the next operator poll point; page faults raised by
// the fault plane surface as the typed *Error (KindIO or KindCorrupt)
// instead of a panic.
//
// QueryCtx is not safe for use concurrently with other queries on the
// same DB (it runs on the volume's own clock); use an Engine for
// concurrent execution.
func (db *DB) QueryCtx(ctx context.Context, path string, opts QueryOptions) (res ExecResult, err error) {
	branches, err := xpathParseUnion(db, path)
	if err != nil {
		return ExecResult{}, err
	}
	ctx, cancel := opts.context(ctx)
	defer cancel()
	defer func() {
		if r := recover(); r != nil {
			if pe, ok := storage.AsPageFault(r); ok {
				res, err = ExecResult{}, wrapErr("query", path, pe)
				return
			}
			panic(r)
		}
	}()

	led := db.store.Ledger()
	start := led.Snapshot()
	arena := core.GetArena()
	defer core.PutArena(arena)
	popts := core.PlanOptions{MemLimit: opts.MemLimit, Ctx: ctx, Arena: arena,
		PredEval: opts.PredEval.internal()}

	strat := opts.Strategy
	out := ExecResult{Strategy: strat}
	var all []core.Result
	if len(branches) == 1 {
		if strat == Auto {
			c := db.getChooser().Choose(branches[0])
			strat = fromCore(c.Strategy)
			out.Strategy = strat
			pc := fromPlanChoice(c)
			out.Choice = &pc
			if popts.PredEval == core.PredAuto {
				popts.PredEval = c.PredEval
			}
		} else if popts.PredEval == core.PredAuto && hasPredicates(branches[0]) {
			popts.PredEval = db.getChooser().Choose(branches[0]).PredEval
		}
		popts.SortResults = opts.Sorted
		all = core.BuildPlan(db.store, branches[0], db.store.Roots(), strat.internal(), popts).Run()
	} else {
		if strat == Auto {
			strat = Schedule
			out.Strategy = Schedule
		}
		if strat == Schedule {
			queries := make([]core.MultiQuery, len(branches))
			for i, b := range branches {
				queries[i] = core.MultiQuery{Path: b, Contexts: db.store.Roots()}
				if popts.PredEval == core.PredAuto && hasPredicates(b) {
					queries[i].PredEval = db.getChooser().Choose(b).PredEval
				}
			}
			for _, rs := range core.BuildMultiPlan(db.store, queries, popts).Run() {
				all = append(all, rs...)
			}
			out.Shared = true
		} else {
			for _, b := range branches {
				bopts := popts
				if bopts.PredEval == core.PredAuto && hasPredicates(b) {
					bopts.PredEval = db.getChooser().Choose(b).PredEval
				}
				p := core.BuildPlan(db.store, b, db.store.Roots(), strat.internal(), bopts)
				all = append(all, p.Run()...)
			}
		}
		// Union semantics: a node set.
		seen := make(map[storage.NodeID]bool, len(all))
		dedup := all[:0]
		for _, r := range all {
			if seen[r.Node] {
				continue
			}
			seen[r.Node] = true
			dedup = append(dedup, r)
		}
		all = dedup
		if opts.Sorted {
			core.SortResults(all)
		}
	}

	// A cancelled plan ends its result stream early rather than erroring;
	// surface the context failure as the typed taxonomy error.
	if cerr := ctx.Err(); cerr != nil {
		return ExecResult{}, wrapErr("query", path, cerr)
	}

	if opts.Limit > 0 && len(all) > opts.Limit {
		all = all[:opts.Limit]
	}
	end := led.Snapshot()
	out.CostV = end.Now - start.Now
	out.CPUV = end.CPU - start.CPU
	out.IOWaitV = end.IOWait - start.IOWait
	out.VirtualLatency = out.CostV
	out.Gang = 1
	out.Nodes = make([]Node, len(all))
	for i, r := range all {
		out.Nodes[i] = Node{db: db, id: r.Node, ord: r.Ord}
	}
	return out, nil
}

// FaultConfig arms the DB's deterministic fault plane — the facade over
// the simulated disk's seeded per-operation fault schedule. Probabilities
// are per page read; the zero value disarms all faults. Identical seeds
// reproduce identical fault sequences, so failing runs replay exactly.
type FaultConfig struct {
	// Seed drives the fault plane's private RNG.
	Seed uint64
	// ReadError is the probability a read fails with a transient I/O
	// error (storage retries with backoff before escalating to KindIO).
	ReadError float64
	// Corrupt is the probability a read returns a torn page image
	// (caught by checksum verification; persistent damage escalates to
	// KindCorrupt).
	Corrupt float64
	// Latency is the probability a read is delayed by Spike.
	Latency float64
	// Spike is the added virtual latency per spike (default 5ms).
	Spike stats.Ticks
}

// SetFaults arms (or, with the zero FaultConfig, disarms) fault injection
// on the DB's simulated disk. Call between queries, not concurrently with
// them.
func (db *DB) SetFaults(f FaultConfig) {
	db.store.Disk().SetFaults(vdisk.Faults{
		Seed:      f.Seed,
		ReadError: f.ReadError,
		Corrupt:   f.Corrupt,
		Latency:   f.Latency,
		Spike:     f.Spike,
	})
}
