package core

import (
	"context"

	"pathdb/internal/storage"
	"pathdb/internal/xpath"
)

// MultiPlan evaluates several location paths with a single I/O-performing
// XSchedule operator — the multi-query extension sketched in the paper's
// outlook (Sec. 7): "Our method can be easily extended to evaluate
// multiple location paths with a single I/O-performing operator", giving
// the scheduler more pending requests to reorder and letting paths share
// cluster loads.
//
// Architecture: every path keeps its own XStep chain and XAssembly, but
// all chains read from one shared XSchedule through a demultiplexer that
// routes instances by their Path tag. Continuations enqueued by any
// XAssembly land in the same queue, so the asynchronous I/O subsystem sees
// the union of all paths' pending cluster accesses. A member that reads its
// path from levels (see BuildPlan) is the level read alone and takes no
// part in the shared schedule.
type MultiPlan struct {
	es     []*EvalState
	shared *XSchedule
	roots  []Operator // per member: its XAssembly, or its level read
	closed bool
	// PredEvals holds, per member, the evaluator its predicate steps run
	// with (see Plan.PredEval).
	PredEvals []PredEval
}

// Close shuts every member's operator chain down, releasing pooled
// iterators and arena structures. Idempotent; RunEach arranges for it to
// run even when a member's operator panics (the storage fault plane
// escalates terminal page faults as typed panics), so an unwinding query
// cannot leak navigation iterators.
func (mp *MultiPlan) Close() {
	if mp.closed {
		return
	}
	mp.closed = true
	for _, r := range mp.roots {
		r.Close()
	}
}

// MultiQuery is one member query of a MultiPlan. Under the concurrent
// engine the members come from different sessions, so each carries its own
// cancellation context and memory limit.
type MultiQuery struct {
	Path     []xpath.Step
	Contexts []storage.NodeID

	// Ctx, when non-nil, cancels this member only; the shared scheduler
	// keeps serving the others. Zero value inherits PlanOptions.Ctx.
	Ctx context.Context
	// MemLimit overrides PlanOptions.MemLimit for this member when > 0.
	MemLimit int
	// PredEval overrides PlanOptions.PredEval for this member when not
	// PredAuto; what stays PredAuto is resolved on the member's own view.
	PredEval PredEval
	// Store, when non-nil, is the storage view this member's operators
	// charge to (a per-query Reader over the group's base store). The
	// shared scheduler still runs on the store passed to BuildMultiPlan —
	// pooled I/O is group-accounted — while per-member CPU and tuple
	// movement land on the member's own ledger.
	Store *storage.Store
}

// BuildMultiPlan compiles a shared-scheduler plan for the given queries.
func BuildMultiPlan(store *storage.Store, queries []MultiQuery, opts PlanOptions) *MultiPlan {
	mp := &MultiPlan{}

	// The shared scheduler lives on its own state; it only uses the store,
	// ledger and queue machinery, which all paths share. Contexts of all
	// navigating paths are multiplexed into its producer, tagged.
	es0 := NewEvalState(store, nil)
	es0.Arena = opts.Arena
	seeds := &sliceOp{es: es0}
	shared := NewXSchedule(es0, seeds)
	if opts.K > 0 {
		shared.K = opts.K
	}
	mp.shared = shared

	d := &demux{shared: shared, buffers: make([][]Instance, len(queries))}
	for pi, q := range queries {
		st := store
		if q.Store != nil {
			st = q.Store
		}
		es := NewEvalState(st, q.Path)
		es.MemLimit = opts.MemLimit
		if q.MemLimit > 0 {
			es.MemLimit = q.MemLimit
		}
		es.Ctx = opts.Ctx
		if q.Ctx != nil {
			es.Ctx = q.Ctx
		}
		// Assemblies of one multi-plan run interleaved on one goroutine, so
		// they may share the arena: the first borrower gets the pooled
		// structures, later ones fall back to fresh ones.
		es.Arena = opts.Arena
		mp.es = append(mp.es, es)
		pe := opts.PredEval
		if q.PredEval != PredAuto {
			pe = q.PredEval
		}
		pe, key := predPlan(st, q.Path, q.Contexts, pe)
		mp.PredEvals = append(mp.PredEvals, pe)
		if key != "" {
			mp.roots = append(mp.roots, levelSource(es, key))
			continue
		}
		for _, id := range q.Contexts {
			inst := ContextInstance(id)
			inst.Path = pi
			seeds.items = append(seeds.items, inst)
		}
		var op Operator = &demuxPort{d: d, path: pi}
		for i := 1; i <= len(q.Path); i++ {
			op = NewXStep(es, op, i)
			if len(q.Path[i-1].Predicates) > 0 {
				if pe == PredJoin {
					op = NewXJoin(es, op, i)
				} else {
					op = NewPredFilter(es, op, i)
				}
			}
		}
		mp.roots = append(mp.roots, NewXAssembly(es, op, shared))
	}
	return mp
}

// Run evaluates all member queries and returns one result list per query.
func (mp *MultiPlan) Run() [][]Result {
	out := make([][]Result, len(mp.roots))
	mp.RunEach(nil, func(i int, r Result) {
		out[i] = append(out[i], r)
	})
	return out
}

// RunEach evaluates all member queries, streaming each result to emit as it
// is assembled. Queries are drained in round-robin fashion so their cluster
// accesses interleave in the shared queue — the engine's gang execution
// uses this to serve several sessions from one scheduler.
//
// cancelled, when non-nil, is polled before each pull for member i; once it
// reports true the member stops producing (its instances already in the
// shared queue are pulled and buffered by the surviving ports — bounded by
// the queue fill K — and its submitted cluster requests stay with the I/O
// subsystem until the owner cancels them). Both callbacks run on the
// calling goroutine.
func (mp *MultiPlan) RunEach(cancelled func(i int) bool, emit func(i int, r Result)) {
	defer mp.Close()
	for _, r := range mp.roots {
		r.Open()
	}
	done := make([]bool, len(mp.roots))
	remaining := len(mp.roots)
	for remaining > 0 {
		for i, a := range mp.roots {
			if done[i] {
				continue
			}
			if cancelled != nil && cancelled(i) {
				done[i] = true
				remaining--
				continue
			}
			inst, ok := a.Next()
			if !ok {
				done[i] = true
				remaining--
				continue
			}
			emit(i, Result{Node: inst.NR, Ord: inst.Ord})
		}
	}
}

// Counts evaluates all member queries and returns their cardinalities.
func (mp *MultiPlan) Counts() []int {
	rs := mp.Run()
	out := make([]int, len(rs))
	for i, r := range rs {
		out[i] = len(r)
	}
	return out
}

// sliceOp replays a fixed instance list (the multiplexed context seeds).
type sliceOp struct {
	es    *EvalState
	items []Instance
	pos   int
}

func (s *sliceOp) Open() { s.pos = 0 }
func (s *sliceOp) Next() (Instance, bool) {
	if s.pos >= len(s.items) {
		return Instance{}, false
	}
	out := s.items[s.pos]
	s.pos++
	s.es.chargeTuple()
	return out, true
}
func (s *sliceOp) Close() {}

// demux routes instances from the shared scheduler to per-path ports,
// buffering instances that belong to other paths.
type demux struct {
	shared  *XSchedule
	buffers [][]Instance
	opened  bool
	closed  bool
}

// demuxPort is the per-path view of the demux; it implements Operator.
type demuxPort struct {
	d    *demux
	path int
}

func (p *demuxPort) Open() {
	if !p.d.opened {
		p.d.opened = true
		p.d.shared.Open()
	}
}

func (p *demuxPort) Close() {
	if !p.d.closed {
		p.d.closed = true
		p.d.shared.Close()
	}
}

func (p *demuxPort) Next() (Instance, bool) {
	d := p.d
	if buf := d.buffers[p.path]; len(buf) > 0 {
		out := buf[0]
		d.buffers[p.path] = buf[1:]
		return out, true
	}
	for {
		inst, ok := d.shared.Next()
		if !ok {
			// The shared queue is drained *for now*; another path's
			// assembly may still enqueue more later, at which point this
			// port's Next will be called again and resume.
			return Instance{}, false
		}
		if inst.Path == p.path {
			return inst, true
		}
		d.buffers[inst.Path] = append(d.buffers[inst.Path], inst)
	}
}
