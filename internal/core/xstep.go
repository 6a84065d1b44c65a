package core

import (
	"pathdb/internal/storage"
	"pathdb/internal/xpath"
)

// XStep is the intra-cluster navigation operator (Sec. 5.3.2): XStepᵢ
// extends path instances whose right end was produced by step i-1 by one
// location step, stopping at cluster borders. Instances it is not
// applicable to (S_R ≠ i-1) pass through unchanged.
//
// With CrossBorders set, the operator instead behaves as a classic
// Unnest-Map (Sec. 5.1): border nodes are traversed immediately with
// synchronous I/O and never surface. This single switch turns an
// XSchedule/XScan plan into the Simple baseline and implements the
// fallback mode of Sec. 5.4.6 (the switch also flips at runtime when the
// shared state enters fallback).
type XStep struct {
	es    *EvalState
	input Operator
	i     int // step number (1-based)
	step  xpath.Step

	// CrossBorders makes the operator a full Unnest-Map.
	CrossBorders bool

	base Instance // input instance currently being extended

	// iters is the navigation stack: one iterator per border crossed on the
	// way down, so a subtree chained over many clusters nests deeply. The
	// backing array is borrowed from the arena when the plan has one.
	iters []*storage.StepIter
}

// NewXStep builds XStepᵢ for location step es.Path[i-1] reading from input.
func NewXStep(es *EvalState, input Operator, i int) *XStep {
	return &XStep{es: es, input: input, i: i, step: es.Path[i-1]}
}

// Open opens the producer.
func (x *XStep) Open() {
	x.input.Open()
	x.releaseIters()
	if cap(x.iters) == 0 {
		x.iters = x.es.Arena.takeIters()
	}
}

// Close closes the producer, returning any live iterators to the pool
// (early close: K-limit reached or the query cancelled mid-navigation) and
// the stack to the arena. Without an arena the operator keeps its stack: a
// compiled predicate probe is re-opened for every candidate.
func (x *XStep) Close() {
	x.releaseIters()
	if x.es.Arena != nil {
		x.es.Arena.putIters(x.iters)
		x.iters = nil
	}
	x.input.Close()
}

func (x *XStep) releaseIters() {
	for _, it := range x.iters {
		it.Release()
	}
	x.iters = x.iters[:0]
}

// Next implements the XStep next method (Sec. 5.3.2.2).
func (x *XStep) Next() (Instance, bool) {
	crossing := x.CrossBorders || x.es.Fallback()
	for {
		// Drain the current navigation (possibly across borders).
		for len(x.iters) > 0 {
			it := x.iters[len(x.iters)-1]
			res, ok := it.Next()
			if !ok {
				it.Release()
				x.iters = x.iters[:len(x.iters)-1]
				continue
			}
			if res.IsBorder() {
				if crossing {
					// Unnest-Map behaviour: traverse the inter-cluster
					// edge immediately (synchronous, possibly random I/O)
					// and continue enumerating on the far side.
					far := x.es.Store.Swizzle(res.Target())
					x.iters = append(x.iters, x.es.Store.Step(far, x.step.Axis, x.step.Test))
					continue
				}
				// Defer the crossing: emit a right-incomplete instance.
				// S_R stays i-1 — the step is not fully evaluated yet.
				out := x.base
				out.SR = x.i - 1
				out.NR = res.Unswizzle()
				out.NRBorder = true
				out.TargetR = res.Target()
				out.Ord = nil
				out.cur = res
				out.curSet = true
				return out, true
			}
			// A core result: the instance is extended to step i.
			out := x.base
			out.SR = x.i
			out.NR = res.Unswizzle()
			out.NRBorder = false
			out.TargetR = 0
			out.Ord = res.OrdKey()
			out.cur = res
			out.curSet = true
			return out, true
		}

		in, ok := x.input.Next()
		if !ok {
			return Instance{}, false
		}
		x.es.chargeTuple()
		if in.SR != x.i-1 {
			// Not applicable: hand the instance to the consumer untouched.
			return in, true
		}
		// Applicable: enumerate π_i results from the right end. The right
		// end may be a core node (fresh enumeration) or a border companion
		// (continuation on the far side), which storage.Step dispatches on.
		ctx := in.cur
		if !in.curSet {
			ctx = x.es.Store.Swizzle(in.NR)
		}
		x.base = in
		x.iters = append(x.iters[:0], x.es.Store.Step(ctx, x.step.Axis, x.step.Test))
	}
}
