package core

import (
	"pathdb/internal/storage"
	"pathdb/internal/xpath"
)

// PredFilter evaluates the predicates of location step i on every path
// instance whose right end was produced by that step.
//
// The paper defers predicates to "a more expressive algebra" and notes in
// its outlook that nested predicate paths would need path instances with
// more than two incomplete ends (Sec. 7). This operator takes the
// baseline route the paper's Sec. 5.1 sketches for full XPath support: the
// nested path is evaluated per candidate with an Unnest-Map (Simple)
// sub-plan, synchronously, with an existence-style early exit. The outer
// path still enjoys cost-sensitive reordering; only the nested probes pay
// on-demand I/O.
//
// Placement in the chain is right above XStepᵢ. Instances with S_R ≠ i —
// pass-throughs, right-incomplete borders awaiting their crossing,
// speculative seeds — flow unchanged; each of their eventual extensions
// re-enters the chain below and is filtered here once it reaches step i.
type PredFilter struct {
	es     *EvalState
	input  Operator
	i      int
	probes predProbes
}

// NewPredFilter builds the filter for step i (whose predicates it reads
// from the shared state's path).
func NewPredFilter(es *EvalState, input Operator, i int) *PredFilter {
	return &PredFilter{es: es, input: input, i: i, probes: predProbes{es: es, preds: es.Path[i-1].Predicates}}
}

// Open opens the producer.
func (f *PredFilter) Open() { f.input.Open() }

// Close closes the producer.
func (f *PredFilter) Close() { f.input.Close() }

// Next returns the next instance, dropping step-i instances whose node
// fails any predicate.
func (f *PredFilter) Next() (Instance, bool) {
	for {
		in, ok := f.input.Next()
		if !ok {
			return Instance{}, false
		}
		if in.SR != f.i || in.NRBorder {
			return in, true
		}
		f.es.chargeTuple()
		if f.probes.matches(in.NR) {
			return in, true
		}
	}
}

// predProbes is the shared per-candidate evaluator of one step's
// predicates. PredFilter uses it on every step-i candidate; XJoin uses it
// for nested predicates on branch steps and in its degraded mode. The
// sub-plans are compiled on the first candidate and re-run for every
// later one.
type predProbes struct {
	es     *EvalState
	preds  []xpath.Predicate
	probes [][]*probe // by predicate, by union branch
}

// matches reports whether the node passes every predicate: for each, some
// union branch must match (early exit on the first).
func (pp *predProbes) matches(ctx storage.NodeID) bool {
	if pp.probes == nil {
		pp.probes = make([][]*probe, len(pp.preds))
		for k, p := range pp.preds {
			for _, branch := range p.Paths {
				pp.probes[k] = append(pp.probes[k], newProbe(pp.es, branch, p))
			}
		}
	}
	for _, branches := range pp.probes {
		hit := false
		for _, pr := range branches {
			if pr.run(ctx) {
				hit = true
				break
			}
		}
		if !hit {
			return false
		}
	}
	return true
}

// probe is one union branch of predicate p compiled into a Simple sub-plan
// (an Unnest-Map chain) over a one-element context array. It is built once
// per evaluation state and branch; every operator resets in Open, so a
// candidate costs storing its id, Open, pull, Close.
type probe struct {
	sub     *EvalState
	ctx     [1]storage.NodeID
	root    Operator
	hasLit  bool // the predicate compares: [branch = "literal"]
	literal string
	val     []byte // the string value under comparison, reused per result
}

func newProbe(es *EvalState, branch *xpath.Path, p xpath.Predicate) *probe {
	steps := branch.Simplify().Steps
	pr := &probe{sub: NewEvalState(es.Store, steps), hasLit: p.HasLit, literal: p.Literal}
	// The probe inherits the outer query's cancellation (but never its
	// arena: exactly one running plan may borrow an arena at a time).
	pr.sub.Ctx = es.Ctx
	var op Operator = NewContextOp(pr.sub, pr.ctx[:])
	for i := 1; i <= len(steps); i++ {
		xs := NewXStep(pr.sub, op, i)
		xs.CrossBorders = true
		op = xs
		if len(steps[i-1].Predicates) > 0 {
			op = NewPredFilter(pr.sub, op, i) // nested predicates recurse
		}
	}
	pr.root = op
	return pr
}

// run evaluates the branch from ctx, early-exiting on the first result —
// or, when the predicate compares, on the first result whose string value
// equals the literal.
func (pr *probe) run(ctx storage.NodeID) bool {
	pr.ctx[0] = ctx
	pr.root.Open()
	defer pr.root.Close()
	for {
		out, ok := pr.root.Next()
		if !ok {
			return false
		}
		if !pr.hasLit {
			return true
		}
		pr.val = pr.sub.Store.AppendStringValue(pr.val[:0], out.NR)
		if string(pr.val) == pr.literal {
			return true
		}
	}
}
