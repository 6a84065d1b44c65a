package core

import (
	"context"
	"fmt"
	"slices"

	"pathdb/internal/ordpath"
	"pathdb/internal/storage"
	"pathdb/internal/xpath"
)

// Strategy selects the physical evaluation method for a location path —
// the three plan alternatives of the paper's evaluation (Sec. 6.2).
type Strategy uint8

// Plan strategies.
const (
	// StrategySimple is the nested-loop Unnest-Map baseline (Sec. 5.1).
	StrategySimple Strategy = iota
	// StrategySchedule uses XSchedule with asynchronous I/O (Sec. 5.3.4).
	StrategySchedule
	// StrategyScan uses XScan with one sequential scan (Sec. 5.4.3).
	StrategyScan
)

func (s Strategy) String() string {
	switch s {
	case StrategySimple:
		return "simple"
	case StrategySchedule:
		return "xschedule"
	case StrategyScan:
		return "xscan"
	default:
		return fmt.Sprintf("strategy(%d)", uint8(s))
	}
}

// PredEval selects the physical evaluator for step predicates.
type PredEval uint8

const (
	// PredAuto lets the plan pick by AutoPredEval when it is built.
	PredAuto PredEval = iota
	// PredNested probes each candidate with a per-node Simple sub-plan
	// (PredFilter), linear in candidates × probe cost. It is XJoin's
	// fallback and the differential tests' oracle.
	PredNested
	// PredJoin evaluates predicates set-at-a-time with ordpath structural
	// semi-joins (XJoin); branches the join cannot express still fall back
	// to per-candidate probes inside the operator.
	PredJoin
)

func (p PredEval) String() string {
	switch p {
	case PredNested:
		return "nested"
	case PredJoin:
		return "join"
	default:
		return "auto"
	}
}

// PlanOptions tunes plan construction.
type PlanOptions struct {
	// K is XSchedule's queue fill target; 0 means DefaultK (100).
	K int
	// Speculative turns on left-incomplete generation in XSchedule
	// (Sec. 5.4.4); XScan always speculates.
	Speculative bool
	// MemLimit bounds XAssembly's S structure (0 = unlimited); exceeding
	// it triggers fallback mode (Sec. 5.4.6).
	MemLimit int
	// SortResults appends a document-order sort (Sec. 5.5) unless the plan
	// is already Ordered.
	SortResults bool
	// NoFirstStepAllOpt disables the '//' optimisation of Sec. 5.4.5.4
	// even when it applies (for ablations).
	NoFirstStepAllOpt bool
	// Ctx, when non-nil, threads a deadline/cancellation context through
	// the plan's operators; a cancelled plan ends its result stream early.
	Ctx context.Context
	// Arena supplies pooled per-query scratch to the plan's operators.
	// Optional; one arena may serve only one running plan at a time.
	Arena *Arena
	// PredEval picks the predicate evaluator (default PredAuto: the plan
	// applies AutoPredEval to its store).
	PredEval PredEval
}

// Plan is an executable physical plan for one location path.
type Plan struct {
	es   *EvalState
	root Operator

	Strategy Strategy
	Assembly *XAssembly // nil for Simple plans
	Schedule *XSchedule // nil unless StrategySchedule
	// Ordered reports that the root yields document order: a Simple plan
	// whose path shape preserves it, or any plan with the final sort.
	Ordered bool
	// PredEval is the evaluator the predicate steps run with, PredAuto
	// resolved (PredNested for a path without joinable predicates).
	PredEval PredEval
}

// LevelRead reports whether the plan reads its path from levels (Levels)
// instead of navigating it.
func (p *Plan) LevelRead() bool { return p.es.levelsKey != "" }

// PathShape reports what a border-crossing Simple chain over path yields
// from a single context node, or from an ordered antichain of contexts such
// as the volume roots: each node at most once (dupFree), and in document
// order (ordered). Child, attribute and self steps keep both while their
// input is an antichain; the first descendant(-or-self) step keeps both and
// ends the antichain; a child or attribute step after it keeps only
// dup-freedom; a second descendant step, or any other axis, loses both.
// Predicates only filter (XJoin emits its survivors in arrival order), so
// they change nothing.
func PathShape(path []xpath.Step) (dupFree, ordered bool) {
	ordered, antichain := true, true
	for _, s := range path {
		switch s.Axis {
		case xpath.Self:
		case xpath.Child, xpath.AttributeAxis:
			ordered = ordered && antichain
		case xpath.Descendant, xpath.DescendantOrSelf:
			if !antichain {
				return false, false
			}
			antichain = false
		default:
			return false, false
		}
	}
	return true, ordered
}

// BuildPlan compiles a plan evaluating path from the given context nodes
// over store. The path is the physical step list (apply xpath.Simplify
// beforehand if desired); absolute paths pass the document root as the
// single context. The plan reads contexts as it runs: the caller must not
// change them before it is done.
//
// When the predicates join, the contexts are the volume roots and the path
// qualifies (levelRead), the plan reads the path from levels instead of
// navigating it, whatever the strategy: the last step's XJoin over Levels,
// ordered and duplicate-free.
func BuildPlan(store *storage.Store, path []xpath.Step, contexts []storage.NodeID, strat Strategy, opts PlanOptions) *Plan {
	es := NewEvalState(store, path)
	es.MemLimit = opts.MemLimit
	es.Ctx = opts.Ctx
	es.Arena = opts.Arena

	p := &Plan{es: es, Strategy: strat}
	p.PredEval, es.levelsKey = predPlan(store, path, contexts, opts.PredEval)

	// chain appends XStepᵢ (plus a predicate evaluator when the step
	// carries predicates) for every location step.
	chain := func(op Operator, crossBorders bool) Operator {
		for i := 1; i <= len(path); i++ {
			xs := NewXStep(es, op, i)
			xs.CrossBorders = crossBorders
			op = xs
			if len(path[i-1].Predicates) > 0 {
				if p.PredEval == PredJoin {
					op = NewXJoin(es, op, i)
				} else {
					op = NewPredFilter(es, op, i)
				}
			}
		}
		return op
	}

	var top Operator
	switch {
	case p.LevelRead():
		top = levelSource(es)
		p.Ordered = true

	case strat == StrategySimple:
		top = chain(NewContextOp(es, contexts), true)
		// The shape rule holds from one context or from the roots; other
		// context lists may nest or come out of order.
		dupFree := false
		if len(contexts) <= 1 || slices.Equal(contexts, store.Roots()) {
			dupFree, p.Ordered = PathShape(path)
		}
		if !dupFree {
			top = NewDistinct(es, top)
		}

	case strat == StrategySchedule:
		sched := NewXSchedule(es, NewContextOp(es, contexts))
		if opts.K > 0 {
			sched.K = opts.K
		}
		sched.Speculative = opts.Speculative
		asm := NewXAssembly(es, chain(sched, false), sched)
		p.Assembly, p.Schedule = asm, sched
		top = asm

	case strat == StrategyScan:
		sorted := slices.Clone(contexts)
		SortContexts(sorted)
		scan := NewXScan(es, NewContextOp(es, sorted))
		asm := NewXAssembly(es, chain(scan, false), nil)
		if !opts.NoFirstStepAllOpt && len(path) > 0 &&
			path[0].Axis == xpath.DescendantOrSelf && path[0].Test.Kind == xpath.KindAny &&
			len(path[0].Predicates) == 0 {
			// '//' optimisation: every node is reachable after step 1
			// because the scan visits all clusters (Sec. 5.4.5.4).
			asm.FirstStepAll = true
		}
		p.Assembly = asm
		top = asm

	default:
		panic("core: unknown strategy")
	}

	if opts.SortResults && !p.Ordered {
		top = NewSortByDocumentOrder(es, top)
		p.Ordered = true
	}
	p.root = top
	return p
}

// State exposes the shared evaluation state (tests, stats).
func (p *Plan) State() *EvalState { return p.es }

// Root returns the top operator for custom consumption.
func (p *Plan) Root() Operator { return p.root }

// Result is one result node of a path evaluation.
type Result struct {
	Node storage.NodeID
	Ord  ordpath.Key
}

// Run executes the plan and collects all result nodes.
func (p *Plan) Run() []Result {
	p.root.Open()
	defer p.root.Close()
	var out []Result
	for {
		inst, ok := p.root.Next()
		if !ok {
			return out
		}
		out = append(out, Result{Node: inst.NR, Ord: inst.Ord})
	}
}

// Count executes the plan and returns the number of results — the
// aggregate form used by XMark Q6' and Q7, where no sort is needed
// (Sec. 5.5).
func (p *Plan) Count() int {
	p.root.Open()
	defer p.root.Close()
	n := 0
	for {
		if _, ok := p.root.Next(); !ok {
			return n
		}
		n++
	}
}
