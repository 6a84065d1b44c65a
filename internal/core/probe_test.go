package core

import (
	"testing"

	"pathdb/internal/stats"
	"pathdb/internal/storage"
	"pathdb/internal/xmark"
	"pathdb/internal/xmltree"
	"pathdb/internal/xpath"
)

// perCandidateProbe is the evaluator compiled probes replaced, kept as
// their oracle: it builds a fresh sub-plan for every candidate and branch.
func perCandidateProbe(es *EvalState, ctx storage.NodeID, preds []xpath.Predicate) bool {
	for _, p := range preds {
		hit := false
		for _, branch := range p.Paths {
			steps := branch.Simplify().Steps
			sub := NewEvalState(es.Store, steps)
			var op Operator = NewContextOp(sub, []storage.NodeID{ctx})
			for i := 1; i <= len(steps); i++ {
				xs := NewXStep(sub, op, i)
				xs.CrossBorders = true
				op = xs
				if len(steps[i-1].Predicates) > 0 {
					op = &perCandidateFilter{es: sub, input: op, i: i}
				}
			}
			op.Open()
			for !hit {
				out, ok := op.Next()
				if !ok {
					break
				}
				hit = !p.HasLit || es.Store.StringValue(out.NR) == p.Literal
			}
			op.Close()
			if hit {
				break
			}
		}
		if !hit {
			return false
		}
	}
	return true
}

// perCandidateFilter is PredFilter over the oracle, for nested predicates.
type perCandidateFilter struct {
	es    *EvalState
	input Operator
	i     int
}

func (f *perCandidateFilter) Open()  { f.input.Open() }
func (f *perCandidateFilter) Close() { f.input.Close() }
func (f *perCandidateFilter) Next() (Instance, bool) {
	for {
		in, ok := f.input.Next()
		if !ok || in.SR != f.i || in.NRBorder {
			return in, ok
		}
		f.es.chargeTuple()
		if perCandidateProbe(f.es, in.NR, f.es.Path[f.i-1].Predicates) {
			return in, true
		}
	}
}

// TestCompiledProbeMatchesPerCandidateBuild holds the compiled probes to
// the per-candidate builder on every candidate of every predicate shape:
// the same verdict and — because the same operators run — the same virtual
// cost to the tick, which makes CostV per (path, strategy, evaluator) what
// it was. The pool is resident, so neither side's cost depends on who ran
// first.
func TestCompiledProbeMatchesPerCandidateBuild(t *testing.T) {
	dict, _, st := xjoinFixture(t)
	warm := xpath.MustParse(dict, "//node()").Simplify().Steps
	BuildPlan(st, warm, st.Roots(), StrategyScan, PlanOptions{}).Count()

	for _, src := range xjoinPaths {
		steps := xpath.MustParse(dict, src).Simplify().Steps
		for si, s := range steps {
			if len(s.Predicates) == 0 {
				continue
			}
			// The candidates of step si+1: the path up to it, unfiltered.
			prefix := append([]xpath.Step(nil), steps[:si+1]...)
			prefix[si].Predicates = nil
			cands := BuildPlan(st, prefix, st.Roots(), StrategySimple, PlanOptions{}).Run()
			if len(cands) == 0 {
				t.Fatalf("%s: no candidates for step %d", src, si+1)
			}
			es := NewEvalState(st, steps)
			compiled := predProbes{es: es, preds: s.Predicates}
			cost := func(fn func() bool) (bool, stats.Ticks) {
				v0 := st.Ledger().Total()
				ok := fn()
				return ok, st.Ledger().Total() - v0
			}
			for _, c := range cands {
				want, wantV := cost(func() bool { return perCandidateProbe(es, c.Node, s.Predicates) })
				got, gotV := cost(func() bool { return compiled.matches(c.Node) })
				if got != want || gotV != wantV {
					t.Fatalf("%s, candidate %v: compiled probe says %v for %v, per-candidate build %v for %v",
						src, c.Node, got, gotV, want, wantV)
				}
			}
		}
	}
}

func xmarkFixture(t testing.TB) (*xmltree.Dictionary, *storage.Store) {
	dict := xmltree.NewDictionary()
	doc := xmark.Generate(dict, xmark.Config{ScaleFactor: 1, Seed: 17, EntityScale: 0.02})
	return dict, importTree(t, dict, doc, 8192, storage.LayoutNatural)
}

// TestCompiledProbeAllocatesNothingPerCandidate: after the first candidate
// compiled the sub-plans, a probe is a stored id, Open, pull, Close.
func TestCompiledProbeAllocatesNothingPerCandidate(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	dict, st := xmarkFixture(t)
	items := BuildPlan(st, xpath.MustParse(dict, "/site//item").Simplify().Steps, st.Roots(),
		StrategySimple, PlanOptions{}).Run()
	if len(items) < 2 {
		t.Fatalf("fixture has %d items", len(items))
	}
	// The literal probe compares string values in its own buffer, which the
	// warm-up pass over every item sizes.
	for _, src := range []string{"/site//item[mailbox/mail//keyword]", `/site//item[.//keyword="soul"]`} {
		steps := xpath.MustParse(dict, src).Simplify().Steps
		pp := predProbes{es: NewEvalState(st, steps), preds: steps[len(steps)-1].Predicates}
		for _, it := range items {
			pp.matches(it.Node)
		}
		k := 0
		if n := testing.AllocsPerRun(200, func() {
			k++
			pp.matches(items[k%len(items)].Node)
		}); n != 0 {
			t.Fatalf("%s: compiled probe allocates %v per candidate, want 0", src, n)
		}
	}
}

// TestSimplePlanAllocatesNoMoreThanSchedule: on resident data the cost
// model picks Simple, so with a warm arena its plan must be no dearer in
// allocations than the XSchedule plan it replaces (Q6').
func TestSimplePlanAllocatesNoMoreThanSchedule(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	dict, st := xmarkFixture(t)
	steps := xpath.MustParse(dict, "/site/regions//item").Simplify().Steps
	arena := NewArena()
	allocs := func(strat Strategy) float64 {
		run := func() { BuildPlan(st, steps, st.Roots(), strat, PlanOptions{Arena: arena}).Count() }
		run() // load the clusters, size the arena
		return testing.AllocsPerRun(20, run)
	}
	simple, sched := allocs(StrategySimple), allocs(StrategySchedule)
	if simple > sched {
		t.Fatalf("warm Simple plan allocates %v per run, XSchedule %v", simple, sched)
	}
}

// TestResidentJoinAllocations pins the steady state of a join whose sets
// are resident: with a warm arena it allocates at most 40 objects more than
// the flat plan of the same path (keys rendered for the lookups, the
// compiled predicate, the plan's two extra operators).
func TestResidentJoinAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	dict, st := xmarkFixture(t)
	arena := NewArena()
	allocs := func(src string) float64 {
		steps := xpath.MustParse(dict, src).Simplify().Steps
		run := func() {
			BuildPlan(st, steps, st.Roots(), StrategySimple, PlanOptions{Arena: arena, PredEval: PredJoin}).Count()
		}
		run() // load the clusters, build the levels, size the arena
		run()
		return testing.AllocsPerRun(20, run)
	}
	flat, join := allocs("/site//item"), allocs("/site//item[mailbox/mail//keyword]")
	t.Logf("flat %v, resident join %v allocations per run", flat, join)
	if join > flat+40 {
		t.Fatalf("resident join allocates %v per run, the flat plan %v", join, flat)
	}
}
