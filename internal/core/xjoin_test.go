package core

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"

	"pathdb/internal/storage"
	"pathdb/internal/xmltree"
	"pathdb/internal/xpath"
)

// xjoinPaths exercises every join-relevant shape: child/descendant/
// attribute branches, literals, nested predicates, unions, multi-level
// branches, recursion under predicates, bounded repetition, and the
// non-joinable axes that force the per-candidate fallback inside XJoin.
var xjoinPaths = []string{
	`/lib/book[meta]`,
	`/lib/book[@lang]`,
	`/lib/book[@lang="en"]/title`,
	`//book[meta/year="1992"]`,
	`//book[meta][@lang]`,
	`//book[title="t9"]`,
	`//book[meta/year]`,
	`//book[//year]`,
	`//book[.//year="1991"]`,
	`//book[meta[year]]`,
	`//book[title|meta]`,
	`//book[(meta/year){1}]`,
	`/lib/book[..]`,          // parent axis: fallback branch
	`//year[ancestor::book]`, // ancestor axis: fallback branch
	`//book[.]`,
	`//book[.="x"]`,
}

func xjoinFixture(t testing.TB) (*xmltree.Dictionary, *xmltree.Node, *storage.Store) {
	dict := xmltree.NewDictionary()
	b := xmltree.NewBuilder(dict)
	b.Begin("lib")
	for i := 0; i < 40; i++ {
		b.Begin("book")
		if i%3 == 0 {
			b.Attr("lang", "en")
		}
		b.Leaf("title", fmt.Sprintf("t%d", i))
		if i%2 == 0 {
			b.Begin("meta").Leaf("year", fmt.Sprintf("%d", 1990+i%5)).End()
		}
		b.End()
	}
	b.End()
	doc := b.Doc()
	return dict, doc, importTree(t, dict, doc, 256, storage.LayoutShuffled)
}

// TestXJoinMatchesReferenceAllStrategies drives the structural-join
// evaluator across every strategy and path shape and compares against the
// logical-tree reference (and hence, transitively, against PredFilter,
// which TestPredicatesAllStrategies holds to the same reference).
func TestXJoinMatchesReferenceAllStrategies(t *testing.T) {
	dict, doc, st := xjoinFixture(t)
	for _, src := range xjoinPaths {
		parsed := xpath.MustParse(dict, src).Simplify()
		want := logicalKeySet(doc, evalPathLogicalPred(doc, parsed.Steps))
		for _, strat := range allStrategies {
			got := resultKeySet(st, runStrategy(t, st, parsed.Steps, strat, PlanOptions{PredEval: PredJoin}))
			if strings.Join(got, "\n") != strings.Join(want, "\n") {
				t.Fatalf("%v on %q:\nwant %v\ngot  %v", strat, src, want, got)
			}
		}
	}
}

// TestXJoinPropertyRandomTrees mirrors TestPredicatesPropertyRandomTrees
// with the join evaluator.
func TestXJoinPropertyRandomTrees(t *testing.T) {
	srcs := []string{"//a[b]", "/a//c[d]", "//a[b/c]", `//b[.="t"]`, "//a[.//c]", "//a[b|c]", "//a[(b){1,2}]"}
	f := func(seed uint64, pi uint8) bool {
		dict, doc := buildTree(seed, 120)
		st := importTree(t, dict, doc, 256, storage.LayoutShuffled)
		src := srcs[int(pi)%len(srcs)]
		parsed := xpath.MustParse(dict, src).Simplify()
		want := logicalKeySet(doc, evalPathLogicalPred(doc, parsed.Steps))
		for _, strat := range allStrategies {
			got := resultKeySet(st, runStrategy(t, st, parsed.Steps, strat, PlanOptions{PredEval: PredJoin}))
			if strings.Join(got, "\n") != strings.Join(want, "\n") {
				t.Logf("seed=%d src=%q strat=%v\nwant %v\ngot  %v", seed, src, strat, want, got)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// TestXJoinCachesEmptyFilterSets pins the empty-set round-trip through
// the derived cache: a branch with zero matches must be cached as a
// present (if hollow) S_1 and an empty level as a present level — resident
// for JoinNeeds and served on the next compile — not silently rebuilt with
// a whole-document enumeration on every query while the chooser prices the
// build as free.
func TestXJoinCachesEmptyFilterSets(t *testing.T) {
	dict, _, st := xjoinFixture(t)
	// Two levels with an empty lower level: branchFilterSet's bottom-up
	// loop stops early, the shape that used to decay into a cache miss on
	// every Get.
	parsed := xpath.MustParse(dict, `//book[meta/zzz]`).Simplify()
	run := func() int {
		plan := BuildPlan(st, parsed.Steps, []storage.NodeID{st.Root()}, StrategySimple,
			PlanOptions{PredEval: PredJoin})
		return len(plan.Run())
	}
	if n := run(); n != 0 {
		t.Fatalf("query over absent tag returned %d nodes", n)
	}
	pred := parsed.Steps[len(parsed.Steps)-1].Predicates[0]
	if need := JoinNeeds(st, pred.Paths[0], pred); need.Missing != nil {
		t.Fatalf("empty filter set not resident in the derived cache after the first join: %+v", need)
	}
	dcache, epoch, ok := st.Derived()
	if !ok {
		t.Fatal("store has no derived cache")
	}
	steps, _ := joinableSteps(pred.Paths[0])
	if _, ok := dcache.Get(epoch, joinBranchKey(dict, steps)); !ok {
		t.Fatal("S_1 key missing from the derived cache")
	}
	if v, ok := dcache.Get(epoch, LevelKey(dict, steps[1])); !ok || len(v.(*storage.Level).Ords) != 0 {
		t.Fatalf("empty level not cached as a present level: %v %v", v, ok)
	}
	hits, misses := dcache.Stats()
	if n := run(); n != 0 {
		t.Fatalf("second run returned %d nodes", n)
	}
	if h, m := dcache.Stats(); h != hits+1 || m != misses {
		t.Fatalf("second run: %d hits, %d misses, want one S_1 hit and no miss (a level was rebuilt)", h-hits, m-misses)
	}
}

// TestXJoinDegradesUnderMemLimit forces the buffer over the plan's memory
// limit so the operator switches to per-candidate evaluation mid-run.
func TestXJoinDegradesUnderMemLimit(t *testing.T) {
	dict, doc, st := xjoinFixture(t)
	parsed := xpath.MustParse(dict, `//book[meta]`).Simplify()
	want := logicalKeySet(doc, evalPathLogicalPred(doc, parsed.Steps))
	got := resultKeySet(st, runStrategy(t, st, parsed.Steps, StrategySimple,
		PlanOptions{PredEval: PredJoin, MemLimit: 3}))
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("degraded run diverged:\nwant %v\ngot  %v", want, got)
	}
}

// TestMultiPlanHonorsPredicates is the regression test for the
// shared-scheduler predicate gap: BuildMultiPlan used to build bare XStep
// chains, silently dropping every predicate of a union branch. Both
// evaluators must filter inside a multi-plan exactly as in a solo plan.
func TestMultiPlanHonorsPredicates(t *testing.T) {
	dict, doc, st := xjoinFixture(t)
	srcs := []string{`//book[meta/year="1992"]`, `//book[@lang]`, `//title`}
	for _, pe := range []PredEval{PredNested, PredJoin} {
		var queries []MultiQuery
		var want [][]string
		for _, src := range srcs {
			steps := xpath.MustParse(dict, src).Simplify().Steps
			queries = append(queries, MultiQuery{Path: steps, Contexts: []storage.NodeID{st.Root()}})
			want = append(want, logicalKeySet(doc, evalPathLogicalPred(doc, steps)))
		}
		st.ResetForRun()
		results := BuildMultiPlan(st, queries, PlanOptions{PredEval: pe}).Run()
		for i, rs := range results {
			got := resultKeySet(st, rs)
			if strings.Join(got, "\n") != strings.Join(want[i], "\n") {
				t.Fatalf("%v multi-plan member %q:\nwant %v\ngot  %v", pe, srcs[i], want[i], got)
			}
		}
	}
}

func TestXJoinDescribe(t *testing.T) {
	dict, doc := buildTree(4, 50)
	st := importTree(t, dict, doc, 512, storage.LayoutNatural)
	steps := xpath.MustParse(dict, "/a//b[c]").Simplify().Steps
	desc := BuildPlan(st, steps, []storage.NodeID{st.Root()}, StrategySchedule,
		PlanOptions{PredEval: PredJoin}).Describe(dict)
	if !strings.Contains(desc, "XJoin(step 2, 1 predicates, structural semi-join)") {
		t.Fatalf("describe missing join:\n%s", desc)
	}
}

// TestPlanReportsPredEval: a plan reports the evaluator its predicate steps
// run with — PredAuto resolved by AutoPredEval on its own store, a forced
// evaluator as given — in a solo plan and per member of a multi-plan.
func TestPlanReportsPredEval(t *testing.T) {
	dict, _, st := xjoinFixture(t)
	pred := xpath.MustParse(dict, `//book[meta]`).Simplify().Steps
	bare := xpath.MustParse(dict, `//title`).Simplify().Steps
	if AutoPredEval(st, pred) != PredJoin || AutoPredEval(st, bare) != PredNested {
		t.Fatalf("rule: %v on a joinable branch, %v without predicates",
			AutoPredEval(st, pred), AutoPredEval(st, bare))
	}
	roots := []storage.NodeID{st.Root()}
	for _, c := range []struct {
		path []xpath.Step
		pe   PredEval
		want PredEval
	}{
		{pred, PredAuto, PredJoin},
		{pred, PredNested, PredNested},
		{bare, PredAuto, PredNested},
	} {
		if got := BuildPlan(st, c.path, roots, StrategySchedule, PlanOptions{PredEval: c.pe}).PredEval; got != c.want {
			t.Fatalf("solo plan with %v: %v, want %v", c.pe, got, c.want)
		}
	}
	mp := BuildMultiPlan(st, []MultiQuery{
		{Path: pred, Contexts: roots},
		{Path: pred, Contexts: roots, PredEval: PredNested},
		{Path: bare, Contexts: roots},
	}, PlanOptions{})
	defer mp.Close()
	if want := []PredEval{PredJoin, PredNested, PredNested}; fmt.Sprint(mp.PredEvals) != fmt.Sprint(want) {
		t.Fatalf("multi-plan members: %v, want %v", mp.PredEvals, want)
	}
}
