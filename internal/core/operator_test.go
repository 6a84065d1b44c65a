package core

import (
	"strings"
	"testing"

	"pathdb/internal/rng"
	"pathdb/internal/xmltree"

	"pathdb/internal/storage"
	"pathdb/internal/xpath"
)

// miniTree reuses the paper's four-cluster tree as an operator-level
// fixture: context d1, the two steps of /A//B.
func miniTree(t testing.TB) (*storage.Store, storage.NodeID, xpath.Step, xpath.Step) {
	t.Helper()
	_, st, path := paperTree(t)
	ctx := paperContext(t, st)
	return st, ctx, path[0], path[1]
}

func TestXStepPassesThroughInapplicable(t *testing.T) {
	st, ctx, _, _ := miniTree(t)
	es := NewEvalState(st, []xpath.Step{
		{Axis: xpath.Child, Test: xpath.Wildcard()},
		{Axis: xpath.Child, Test: xpath.Wildcard()},
	})
	// Feed an instance with S_R = 1 into XStep_1 (applicable only to
	// S_R = 0): it must come out unchanged.
	in := Instance{SL: 0, NL: ctx, SR: 1, NR: ctx}
	x := NewXStep(es, &sliceOp{es: es, items: []Instance{in}}, 1)
	x.Open()
	out, ok := x.Next()
	if !ok || out.SL != in.SL || out.SR != in.SR || out.NL != in.NL || out.NR != in.NR {
		t.Fatalf("passthrough failed: %v %v", out, ok)
	}
	if _, ok := x.Next(); ok {
		t.Fatal("extra output")
	}
	x.Close()
}

func TestXStepExtendsAndStopsAtBorders(t *testing.T) {
	st, ctx, step1, _ := miniTree(t)
	es := NewEvalState(st, []xpath.Step{step1})
	x := NewXStep(es, &sliceOp{es: es, items: []Instance{ContextInstance(ctx)}}, 1)
	x.Open()
	defer x.Close()

	borders, cores := 0, 0
	for {
		out, ok := x.Next()
		if !ok {
			break
		}
		if out.NRBorder {
			borders++
			if out.SR != 0 {
				t.Fatalf("border instance has S_R = %d, want 0 (= i-1)", out.SR)
			}
			if out.TargetR == 0 {
				t.Fatal("border instance missing TargetR")
			}
		} else {
			cores++
			if out.SR != 1 {
				t.Fatalf("core instance has S_R = %d, want 1", out.SR)
			}
			if len(out.Ord) == 0 {
				t.Fatal("core instance missing ord key")
			}
		}
	}
	// d1's A children both live across borders (clusters a and c): the
	// intra-cluster step yields exactly two right-incomplete instances
	// and no core results (d4 fails the test and stays unreported).
	if borders != 2 || cores != 0 {
		t.Fatalf("borders=%d cores=%d, want 2/0", borders, cores)
	}
}

func TestXStepCrossBordersProducesFinals(t *testing.T) {
	st, ctx, step1, _ := miniTree(t)
	es := NewEvalState(st, []xpath.Step{step1})
	x := NewXStep(es, &sliceOp{es: es, items: []Instance{ContextInstance(ctx)}}, 1)
	x.CrossBorders = true
	x.Open()
	defer x.Close()
	cores := 0
	for {
		out, ok := x.Next()
		if !ok {
			break
		}
		if out.NRBorder {
			t.Fatal("crossing XStep emitted a border")
		}
		cores++
	}
	if cores != 2 {
		t.Fatalf("cores = %d, want 2 (a2 and c2)", cores)
	}
}

func TestXAssemblyDeduplicatesFinals(t *testing.T) {
	st, ctx, _, _ := miniTree(t)
	es := NewEvalState(st, []xpath.Step{{Axis: xpath.Child, Test: xpath.Wildcard()}})
	full := Instance{SL: 0, NL: ctx, SR: 1, NR: storage.MakeNodeID(1, 1)}
	a := NewXAssembly(es, &sliceOp{es: es, items: []Instance{full, full, full}}, nil)
	a.Open()
	defer a.Close()
	n := 0
	for {
		if _, ok := a.Next(); !ok {
			break
		}
		n++
	}
	if n != 1 {
		t.Fatalf("duplicates returned: %d", n)
	}
}

func TestXAssemblyMergesSpeculativeChains(t *testing.T) {
	// Hand-built merge: speculative x says "reachable(1, b) => result r",
	// then a right-incomplete path makes (1, b) reachable; XAssembly must
	// emit r exactly once. The border NodeIDs come from the paper tree.
	st, ctx, _, step2 := miniTree(t)
	_ = step2
	es := NewEvalState(st, []xpath.Step{
		{Axis: xpath.Child, Test: xpath.Wildcard()},
		{Axis: xpath.Child, Test: xpath.Wildcard()},
	})

	// Find a real border pair (pc in cluster d, pp elsewhere).
	var pc, pp storage.NodeID
	for _, b := range st.BordersOf(ctx.Page()) {
		cur := st.Swizzle(b)
		if cur.RecKind() == storage.RecProxyChild {
			pc, pp = b, cur.Target()
			break
		}
	}
	if pc == 0 || pp == 0 {
		t.Fatal("no border pair found")
	}

	result := storage.MakeNodeID(1, 1)
	spec := Instance{SL: 1, NL: pp, NLBorder: true, SR: 2, NR: result}
	crossing := Instance{SL: 0, NL: ctx, SR: 1, NR: pc, NRBorder: true, TargetR: pp}

	a := NewXAssembly(es, &sliceOp{es: es, items: []Instance{spec, crossing}}, nil)
	a.Open()
	defer a.Close()
	var got []Instance
	for {
		out, ok := a.Next()
		if !ok {
			break
		}
		got = append(got, out)
	}
	if len(got) != 1 || got[0].NR != result {
		t.Fatalf("merge failed: %v", got)
	}
	if a.SLen() != 0 {
		t.Fatalf("S not drained: %d", a.SLen())
	}
}

func TestXAssemblySpeculativeStaysParkedWhenUnreachable(t *testing.T) {
	st, _, _, _ := miniTree(t)
	es := NewEvalState(st, []xpath.Step{{Axis: xpath.Child, Test: xpath.Wildcard()}})
	ghost := storage.MakeNodeID(2, 0)
	spec := Instance{SL: 1, NL: ghost, NLBorder: true, SR: 1, NR: storage.MakeNodeID(1, 1)}
	a := NewXAssembly(es, &sliceOp{es: es, items: []Instance{spec}}, nil)
	a.Open()
	defer a.Close()
	if _, ok := a.Next(); ok {
		t.Fatal("unreachable speculation produced a result")
	}
	if a.SLen() != 1 {
		t.Fatalf("S len = %d, want 1", a.SLen())
	}
}

func TestXScheduleGroupsByCluster(t *testing.T) {
	// Instances for interleaved clusters must come back grouped.
	st, ctx, _, _ := miniTree(t)
	es := NewEvalState(st, nil)
	pageA := storage.MakeNodeID(1, 1)
	pageC := storage.MakeNodeID(3, 1)
	seeds := []Instance{
		ContextInstance(pageA), ContextInstance(pageC),
		ContextInstance(pageA), ContextInstance(pageC),
		ContextInstance(ctx),
	}
	x := NewXSchedule(es, &sliceOp{es: es, items: seeds})
	x.Open()
	defer x.Close()
	var pages []uint32
	for {
		out, ok := x.Next()
		if !ok {
			break
		}
		pages = append(pages, uint32(out.NR.Page()))
	}
	if len(pages) != 5 {
		t.Fatalf("returned %d instances", len(pages))
	}
	// Count cluster switches: grouped output switches at most twice.
	switches := 0
	for i := 1; i < len(pages); i++ {
		if pages[i] != pages[i-1] {
			switches++
		}
	}
	if switches > 2 {
		t.Fatalf("instances not grouped by cluster: %v", pages)
	}
}

func TestXScheduleShortestPathsFirstWithinCluster(t *testing.T) {
	st, _, _, _ := miniTree(t)
	es := NewEvalState(st, nil)
	target := storage.MakeNodeID(1, 1)
	long := Instance{SL: 0, NL: target, SR: 2, NR: target}
	short := Instance{SL: 0, NL: target, SR: 1, NR: target}
	x := NewXSchedule(es, &sliceOp{es: es, items: []Instance{long, short}})
	x.Open()
	defer x.Close()
	first, _ := x.Next()
	if first.SR != 1 {
		t.Fatalf("expected smallest S_R first, got %d", first.SR)
	}
}

func TestXScanSpeculatesPerBorderAndStep(t *testing.T) {
	st, ctx, step1, step2 := miniTree(t)
	es := NewEvalState(st, []xpath.Step{step1, step2})
	ids := []storage.NodeID{ctx}
	SortContexts(ids)
	x := NewXScan(es, NewContextOp(es, ids))
	x.Open()
	defer x.Close()
	spec, ctxs := 0, 0
	for {
		out, ok := x.Next()
		if !ok {
			break
		}
		if out.NLBorder {
			spec++
			if out.SL != out.SR || out.NL != out.NR {
				t.Fatalf("malformed speculative seed %v", out)
			}
			if out.SL < 0 || out.SL >= 2 {
				t.Fatalf("seed step out of range: %v", out)
			}
		} else {
			ctxs++
		}
	}
	// 6 border records (3 proxy pairs) × 2 steps = 12 seeds + 1 context.
	if spec != 12 || ctxs != 1 {
		t.Fatalf("spec=%d ctxs=%d, want 12/1", spec, ctxs)
	}
}

func TestMultiPlanMatchesSeparatePlans(t *testing.T) {
	dict, doc := buildTree(99, 300)
	st := importTree(t, dict, doc, 512, storage.LayoutShuffled)
	paths := []string{"//b", "/a//c", "//d/.."}

	var want []int
	for _, src := range paths {
		st.ResetForRun()
		steps := xpath.MustParse(dict, src).Simplify().Steps
		want = append(want, BuildPlan(st, steps, []storage.NodeID{st.Root()}, StrategySchedule, PlanOptions{}).Count())
	}

	st.ResetForRun()
	var queries []MultiQuery
	for _, src := range paths {
		queries = append(queries, MultiQuery{
			Path:     xpath.MustParse(dict, src).Simplify().Steps,
			Contexts: []storage.NodeID{st.Root()},
		})
	}
	got := BuildMultiPlan(st, queries, PlanOptions{}).Counts()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("multi plan count[%d] = %d, want %d", i, got[i], want[i])
		}
	}
}

func TestMultiPlanResultsDetailed(t *testing.T) {
	dict, doc := buildTree(7, 200)
	st := importTree(t, dict, doc, 512, storage.LayoutNatural)
	queries := []MultiQuery{
		{Path: xpath.MustParse(dict, "//b").Simplify().Steps, Contexts: []storage.NodeID{st.Root()}},
		{Path: xpath.MustParse(dict, "//c").Simplify().Steps, Contexts: []storage.NodeID{st.Root()}},
	}
	st.ResetForRun()
	rs := BuildMultiPlan(st, queries, PlanOptions{}).Run()
	if len(rs) != 2 {
		t.Fatal("result arity")
	}
	for qi, results := range rs {
		seen := map[storage.NodeID]bool{}
		for _, r := range results {
			if seen[r.Node] {
				t.Fatalf("query %d returned duplicate %v", qi, r.Node)
			}
			seen[r.Node] = true
		}
	}
}

func BenchmarkXStepIntraCluster(b *testing.B) {
	dict, doc := buildTree(1, 500)
	st := importTree(b, dict, doc, 8192, storage.LayoutContiguous)
	steps := xpath.MustParse(dict, "/a//b").Simplify().Steps
	for i := 0; i < b.N; i++ {
		st.ResetForRun()
		BuildPlan(st, steps, []storage.NodeID{st.Root()}, StrategyScan, PlanOptions{}).Count()
	}
}

func BenchmarkSimplePlan(b *testing.B) {
	dict, doc := buildTree(1, 500)
	st := importTree(b, dict, doc, 512, storage.LayoutShuffled)
	steps := xpath.MustParse(dict, "//c").Simplify().Steps
	for i := 0; i < b.N; i++ {
		st.ResetForRun()
		BuildPlan(st, steps, []storage.NodeID{st.Root()}, StrategySimple, PlanOptions{}).Count()
	}
}

func TestDescribeRendersOperatorTree(t *testing.T) {
	dict, doc := buildTree(4, 100)
	st := importTree(t, dict, doc, 512, storage.LayoutNatural)
	steps := xpath.MustParse(dict, "/a//b").Simplify().Steps

	sched := BuildPlan(st, steps, []storage.NodeID{st.Root()}, StrategySchedule, PlanOptions{}).Describe(dict)
	for _, want := range []string{"XAssembly", "XStep₂(descendant::b)", "XStep₁(child::a)", "XSchedule(k=100", "Context(1 nodes)"} {
		if !strings.Contains(sched, want) {
			t.Fatalf("schedule describe missing %q:\n%s", want, sched)
		}
	}
	scan := BuildPlan(st, steps, []storage.NodeID{st.Root()}, StrategyScan, PlanOptions{SortResults: true}).Describe(dict)
	for _, want := range []string{"SortByDocumentOrder", "XScan(", "feedback→none", "order: sorted"} {
		if !strings.Contains(scan, want) {
			t.Fatalf("scan describe missing %q:\n%s", want, scan)
		}
	}
	// A dup-free, ordered path: the Simple plan is the bare chain, sorted
	// or not; a second descendant step brings Distinct and the sort back.
	simple := BuildPlan(st, steps, []storage.NodeID{st.Root()}, StrategySimple, PlanOptions{SortResults: true}).Describe(dict)
	if !strings.Contains(simple, "unnest-map") || !strings.HasSuffix(simple, "order: document (no sort)\n") ||
		strings.Contains(simple, "Distinct") || strings.Contains(simple, "SortByDocumentOrder") {
		t.Fatalf("simple describe of /a//b:\n%s", simple)
	}
	twice := xpath.MustParse(dict, "/a//b//c").Simplify().Steps
	simple = BuildPlan(st, twice, []storage.NodeID{st.Root()}, StrategySimple, PlanOptions{SortResults: true}).Describe(dict)
	for _, want := range []string{"SortByDocumentOrder\n  Distinct\n", "unnest-map", "order: sorted"} {
		if !strings.Contains(simple, want) {
			t.Fatalf("simple describe of /a//b//c missing %q:\n%s", want, simple)
		}
	}
}

func TestQueriesOverCollection(t *testing.T) {
	dict := xmltree.NewDictionary()
	var docs []*xmltree.Node
	wantB := 0
	r := rng.New(77)
	for i := 0; i < 4; i++ {
		_, doc := buildTree(uint64(i)*13+1, 80)
		// Rebuild with shared dict: buildTree uses its own dict; instead
		// construct directly here.
		_ = doc
		b := xmltree.NewBuilder(dict)
		b.Begin("a")
		n := 5 + int(r.Uint64()%10)
		for j := 0; j < n; j++ {
			b.Leaf("b", "x")
		}
		b.End()
		docs = append(docs, b.Doc())
		wantB += n
	}
	disk := newDisk(512)
	st, err := storage.ImportCollection(disk, dict, docs, storage.ImportOptions{PageSize: 512, Layout: storage.LayoutShuffled})
	if err != nil {
		t.Fatal(err)
	}
	steps := xpath.MustParse(dict, "//b").Simplify().Steps
	for _, strat := range allStrategies {
		st.ResetForRun()
		plan := BuildPlan(st, steps, st.Roots(), strat, PlanOptions{})
		if got := plan.Count(); got != wantB {
			t.Fatalf("%v over collection = %d, want %d", strat, got, wantB)
		}
	}
}

// --- micro-benchmarks per operator -------------------------------------------

func benchStore(b *testing.B) (*storage.Store, *xmltree.Dictionary) {
	dict, doc := buildTree(1, 2000)
	st := importTree(b, dict, doc, 8192, storage.LayoutNatural)
	return st, dict
}

func BenchmarkXScheduleQ(b *testing.B) {
	st, dict := benchStore(b)
	steps := xpath.MustParse(dict, "//b").Simplify().Steps
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st.ResetForRun()
		BuildPlan(st, steps, []storage.NodeID{st.Root()}, StrategySchedule, PlanOptions{}).Count()
	}
}

func BenchmarkXScanQ(b *testing.B) {
	st, dict := benchStore(b)
	steps := xpath.MustParse(dict, "//b").Simplify().Steps
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st.ResetForRun()
		BuildPlan(st, steps, []storage.NodeID{st.Root()}, StrategyScan, PlanOptions{}).Count()
	}
}

func BenchmarkSortedResults(b *testing.B) {
	st, dict := benchStore(b)
	steps := xpath.MustParse(dict, "//b").Simplify().Steps
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st.ResetForRun()
		BuildPlan(st, steps, []storage.NodeID{st.Root()}, StrategyScan,
			PlanOptions{SortResults: true}).Run()
	}
}

func BenchmarkPredicateFilter(b *testing.B) {
	st, dict := benchStore(b)
	steps := xpath.MustParse(dict, "//b[c]").Simplify().Steps
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st.ResetForRun()
		BuildPlan(st, steps, []storage.NodeID{st.Root()}, StrategySchedule, PlanOptions{}).Count()
	}
}
