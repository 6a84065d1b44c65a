package core

import (
	"fmt"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"pathdb/internal/rng"
	"pathdb/internal/stats"
	"pathdb/internal/storage"
	"pathdb/internal/vdisk"
	"pathdb/internal/xmltree"
	"pathdb/internal/xpath"
)

// --- fixtures ---------------------------------------------------------------

func newDisk(pageSize int) *vdisk.Disk {
	return vdisk.New(vdisk.DefaultCostModel(), stats.NewLedger(), pageSize)
}

func buildTree(seed uint64, n int) (*xmltree.Dictionary, *xmltree.Node) {
	r := rng.New(seed)
	dict := xmltree.NewDictionary()
	tags := []xmltree.TagID{dict.Intern("a"), dict.Intern("b"), dict.Intern("c"), dict.Intern("d")}
	doc := xmltree.NewDocument()
	root := xmltree.NewElement(tags[0])
	doc.AppendChild(root)
	nodes := []*xmltree.Node{root}
	for i := 1; i < n; i++ {
		parent := nodes[r.Intn(len(nodes))]
		e := xmltree.NewElement(tags[r.Intn(len(tags))])
		parent.AppendChild(e)
		if r.Bool(0.3) {
			e.AppendChild(xmltree.NewText("t"))
		}
		nodes = append(nodes, e)
	}
	return dict, doc
}

func importTree(t testing.TB, dict *xmltree.Dictionary, doc *xmltree.Node, pageSize int, layout storage.Layout) *storage.Store {
	t.Helper()
	st, err := storage.Import(newDisk(pageSize), dict, doc, storage.ImportOptions{
		PageSize: pageSize, Layout: layout, Seed: 99,
	})
	if err != nil {
		t.Fatalf("Import: %v", err)
	}
	return st
}

// --- logical reference evaluation --------------------------------------------

func logicalAxisNodes(n *xmltree.Node, axis xpath.Axis) []*xmltree.Node {
	var out []*xmltree.Node
	switch axis {
	case xpath.Self:
		out = []*xmltree.Node{n}
	case xpath.Child:
		out = append(out, n.Children...)
	case xpath.Descendant, xpath.DescendantOrSelf:
		n.Walk(func(m *xmltree.Node) bool {
			if m != n || axis == xpath.DescendantOrSelf {
				out = append(out, m)
			}
			return true
		})
	case xpath.Parent:
		if n.Parent != nil {
			out = []*xmltree.Node{n.Parent}
		}
	case xpath.Ancestor, xpath.AncestorOrSelf:
		start := n.Parent
		if axis == xpath.AncestorOrSelf {
			start = n
		}
		for p := start; p != nil; p = p.Parent {
			out = append(out, p)
		}
	case xpath.FollowingSibling, xpath.PrecedingSibling:
		if n.Parent == nil {
			return nil
		}
		sibs := n.Parent.Children
		idx := -1
		for i, s := range sibs {
			if s == n {
				idx = i
			}
		}
		if idx < 0 {
			return nil
		}
		if axis == xpath.FollowingSibling {
			out = append(out, sibs[idx+1:]...)
		} else {
			out = append(out, sibs[:idx]...)
		}
	case xpath.AttributeAxis:
		out = append(out, n.Attrs...)
	}
	return out
}

func evalPathLogical(doc *xmltree.Node, path []xpath.Step) []*xmltree.Node {
	cur := []*xmltree.Node{doc}
	for _, s := range path {
		var next []*xmltree.Node
		seen := map[*xmltree.Node]bool{}
		for _, n := range cur {
			for _, m := range logicalAxisNodes(n, s.Axis) {
				if s.Test.Matches(m.Kind, m.Tag) && !seen[m] {
					seen[m] = true
					next = append(next, m)
				}
			}
		}
		cur = next
	}
	return cur
}

// resultKeySet converts plan results to a sorted identity-set: the node's
// kind|ord|tag|text signature obtained by swizzling.
func resultKeySet(st *storage.Store, rs []Result) []string {
	keys := make([]string, len(rs))
	for i, r := range rs {
		c := st.Swizzle(r.Node)
		keys[i] = fmt.Sprintf("%d|%s|%d|%s", c.Kind(), c.OrdKey(), c.Tag(), c.Text())
	}
	sort.Strings(keys)
	return keys
}

func logicalKeySet(doc *xmltree.Node, nodes []*xmltree.Node) []string {
	// Recompute ord keys the same way the importer does.
	ords := map[*xmltree.Node]string{}
	var walk func(n *xmltree.Node, ord string)
	walk = func(n *xmltree.Node, ord string) {
		for i, ch := range n.Children {
			k := ord
			if k != "" {
				k += "."
			}
			k += fmt.Sprintf("%d", (i+1)*2)
			ords[ch] = k
			walk(ch, k)
		}
	}
	walk(doc, "")
	keys := make([]string, len(nodes))
	for i, n := range nodes {
		keys[i] = fmt.Sprintf("%d|%s|%d|%s", n.Kind, ords[n], n.Tag, n.Text)
	}
	sort.Strings(keys)
	return keys
}

func runStrategy(t testing.TB, st *storage.Store, path []xpath.Step, strat Strategy, opts PlanOptions) []Result {
	t.Helper()
	st.ResetForRun()
	plan := BuildPlan(st, path, []storage.NodeID{st.Root()}, strat, opts)
	return plan.Run()
}

var allStrategies = []Strategy{StrategySimple, StrategySchedule, StrategyScan}

// checkAllStrategies asserts that every strategy returns exactly the
// logical reference result set.
func checkAllStrategies(t *testing.T, dict *xmltree.Dictionary, doc *xmltree.Node, st *storage.Store, pathSrc string, opts PlanOptions) {
	t.Helper()
	parsed := xpath.MustParse(dict, pathSrc)
	path := parsed.Simplify().Steps
	want := logicalKeySet(doc, evalPathLogical(doc, path))
	for _, strat := range allStrategies {
		got := resultKeySet(st, runStrategy(t, st, path, strat, opts))
		if strings.Join(got, "\n") != strings.Join(want, "\n") {
			t.Fatalf("%v on %q:\nwant (%d): %v\ngot (%d): %v",
				strat, pathSrc, len(want), want, len(got), got)
		}
	}
}

// --- strategy equivalence ----------------------------------------------------

func TestStrategiesAgreeOnFixedPaths(t *testing.T) {
	dict, doc := buildTree(21, 400)
	st := importTree(t, dict, doc, 512, storage.LayoutShuffled)
	for _, src := range []string{
		"/a",
		"/a/b",
		"/a//b",
		"//c",
		"//b//c",
		"/a/descendant-or-self::node()",
		"//d/..",
		"//c/ancestor::a",
		"//b/following-sibling::c",
		"//b/preceding-sibling::*",
		"//text()",
		"/*/*",
	} {
		checkAllStrategies(t, dict, doc, st, src, PlanOptions{})
	}
}

func TestStrategiesAgreeProperty(t *testing.T) {
	paths := []string{
		"/a//b", "//c", "/a/b/c", "//b/..", "//d//b", "/a//*",
		"//c/self::c", "//a/ancestor-or-self::a",
	}
	f := func(seed uint64, pi uint8) bool {
		dict, doc := buildTree(seed, 150)
		st := importTree(t, dict, doc, 256, storage.LayoutShuffled)
		src := paths[int(pi)%len(paths)]
		parsed := xpath.MustParse(dict, src).Simplify()
		want := logicalKeySet(doc, evalPathLogical(doc, parsed.Steps))
		variants := []PlanOptions{{}, {Speculative: true}, {K: 4}, {MemLimit: 16}}
		for _, strat := range allStrategies {
			for vi, opts := range variants {
				got := resultKeySet(st, runStrategy(t, st, parsed.Steps, strat, opts))
				if strings.Join(got, "\n") != strings.Join(want, "\n") {
					t.Logf("seed=%d path=%q strat=%v variant=%d\nwant %v\ngot  %v", seed, src, strat, vi, want, got)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestSpeculativeScheduleAgrees(t *testing.T) {
	dict, doc := buildTree(33, 300)
	st := importTree(t, dict, doc, 512, storage.LayoutShuffled)
	for _, src := range []string{"/a//b", "//c", "/a/b/c", "//b/.."} {
		parsed := xpath.MustParse(dict, src).Simplify()
		want := logicalKeySet(doc, evalPathLogical(doc, parsed.Steps))
		got := resultKeySet(st, runStrategy(t, st, parsed.Steps, StrategySchedule, PlanOptions{Speculative: true}))
		if strings.Join(got, "\n") != strings.Join(want, "\n") {
			t.Fatalf("speculative schedule on %q differs:\nwant %v\ngot  %v", src, want, got)
		}
	}
}

func TestFallbackModeAgrees(t *testing.T) {
	dict, doc := buildTree(55, 400)
	st := importTree(t, dict, doc, 512, storage.LayoutShuffled)
	parsed := xpath.MustParse(dict, "//b").Simplify()
	want := logicalKeySet(doc, evalPathLogical(doc, parsed.Steps))

	// A tiny S budget must force fallback on an XScan plan and still
	// return the right answer.
	st.ResetForRun()
	plan := BuildPlan(st, parsed.Steps, []storage.NodeID{st.Root()}, StrategyScan, PlanOptions{MemLimit: 4})
	got := resultKeySet(st, plan.Run())
	if !plan.State().Fallback() {
		t.Fatal("MemLimit=4 did not trigger fallback")
	}
	if st.Ledger().FallbackEvents != 1 {
		t.Fatalf("fallback events = %d", st.Ledger().FallbackEvents)
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("fallback results differ:\nwant %v\ngot  %v", want, got)
	}
}

func TestFallbackOnScheduleAgrees(t *testing.T) {
	dict, doc := buildTree(56, 400)
	st := importTree(t, dict, doc, 512, storage.LayoutShuffled)
	parsed := xpath.MustParse(dict, "//c").Simplify()
	want := logicalKeySet(doc, evalPathLogical(doc, parsed.Steps))
	st.ResetForRun()
	plan := BuildPlan(st, parsed.Steps, []storage.NodeID{st.Root()}, StrategySchedule,
		PlanOptions{Speculative: true, MemLimit: 2})
	got := resultKeySet(st, plan.Run())
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("schedule fallback results differ:\nwant %v\ngot  %v", want, got)
	}
}

func TestNoFirstStepAllOptStillCorrect(t *testing.T) {
	dict, doc := buildTree(77, 250)
	st := importTree(t, dict, doc, 512, storage.LayoutShuffled)
	parsed := xpath.MustParse(dict, "//b") // keep d-o-s step: no Simplify
	want := logicalKeySet(doc, evalPathLogical(doc, parsed.Steps))
	for _, disable := range []bool{false, true} {
		st.ResetForRun()
		plan := BuildPlan(st, parsed.Steps, []storage.NodeID{st.Root()}, StrategyScan,
			PlanOptions{NoFirstStepAllOpt: disable})
		if !disable && !plan.Assembly.FirstStepAll {
			t.Fatal("// optimisation not detected")
		}
		if disable && plan.Assembly.FirstStepAll {
			t.Fatal("// optimisation not disabled")
		}
		got := resultKeySet(st, plan.Run())
		if strings.Join(got, "\n") != strings.Join(want, "\n") {
			t.Fatalf("disable=%v results differ", disable)
		}
	}
}

// --- operator-level behaviour -------------------------------------------------

func TestInstancePredicatesTable1(t *testing.T) {
	// The taxonomy of Table 1: flags for representative instances of
	// /A//B (|π| = 2). NodeIDs are symbolic; borders are marked by flags.
	d1 := storage.MakeNodeID(4, 1)
	a2 := storage.MakeNodeID(2, 1)
	a3 := storage.MakeNodeID(2, 2)
	a1 := storage.MakeNodeID(2, 0) // ProxyParent border
	d3 := storage.MakeNodeID(4, 3) // ProxyChild border

	cases := []struct {
		name       string
		p          Instance
		full, l, r bool
	}{
		{"row1 context only", ContextInstance(d1), false, true, true},
		{"row2 after step 1", Instance{SL: 0, NL: d1, SR: 1, NR: a2}, false, true, true},
		{"row5 full", Instance{SL: 0, NL: d1, SR: 2, NR: a3}, true, true, true},
		{"row7 right-incomplete", Instance{SL: 0, NL: d1, SR: 0, NR: d3, NRBorder: true}, false, true, false},
		{"row9 left-incomplete", Instance{SL: 1, NL: a1, NLBorder: true, SR: 2, NR: a3}, false, false, true},
		{"speculative seed", Instance{SL: 1, NL: a1, NLBorder: true, SR: 1, NR: a1, NRBorder: true}, false, false, false},
	}
	for _, c := range cases {
		if got := c.p.Full(2); got != c.full {
			t.Errorf("%s: Full = %v, want %v", c.name, got, c.full)
		}
		if got := c.p.LeftComplete(); got != c.l {
			t.Errorf("%s: LeftComplete = %v, want %v", c.name, got, c.l)
		}
		if got := c.p.RightComplete(); got != c.r {
			t.Errorf("%s: RightComplete = %v, want %v", c.name, got, c.r)
		}
		if (c.l && c.r) != c.p.Complete() {
			t.Errorf("%s: Complete inconsistent", c.name)
		}
	}
}

func TestContextOpEmitsSeedInstances(t *testing.T) {
	dict, doc := buildTree(1, 20)
	st := importTree(t, dict, doc, 8192, storage.LayoutContiguous)
	es := NewEvalState(st, nil)
	ids := []storage.NodeID{st.Root(), storage.MakeNodeID(1, 1)}
	op := NewContextOp(es, ids)
	op.Open()
	for i := 0; ; i++ {
		in, ok := op.Next()
		if !ok {
			if i != 2 {
				t.Fatalf("emitted %d instances", i)
			}
			break
		}
		if in.SL != 0 || in.SR != 0 || in.NL != ids[i] || in.NR != ids[i] || !in.Complete() {
			t.Fatalf("bad context instance %v", in)
		}
	}
	op.Rewind()
	if _, ok := op.Next(); !ok {
		t.Fatal("Rewind failed")
	}
	op.Close()
}

func TestSortContexts(t *testing.T) {
	ids := []storage.NodeID{
		storage.MakeNodeID(9, 0), storage.MakeNodeID(1, 5), storage.MakeNodeID(4, 2),
	}
	SortContexts(ids)
	if ids[0].Page() != 1 || ids[1].Page() != 4 || ids[2].Page() != 9 {
		t.Fatalf("sorted = %v", ids)
	}
}

func TestSortByDocumentOrder(t *testing.T) {
	dict, doc := buildTree(13, 200)
	st := importTree(t, dict, doc, 512, storage.LayoutShuffled)
	parsed := xpath.MustParse(dict, "//b").Simplify()
	st.ResetForRun()
	plan := BuildPlan(st, parsed.Steps, []storage.NodeID{st.Root()}, StrategyScan,
		PlanOptions{SortResults: true})
	rs := plan.Run()
	if len(rs) < 2 {
		t.Skip("need at least 2 results")
	}
	for i := 1; i < len(rs); i++ {
		a, b := rs[i-1].Ord.String(), rs[i].Ord.String()
		ca, cb := st.Swizzle(rs[i-1].Node), st.Swizzle(rs[i].Node)
		_ = ca
		_ = cb
		if a == b {
			t.Fatalf("duplicate ord keys %s", a)
		}
	}
	// Verify true document order via ordpath comparison on cursors.
	for i := 1; i < len(rs); i++ {
		if cmpOrd(rs[i-1], rs[i]) >= 0 {
			t.Fatalf("results out of document order at %d", i)
		}
	}
}

func cmpOrd(a, b Result) int {
	as, bs := a.Ord, b.Ord
	for i := 0; i < len(as) && i < len(bs); i++ {
		if as[i] != bs[i] {
			if as[i] < bs[i] {
				return -1
			}
			return 1
		}
	}
	switch {
	case len(as) < len(bs):
		return -1
	case len(as) > len(bs):
		return 1
	}
	return 0
}

func TestDistinctRemovesDuplicates(t *testing.T) {
	// //b/.. can produce the same parent several times in a Simple plan;
	// Distinct must deduplicate. Compare against logical set semantics.
	dict, doc := buildTree(91, 300)
	st := importTree(t, dict, doc, 512, storage.LayoutContiguous)
	checkAllStrategies(t, dict, doc, st, "//b/..", PlanOptions{})
}

func TestCountMatchesRunLength(t *testing.T) {
	dict, doc := buildTree(17, 250)
	st := importTree(t, dict, doc, 512, storage.LayoutShuffled)
	parsed := xpath.MustParse(dict, "//c").Simplify()
	st.ResetForRun()
	n := BuildPlan(st, parsed.Steps, []storage.NodeID{st.Root()}, StrategyScan, PlanOptions{}).Count()
	st.ResetForRun()
	rs := BuildPlan(st, parsed.Steps, []storage.NodeID{st.Root()}, StrategyScan, PlanOptions{}).Run()
	if n != len(rs) {
		t.Fatalf("Count = %d, Run len = %d", n, len(rs))
	}
}

func TestZeroLengthPath(t *testing.T) {
	dict, doc := buildTree(3, 30)
	st := importTree(t, dict, doc, 8192, storage.LayoutContiguous)
	for _, strat := range allStrategies {
		st.ResetForRun()
		plan := BuildPlan(st, nil, []storage.NodeID{st.Root()}, strat, PlanOptions{})
		rs := plan.Run()
		if len(rs) != 1 || rs[0].Node != st.Root() {
			t.Fatalf("%v: zero-length path results = %v", strat, rs)
		}
	}
}

func TestRelativeContexts(t *testing.T) {
	// Evaluate a relative path from several non-root contexts.
	dict, doc := buildTree(47, 300)
	st := importTree(t, dict, doc, 512, storage.LayoutShuffled)
	parsed := xpath.MustParse(dict, "b//c").Simplify()

	// Contexts: all <a> elements, gathered via an absolute query first.
	st.ResetForRun()
	ctxPlan := BuildPlan(st, xpath.MustParse(dict, "//a").Simplify().Steps,
		[]storage.NodeID{st.Root()}, StrategyScan, PlanOptions{})
	var ctxs []storage.NodeID
	for _, r := range ctxPlan.Run() {
		ctxs = append(ctxs, r.Node)
	}
	if len(ctxs) == 0 {
		t.Skip("no <a> contexts in this tree")
	}

	// Logical reference: same contexts on the logical tree.
	var logicalCtxs []*xmltree.Node
	doc.Walk(func(n *xmltree.Node) bool {
		if n.Kind == xmltree.Element && n.Tag == dict.Intern("a") {
			logicalCtxs = append(logicalCtxs, n)
		}
		return true
	})
	cur := logicalCtxs
	for _, s := range parsed.Steps {
		var next []*xmltree.Node
		seen := map[*xmltree.Node]bool{}
		for _, n := range cur {
			for _, m := range logicalAxisNodes(n, s.Axis) {
				if s.Test.Matches(m.Kind, m.Tag) && !seen[m] {
					seen[m] = true
					next = append(next, m)
				}
			}
		}
		cur = next
	}
	want := logicalKeySet(doc, cur)

	for _, strat := range allStrategies {
		st.ResetForRun()
		plan := BuildPlan(st, parsed.Steps, ctxs, strat, PlanOptions{})
		got := resultKeySet(st, plan.Run())
		if strings.Join(got, "\n") != strings.Join(want, "\n") {
			t.Fatalf("%v relative eval differs:\nwant %v\ngot  %v", strat, want, got)
		}
	}
}

func TestStrategyString(t *testing.T) {
	if StrategySimple.String() != "simple" || StrategySchedule.String() != "xschedule" || StrategyScan.String() != "xscan" {
		t.Fatal("strategy names")
	}
}

// TestFollowingPrecedingEndToEnd verifies the parser's rewrite of the
// document-order axes against a direct definition: following(x) = nodes
// whose preorder interval starts after x's ends (and mirrored for
// preceding), evaluated on the logical tree.
func TestFollowingPrecedingEndToEnd(t *testing.T) {
	dict, doc := buildTree(83, 250)
	st := importTree(t, dict, doc, 512, storage.LayoutShuffled)

	// Preorder enter/exit numbering of the logical tree.
	enter := map[*xmltree.Node]int{}
	exit := map[*xmltree.Node]int{}
	clock := 0
	var number func(n *xmltree.Node)
	number = func(n *xmltree.Node) {
		clock++
		enter[n] = clock
		for _, ch := range n.Children {
			number(ch)
		}
		clock++
		exit[n] = clock
	}
	number(doc)

	bTag, cTag := dict.Intern("b"), dict.Intern("c")
	for _, dir := range []string{"following", "preceding"} {
		src := "//b/" + dir + "::c"
		parsed := xpath.MustParse(dict, src).Simplify()

		// Direct reference.
		want := map[*xmltree.Node]bool{}
		doc.Walk(func(b *xmltree.Node) bool {
			if b.Kind != xmltree.Element || b.Tag != bTag {
				return true
			}
			doc.Walk(func(c *xmltree.Node) bool {
				if c.Kind != xmltree.Element || c.Tag != cTag {
					return true
				}
				if dir == "following" && enter[c] > exit[b] {
					want[c] = true
				}
				if dir == "preceding" && exit[c] < enter[b] {
					want[c] = true
				}
				return true
			})
			return true
		})
		var wantNodes []*xmltree.Node
		for n := range want {
			wantNodes = append(wantNodes, n)
		}
		wantKeys := logicalKeySet(doc, wantNodes)

		for _, strat := range allStrategies {
			got := resultKeySet(st, runStrategy(t, st, parsed.Steps, strat, PlanOptions{}))
			if strings.Join(got, "\n") != strings.Join(wantKeys, "\n") {
				t.Fatalf("%s via %v: got %d results, want %d", src, strat, len(got), len(wantKeys))
			}
		}
	}
}

// --- predicates ---------------------------------------------------------------

// evalPathLogicalPred evaluates a path with predicate support on the
// logical tree (the reference for predicate tests).
func evalPathLogicalPred(doc *xmltree.Node, path []xpath.Step) []*xmltree.Node {
	stringValue := func(n *xmltree.Node) string {
		if n.Kind == xmltree.Attribute || n.Kind == xmltree.Text ||
			n.Kind == xmltree.Comment || n.Kind == xmltree.ProcInst {
			return n.Text
		}
		return n.TextContent()
	}
	var holds func(n *xmltree.Node, p xpath.Predicate) bool
	var eval func(ctxs []*xmltree.Node, steps []xpath.Step) []*xmltree.Node
	eval = func(ctxs []*xmltree.Node, steps []xpath.Step) []*xmltree.Node {
		cur := ctxs
		for _, s := range steps {
			var next []*xmltree.Node
			seen := map[*xmltree.Node]bool{}
			for _, n := range cur {
				for _, m := range logicalAxisNodes(n, s.Axis) {
					if !s.Test.Matches(m.Kind, m.Tag) || seen[m] {
						continue
					}
					ok := true
					for _, p := range s.Predicates {
						if !holds(m, p) {
							ok = false
							break
						}
					}
					if !ok {
						continue
					}
					seen[m] = true
					next = append(next, m)
				}
			}
			cur = next
		}
		return cur
	}
	holds = func(n *xmltree.Node, p xpath.Predicate) bool {
		for _, branch := range p.Paths {
			for _, r := range eval([]*xmltree.Node{n}, branch.Simplify().Steps) {
				if !p.HasLit || stringValue(r) == p.Literal {
					return true
				}
			}
		}
		return false
	}
	return eval([]*xmltree.Node{doc}, path)
}

// TestPredicatesAllStrategies holds PredFilter, the per-candidate
// evaluator, to the logical-tree reference. It pins PredNested: the Auto
// rule would pick XJoin for most of these paths.
func TestPredicatesAllStrategies(t *testing.T) {
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
	st := importTree(t, dict, doc, 256, storage.LayoutShuffled)

	for _, src := range []string{
		`/lib/book[meta]`,
		`/lib/book[@lang]`,
		`/lib/book[@lang="en"]/title`,
		`//book[meta/year="1992"]`,
		`//book[meta][@lang]`,
		`//book[title="t9"]`,
	} {
		parsed := xpath.MustParse(dict, src).Simplify()
		want := logicalKeySet(doc, evalPathLogicalPred(doc, parsed.Steps))
		for _, strat := range allStrategies {
			got := resultKeySet(st, runStrategy(t, st, parsed.Steps, strat, PlanOptions{PredEval: PredNested}))
			if strings.Join(got, "\n") != strings.Join(want, "\n") {
				t.Fatalf("%v on %q:\nwant %v\ngot  %v", strat, src, want, got)
			}
		}
	}
}

// TestPredicatesPropertyRandomTrees is the random-tree counterpart of
// TestPredicatesAllStrategies, also pinned to PredFilter.
func TestPredicatesPropertyRandomTrees(t *testing.T) {
	srcs := []string{"//a[b]", "//b[c]/..", "/a//c[d]", "//a[b/c]", `//b[.="t"]`}
	f := func(seed uint64, pi uint8) bool {
		dict, doc := buildTree(seed, 120)
		st := importTree(t, dict, doc, 256, storage.LayoutShuffled)
		src := srcs[int(pi)%len(srcs)]
		parsed := xpath.MustParse(dict, src).Simplify()
		want := logicalKeySet(doc, evalPathLogicalPred(doc, parsed.Steps))
		for _, strat := range allStrategies {
			got := resultKeySet(st, runStrategy(t, st, parsed.Steps, strat, PlanOptions{PredEval: PredNested}))
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

func TestPredicateDescribe(t *testing.T) {
	dict, doc := buildTree(4, 50)
	st := importTree(t, dict, doc, 512, storage.LayoutNatural)
	steps := xpath.MustParse(dict, "/a//b[c]").Simplify().Steps
	desc := BuildPlan(st, steps, []storage.NodeID{st.Root()}, StrategySchedule, PlanOptions{PredEval: PredNested}).Describe(dict)
	if !strings.Contains(desc, "PredFilter(step 2, 1 predicates)") {
		t.Fatalf("describe missing filter:\n%s", desc)
	}
}
