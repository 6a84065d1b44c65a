package storage

import (
	"fmt"
	"strings"
	"testing"

	"pathdb/internal/ordpath"
	"pathdb/internal/rng"
	"pathdb/internal/vdisk"
	"pathdb/internal/xmark"
	"pathdb/internal/xmltree"
	"pathdb/internal/xpath"
)

// saturate inserts children under parent until the count is reached,
// forcing every overflow mechanism (dedicated proxies, sibling spills,
// subtree relocation, child-list tail splits).
func saturate(t testing.TB, st *Store, dict *xmltree.Dictionary, parent NodeID, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		e := xmltree.NewElement(dict.Intern("ins"))
		e.SetAttr(dict.Intern("n"), fmt.Sprintf("%d", i))
		e.AppendChild(xmltree.NewText("payload"))
		if _, err := insertSubtree(st, parent, InvalidNodeID, e); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
	}
}

func TestInsertSaturationForcesPageSplits(t *testing.T) {
	dict := xmltree.NewDictionary()
	b := xmltree.NewBuilder(dict)
	b.Begin("root")
	// Pre-fill so the root's page has little slack.
	for i := 0; i < 6; i++ {
		b.Leaf("pad", "xxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx")
	}
	b.End()
	st := importDoc(t, b.Doc(), dict, 512, LayoutContiguous)

	rootElem, _ := st.Step(st.Swizzle(st.Root()), xpath.Child, xpath.Wildcard()).Next()
	rootID := rootElem.ID()

	// 300 inserts into a 512-byte page: hundreds of proxies cannot fit, so
	// tail splits must kick in repeatedly.
	saturate(t, st, dict, rootID, 300)

	got := st.Export()
	if c := got.CountTag(dict.Intern("ins")); c != 300 {
		t.Fatalf("ins count = %d, want 300", c)
	}
	if c := got.CountTag(dict.Intern("pad")); c != 6 {
		t.Fatalf("pad count = %d, want 6", c)
	}
	// Document order: inserted items must appear in insertion order.
	var last int = -1
	nTag := dict.Intern("n")
	got.Walk(func(m *xmltree.Node) bool {
		if m.Kind == xmltree.Element && m.Tag == dict.Intern("ins") {
			var v int
			fmt.Sscanf(m.Attrs[0].Text, "%d", &v)
			if m.Attrs[0].Tag != nTag || v != last+1 {
				t.Fatalf("insertion order broken: got %d after %d", v, last)
			}
			last = v
		}
		return true
	})

	// Every plan strategy still returns the same counts after the churn.
	steps := xpath.MustParse(dict, "//ins").Simplify().Steps
	for _, strat := range []string{"full-eval"} {
		_ = strat
		cnt := len(evalStepFull(st, st.Swizzle(st.Root()), xpath.Descendant, xpath.NameTest(dict.Intern("ins"))))
		if cnt != 300 {
			t.Fatalf("navigation count = %d", cnt)
		}
	}
	_ = steps
}

func TestInsertBeforeUnderSaturation(t *testing.T) {
	dict := xmltree.NewDictionary()
	b := xmltree.NewBuilder(dict)
	b.Begin("root").Leaf("anchor", "zzz").End()
	st := importDoc(t, b.Doc(), dict, 512, LayoutContiguous)

	rootElem, _ := st.Step(st.Swizzle(st.Root()), xpath.Child, xpath.Wildcard()).Next()
	rootID := rootElem.ID()

	// Keep inserting *before* the anchor: Between puts each key after the
	// last insert, below a caret in front of the anchor's ordinal, and
	// pages split around the anchor. Page splits may relocate records and
	// invalidate previously obtained NodeIDs, so the anchor is re-resolved
	// each round (the documented usage contract).
	for i := 0; i < 120; i++ {
		anchors := evalStepFull(st, st.Swizzle(st.Root()), xpath.Descendant, xpath.NameTest(dict.Intern("anchor")))
		if len(anchors) != 1 {
			t.Fatalf("anchor lost at round %d", i)
		}
		e := xmltree.NewElement(dict.Intern("pre"))
		e.AppendChild(xmltree.NewText(fmt.Sprintf("%03d", i)))
		if _, err := insertSubtree(st, rootID, anchors[0].ID(), e); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
	}
	got := st.Export()
	kids := got.Children[0].Children
	if len(kids) != 121 {
		t.Fatalf("children = %d", len(kids))
	}
	if dict.Name(kids[len(kids)-1].Tag) != "anchor" {
		t.Fatal("anchor no longer last")
	}
	// Inserted nodes kept insertion order before the anchor.
	for i := 0; i < 120; i++ {
		if got := kids[i].TextContent(); got != fmt.Sprintf("%03d", i) {
			t.Fatalf("position %d holds %q", i, got)
		}
	}
}

func TestRelocationPreservesProxyCompanions(t *testing.T) {
	// Build a document whose root page contains proxies to child clusters,
	// then force relocation: the moved proxies' companions must be
	// repointed so cross-cluster navigation still works.
	dict, doc := buildTree(31, 200)
	st := importDoc(t, doc, dict, 512, LayoutContiguous)
	wantBefore := st.Export()

	rootElem, _ := st.Step(st.Swizzle(st.Root()), xpath.Child, xpath.Wildcard()).Next()
	saturate(t, st, dict, rootElem.ID(), 150)

	got := st.Export()
	if got.CountTag(dict.Intern("ins")) != 150 {
		t.Fatal("inserts lost")
	}
	// All original nodes survive (compare sizes minus insertions).
	wantSize := wantBefore.Size() + 150*3 // elem + attr + text per insert
	if got.Size() != wantSize {
		t.Fatalf("size = %d, want %d", got.Size(), wantSize)
	}
	// Cross-border navigation reaches every non-attribute node.
	attrs := got.Count(func(n *xmltree.Node) bool { return n.Kind == xmltree.Attribute })
	st.ResetForRun()
	n := len(evalStepFull(st, st.Swizzle(st.Root()), xpath.DescendantOrSelf, xpath.AnyNode()))
	if n != wantSize-attrs {
		t.Fatalf("navigation reached %d nodes, want %d", n, wantSize-attrs)
	}
}

func TestExportSubtreeAfterChurn(t *testing.T) {
	dict := xmltree.NewDictionary()
	b := xmltree.NewBuilder(dict)
	b.Begin("root").Begin("keep").Leaf("v", "1").End().End()
	st := importDoc(t, b.Doc(), dict, 512, LayoutContiguous)
	rootElem, _ := st.Step(st.Swizzle(st.Root()), xpath.Child, xpath.Wildcard()).Next()
	saturate(t, st, dict, rootElem.ID(), 80)

	all := evalStepFull(st, st.Swizzle(st.Root()), xpath.Descendant, xpath.NameTest(dict.Intern("keep")))
	if len(all) != 1 {
		t.Fatalf("keep not found: %d", len(all))
	}
	keepCur := all[0]
	sub := st.ExportSubtree(keepCur.ID())
	if sub.TextContent() != "1" {
		t.Fatalf("subtree export = %q", sub.TextContent())
	}
}

func TestDeleteAfterSaturationReclaimsSlots(t *testing.T) {
	dict := xmltree.NewDictionary()
	b := xmltree.NewBuilder(dict)
	b.Begin("root").End()
	st := importDoc(t, b.Doc(), dict, 512, LayoutContiguous)
	rootElem, _ := st.Step(st.Swizzle(st.Root()), xpath.Child, xpath.Wildcard()).Next()
	rootID := rootElem.ID()
	saturate(t, st, dict, rootID, 60)

	// Delete every inserted element.
	for {
		cands := evalStepFull(st, st.Swizzle(st.Root()), xpath.Descendant, xpath.NameTest(dict.Intern("ins")))
		if len(cands) == 0 {
			break
		}
		if err := deleteSubtree(st, cands[0].ID()); err != nil {
			t.Fatal(err)
		}
	}
	got := st.Export()
	if got.CountTag(dict.Intern("ins")) != 0 {
		t.Fatal("inserts remain")
	}
	// Reinsert into reclaimed space; still correct.
	saturate(t, st, dict, rootID, 30)
	if st.Export().CountTag(dict.Intern("ins")) != 30 {
		t.Fatal("reinsert failed")
	}
}

func TestExportScanAfterUpdates(t *testing.T) {
	// The scan export must skip superseded page versions and include
	// extension pages.
	dict := xmltree.NewDictionary()
	b := xmltree.NewBuilder(dict)
	b.Begin("root").Leaf("seed", "s").End()
	st := importDoc(t, b.Doc(), dict, 512, LayoutContiguous)
	rootElem, _ := st.Step(st.Swizzle(st.Root()), xpath.Child, xpath.Wildcard()).Next()
	saturate(t, st, dict, rootElem.ID(), 120)

	want := xmlwriteString(dict, st.Export())
	var sb strings.Builder
	if err := st.ExportScanXML(&sb); err != nil {
		t.Fatal(err)
	}
	if sb.String() != want {
		t.Fatalf("scan export diverged after updates:\nwant %.200s\ngot  %.200s", want, sb.String())
	}
}

func TestQueriesAllStrategiesAfterUpdates(t *testing.T) {
	// Full plan-equivalence check on an updated volume: extension pages
	// participate in scans and scheduling alike.
	dict := xmltree.NewDictionary()
	b := xmltree.NewBuilder(dict)
	b.Begin("root").End()
	st := importDoc(t, b.Doc(), dict, 512, LayoutNatural)
	rootElem, _ := st.Step(st.Swizzle(st.Root()), xpath.Child, xpath.Wildcard()).Next()
	saturate(t, st, dict, rootElem.ID(), 200)

	// Plan-level equivalence lives in core; here assert navigation + scan
	// page coverage agree on the updated volume.
	navCount := len(evalStepFull(st, st.Swizzle(st.Root()), xpath.Descendant, xpath.NameTest(dict.Intern("ins"))))
	if navCount != 200 {
		t.Fatalf("navigation count = %d", navCount)
	}
	// Every extension page is reachable through the scan directory.
	seen := 0
	for i := 0; i < st.NumDataPages(); i++ {
		st.LoadCluster(st.DataPage(i))
		seen++
	}
	if seen != st.NumDataPages() {
		t.Fatal("scan directory incomplete")
	}
}

// peopleVolume imports an XMark document whose /site/people child list
// spans many continuation pages (the long proxy chain of the benchmark
// volumes, at a smaller page size) and returns the store, the logical
// shadow and the shadow's people element.
func peopleVolume(t testing.TB) (*Store, *xmltree.Dictionary, *xmltree.Node, *xmltree.Node) {
	dict := xmltree.NewDictionary()
	doc := xmark.Generate(dict, xmark.Config{ScaleFactor: 0.05, Seed: 3})
	shadow := cloneTree(doc)
	st := importDoc(t, doc, dict, 512, LayoutContiguous)
	var people *xmltree.Node
	for _, ch := range shadow.Children[0].Children {
		if ch.Tag == dict.Intern("people") {
			people = ch
		}
	}
	return st, dict, shadow, people
}

// peopleKids resolves /site/people and streams its children, checking that
// the stream is in document order; it also reports how many pages hold them.
// Relocations invalidate handles, so callers re-resolve before every
// operation.
func peopleKids(t testing.TB, st *Store, dict *xmltree.Dictionary) (people NodeID, kids []Cursor, pages int) {
	t.Helper()
	site := evalStepFull(st, st.Swizzle(st.Root()), xpath.Child, xpath.Wildcard())
	ps := evalStepFull(st, site[0], xpath.Child, xpath.NameTest(dict.Intern("people")))
	if len(ps) != 1 {
		t.Fatalf("/site/people resolves to %d nodes", len(ps))
	}
	kids = evalStepFull(st, ps[0], xpath.Child, xpath.AnyNode())
	seen := map[vdisk.PageID]bool{}
	for i, k := range kids {
		seen[k.ID().Page()] = true
		if i > 0 && ordpath.Compare(kids[i-1].OrdKey(), k.OrdKey()) >= 0 {
			t.Fatalf("streamed sibling %d is not after its predecessor in document order", i)
		}
	}
	return ps[0].ID(), kids, len(seen)
}

// chainInsert stages one insert under /site/people at position pos of its
// child list (append when pos == len), mirrors it on the shadow, and fails
// unless the updater made at most three pages live for it: the page the
// record lands in, an overflow page, and the extension page probed for room
// — never the continuation pages walked on the way.
func chainInsert(t testing.TB, wt *WriteTxn, dict *xmltree.Dictionary, shadowPeople *xmltree.Node, pos int, label string) {
	t.Helper()
	people, kids, _ := peopleKids(t, wt.view, dict)
	frag := xmltree.NewElement(dict.Intern("ins"))
	frag.SetAttr(dict.Intern("n"), label)
	frag.AppendChild(xmltree.NewText("payload"))
	before, beforeShadow := InvalidNodeID, (*xmltree.Node)(nil)
	if pos < len(kids) {
		before, beforeShadow = kids[pos].ID(), shadowPeople.Children[pos]
	}
	was := len(wt.u.pages)
	if _, err := wt.InsertSubtree(people, before, cloneTree(frag)); err != nil {
		t.Fatalf("insert %s at %d: %v", label, pos, err)
	}
	if made := len(wt.u.pages) - was; made > 3 {
		t.Fatalf("insert %s at %d of %d made %d pages live, want <= 3", label, pos, len(kids), made)
	}
	insertAtShadow(shadowPeople, beforeShadow, frag)
}

// chainDelete stages the delete of the inserted child labelled label.
func chainDelete(t testing.TB, wt *WriteTxn, dict *xmltree.Dictionary, shadowPeople *xmltree.Node, label string) {
	t.Helper()
	_, kids, _ := peopleKids(t, wt.view, dict)
	for i, k := range kids {
		if k.Tag() == dict.Intern("ins") && shadowPeople.Children[i].Attrs[0].Text == label {
			if err := wt.DeleteSubtree(k.ID()); err != nil {
				t.Fatalf("delete %s: %v", label, err)
			}
			deleteFromShadow(shadowPeople.Children[i])
			return
		}
	}
	t.Fatalf("inserted child %s not found", label)
}

// TestLongChainUpdates edits the head, middle and tail of a child list that
// spans dozens of continuation pages — in one transaction and in separate
// ones, then in a seeded mix — against the xmltree reference.
func TestLongChainUpdates(t *testing.T) {
	baseIters := LiveStepIters() // other tests of the package drop iterators unreleased
	st, dict, shadow, people := peopleVolume(t)
	_, kids, pages := peopleKids(t, st, dict)
	if pages < 50 {
		t.Fatalf("/site/people spans %d pages, want a chain of >= 50", pages)
	}
	if len(kids) != len(people.Children) {
		t.Fatalf("stored people has %d children, shadow %d", len(kids), len(people.Children))
	}
	spots := func() map[string]int {
		n := len(people.Children)
		return map[string]int{"head": 0, "middle": n / 2, "tail": n}
	}
	check := func(when string) {
		t.Helper()
		if !xmltree.Equal(shadow, st.Export()) {
			t.Fatalf("export diverged from the reference %s", when)
		}
		peopleKids(t, st, dict)
	}
	order := []string{"head", "middle", "tail"}

	// Separate transactions.
	for _, name := range order {
		name := name
		if err := commitStaged(st, func(wt *WriteTxn) error {
			chainInsert(t, wt, dict, people, spots()[name], name)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		check("after the " + name + " insert")
	}
	for _, name := range order {
		name := name
		if err := commitStaged(st, func(wt *WriteTxn) error {
			chainDelete(t, wt, dict, people, name)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		check("after the " + name + " delete")
	}

	// One transaction: later operations read the earlier ones' pages.
	if err := commitStaged(st, func(wt *WriteTxn) error {
		for _, name := range order {
			chainInsert(t, wt, dict, people, spots()[name], name)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	check("after three inserts in one transaction")
	if err := commitStaged(st, func(wt *WriteTxn) error {
		chainInsert(t, wt, dict, people, spots()["middle"], "again")
		for _, name := range append(order, "again") {
			chainDelete(t, wt, dict, people, name)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	check("after insert and four deletes in one transaction")

	// Seeded mix of head/middle/tail/anywhere inserts and deletes.
	r := rng.New(22)
	var labels []string
	for op := 0; op < 40; op++ {
		op := op
		if err := commitStaged(st, func(wt *WriteTxn) error {
			if len(labels) > 0 && r.Bool(0.35) {
				i := r.Intn(len(labels))
				chainDelete(t, wt, dict, people, labels[i])
				labels = append(labels[:i], labels[i+1:]...)
				return nil
			}
			n := len(people.Children)
			pos := []int{0, n / 2, n, r.Intn(n + 1)}[r.Intn(4)]
			label := fmt.Sprintf("mix%d", op)
			chainInsert(t, wt, dict, people, pos, label)
			labels = append(labels, label)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	check("after the seeded mix")
	if n := LiveStepIters() - baseIters; n != 0 {
		t.Fatalf("%d navigation iterators still live", n)
	}
}
