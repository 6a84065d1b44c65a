package storage

import (
	"fmt"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"pathdb/internal/ordpath"
	"pathdb/internal/rng"
	"pathdb/internal/stats"
	"pathdb/internal/vdisk"
	"pathdb/internal/xmltree"
	"pathdb/internal/xmlwrite"
	"pathdb/internal/xpath"
)

// --- helpers ----------------------------------------------------------------

func newDisk(pageSize int) *vdisk.Disk {
	return vdisk.New(vdisk.DefaultCostModel(), stats.NewLedger(), pageSize)
}

func importDoc(t testing.TB, doc *xmltree.Node, dict *xmltree.Dictionary, pageSize int, layout Layout) *Store {
	t.Helper()
	disk := newDisk(pageSize)
	st, err := Import(disk, dict, doc, ImportOptions{PageSize: pageSize, Layout: layout, Seed: 7})
	if err != nil {
		t.Fatalf("Import: %v", err)
	}
	return st
}

// buildTree builds a deterministic pseudo-random document with n elements.
func buildTree(seed uint64, n int) (*xmltree.Dictionary, *xmltree.Node) {
	r := rng.New(seed)
	dict := xmltree.NewDictionary()
	tags := []xmltree.TagID{dict.Intern("a"), dict.Intern("b"), dict.Intern("c"), dict.Intern("d")}
	attrTag := dict.Intern("k")
	doc := xmltree.NewDocument()
	root := xmltree.NewElement(tags[0])
	doc.AppendChild(root)
	nodes := []*xmltree.Node{root}
	for i := 1; i < n; i++ {
		parent := nodes[r.Intn(len(nodes))]
		e := xmltree.NewElement(tags[r.Intn(len(tags))])
		parent.AppendChild(e)
		if r.Bool(0.25) {
			e.SetAttr(attrTag, fmt.Sprintf("v%d", i))
		}
		if r.Bool(0.4) {
			e.AppendChild(xmltree.NewText(strings.Repeat("x", r.IntRange(1, 40))))
		}
		nodes = append(nodes, e)
	}
	return dict, doc
}

// assignOrds computes the ord keys Import assigns (no long-text splits).
func assignOrds(doc *xmltree.Node) map[*xmltree.Node]ordpath.Key {
	out := map[*xmltree.Node]ordpath.Key{doc: ordpath.Root()}
	var walk func(n *xmltree.Node, ord ordpath.Key)
	walk = func(n *xmltree.Node, ord ordpath.Key) {
		for i, ch := range n.Children {
			k := ord.BulkChild(i)
			out[ch] = k
			walk(ch, k)
		}
	}
	walk(doc, ordpath.Root())
	return out
}

// nodeKey is a cross-representation identity for comparing result sets.
func logicalNodeKey(n *xmltree.Node, ords map[*xmltree.Node]ordpath.Key) string {
	if n.Kind == xmltree.Attribute {
		return fmt.Sprintf("attr|%s|%d|%s", ords[n.Parent], n.Tag, n.Text)
	}
	return fmt.Sprintf("%d|%s|%d|%s", n.Kind, ords[n], n.Tag, n.Text)
}

func cursorKey(c Cursor) string {
	if c.Kind() == xmltree.Attribute {
		return fmt.Sprintf("attr|%s|%d|%s", c.OrdKey(), c.Tag(), c.Text())
	}
	return fmt.Sprintf("%d|%s|%d|%s", c.Kind(), c.OrdKey(), c.Tag(), c.Text())
}

// evalStepFull applies one step to ctx, crossing all borders synchronously
// (a miniature Simple evaluation of one step, used as ground truth access).
// childCursors returns the physical children of c, in sibling order.
func childCursors(c Cursor) []Cursor {
	var out []Cursor
	for k, e := int(c.pos)+1, c.img.end(int(c.pos)); k < e; k = c.img.end(k) {
		out = append(out, c.at(k))
	}
	return out
}

func evalStepFull(s *Store, ctx Cursor, axis xpath.Axis, test xpath.NodeTest) []Cursor {
	var out []Cursor
	var run func(c Cursor)
	run = func(c Cursor) {
		it := s.Step(c, axis, test)
		defer it.Release()
		for {
			r, ok := it.Next()
			if !ok {
				return
			}
			if r.IsBorder() {
				run(s.Swizzle(r.Target()))
				continue
			}
			out = append(out, r)
		}
	}
	run(ctx)
	return out
}

// logicalAxis evaluates an axis on the logical tree.
func logicalAxis(n *xmltree.Node, axis xpath.Axis) []*xmltree.Node {
	var out []*xmltree.Node
	collectDesc := func(root *xmltree.Node, includeSelf bool) {
		root.Walk(func(m *xmltree.Node) bool {
			if m != root || includeSelf {
				out = append(out, m)
			}
			return true
		})
	}
	switch axis {
	case xpath.Self:
		out = []*xmltree.Node{n}
	case xpath.Child:
		out = append(out, n.Children...)
	case xpath.Descendant:
		collectDesc(n, false)
	case xpath.DescendantOrSelf:
		collectDesc(n, true)
	case xpath.Parent:
		if n.Parent != nil {
			out = []*xmltree.Node{n.Parent}
		}
	case xpath.Ancestor:
		for p := n.Parent; p != nil; p = p.Parent {
			out = append(out, p)
		}
	case xpath.AncestorOrSelf:
		for p := n; p != nil; p = p.Parent {
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
			return nil // attribute node
		}
		if axis == xpath.FollowingSibling {
			out = append(out, sibs[idx+1:]...)
		} else {
			for i := idx - 1; i >= 0; i-- {
				out = append(out, sibs[i])
			}
		}
	case xpath.AttributeAxis:
		out = append(out, n.Attrs...)
	}
	return out
}

func filterLogical(nodes []*xmltree.Node, test xpath.NodeTest) []*xmltree.Node {
	var out []*xmltree.Node
	for _, n := range nodes {
		if test.Matches(n.Kind, n.Tag) {
			out = append(out, n)
		}
	}
	return out
}

func sortedKeys(ss []string) []string {
	out := append([]string(nil), ss...)
	sort.Strings(out)
	return out
}

// --- NodeID -----------------------------------------------------------------

func TestNodeIDPacking(t *testing.T) {
	id := MakeNodeID(123456, 789)
	if id.Page() != 123456 || id.Slot() != 789 {
		t.Fatalf("packing broken: %v", id)
	}
	if _, ok := id.AttrIndex(); ok {
		t.Fatal("plain id has attr")
	}
	a := id.WithAttr(3)
	if idx, ok := a.AttrIndex(); !ok || idx != 3 {
		t.Fatalf("attr index = %v", a)
	}
	if a.WithoutAttr() != id {
		t.Fatal("WithoutAttr failed")
	}
	if id.String() != "123456.789" || a.String() != "123456.789@3" {
		t.Fatalf("String = %q / %q", id, a)
	}
	if InvalidNodeID.String() != "invalid" {
		t.Fatal("invalid id string")
	}
}

func TestNodeIDProperty(t *testing.T) {
	f := func(page uint32, slot uint16, attr uint8) bool {
		id := MakeNodeID(vdisk.PageID(page), slot)
		if id.Page() != vdisk.PageID(page) || id.Slot() != slot {
			return false
		}
		a := id.WithAttr(int(attr))
		idx, ok := a.AttrIndex()
		return ok && idx == int(attr) && a.Page() == vdisk.PageID(page) && a.Slot() == slot
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// --- import / export round trips ---------------------------------------------

func TestImportExportTiny(t *testing.T) {
	dict := xmltree.NewDictionary()
	b := xmltree.NewBuilder(dict)
	b.Begin("site").
		Begin("item").Attr("id", "i1").Leaf("name", "thing").End().
		Begin("item").Leaf("name", "other").End().
		End()
	doc := b.Doc()
	st := importDoc(t, doc, dict, 8192, LayoutContiguous)
	got := st.Export()
	if !xmltree.Equal(doc, got) {
		t.Fatal("tiny round trip failed")
	}
}

func TestImportExportFragmented(t *testing.T) {
	// A page size small enough that almost every element crosses borders.
	dict, doc := buildTree(42, 300)
	for _, layout := range []Layout{LayoutContiguous, LayoutShuffled, LayoutReverse} {
		st := importDoc(t, doc, dict, 512, layout)
		if _, n := st.DataPages(); n < 10 {
			t.Fatalf("layout %v: expected fragmentation, got %d pages", layout, n)
		}
		got := st.Export()
		if !xmltree.Equal(doc, got) {
			t.Fatalf("layout %v: round trip failed", layout)
		}
	}
}

func TestImportRoundTripProperty(t *testing.T) {
	f := func(seed uint64, sizeRaw uint8, psRaw uint8) bool {
		n := int(sizeRaw%200) + 1
		pageSize := []int{256, 512, 1024, 4096}[psRaw%4]
		dict, doc := buildTree(seed, n)
		disk := newDisk(pageSize)
		st, err := Import(disk, dict, doc, ImportOptions{PageSize: pageSize, Layout: LayoutShuffled, Seed: seed})
		if err != nil {
			t.Logf("seed=%d n=%d ps=%d: %v", seed, n, pageSize, err)
			return false
		}
		return xmltree.Equal(doc, st.Export())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestLongTextSplit(t *testing.T) {
	dict := xmltree.NewDictionary()
	b := xmltree.NewBuilder(dict)
	long := strings.Repeat("lorem ipsum ", 400) // ~4.8 KB
	b.Begin("doc").Text(long).End()
	doc := b.Doc()
	st := importDoc(t, doc, dict, 1024, LayoutContiguous)
	got := st.Export()
	if got.TextContent() != long {
		t.Fatal("split text content mangled")
	}
	// The exported tree has several text children where the original had 1.
	if len(got.Children[0].Children) < 4 {
		t.Fatalf("expected text split, got %d children", len(got.Children[0].Children))
	}
}

func TestPersistAndOpen(t *testing.T) {
	dict, doc := buildTree(5, 120)
	disk := newDisk(512)
	st, err := Import(disk, dict, doc, ImportOptions{PageSize: 512, Layout: LayoutShuffled, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	want := st.Export()

	// Re-open the same volume from disk alone: dictionary and meta must
	// round-trip through their on-disk form.
	st2, err := Open(disk)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	got := st2.Export()
	if !xmltree.Equal(want, got) {
		t.Fatal("reopened volume differs")
	}
	if st2.Dict().Len() != dict.Len() {
		t.Fatalf("dict len %d != %d", st2.Dict().Len(), dict.Len())
	}
	for i := 0; i < dict.Len(); i++ {
		if st2.Dict().Name(xmltree.TagID(i)) != dict.Name(xmltree.TagID(i)) {
			t.Fatalf("dict entry %d differs", i)
		}
	}
}

// TestOpenRefusesReservedMetaField: the meta page's reserved fields once
// pointed at a redo log of a protocol Open no longer replays and counted a
// directory of extension pages that now live in the version map, so a
// non-zero value in either must fail the open rather than be ignored.
func TestOpenRefusesReservedMetaField(t *testing.T) {
	for name, set := range map[string]func(*metaInfo){
		"walPage":  func(m *metaInfo) { m.walPage = 7 },
		"dirCount": func(m *metaInfo) { m.dirCount = 1 },
	} {
		dict, doc := buildTree(5, 40)
		disk := newDisk(512)
		if _, err := Import(disk, dict, doc, ImportOptions{PageSize: 512}); err != nil {
			t.Fatal(err)
		}
		m, err := readMeta(disk)
		if err != nil {
			t.Fatal(err)
		}
		set(&m)
		writeMeta(disk, 0, m)
		if _, err := Open(disk); err == nil {
			t.Fatalf("Open accepted a volume with a non-zero %s", name)
		}
	}
}

func TestOpenBadMagic(t *testing.T) {
	disk := newDisk(256)
	disk.Write(disk.Alloc(), []byte("not a volume"))
	if _, err := Open(disk); err == nil {
		t.Fatal("Open accepted garbage")
	}
}

func TestImportErrors(t *testing.T) {
	dict := xmltree.NewDictionary()
	disk := newDisk(256)
	if _, err := Import(disk, dict, xmltree.NewElement(dict.Intern("x")), ImportOptions{PageSize: 256}); err == nil {
		t.Fatal("Import accepted a non-document root")
	}
	// Element with attributes too large for any page.
	b := xmltree.NewBuilder(dict)
	b.Begin("x").Attr("big", strings.Repeat("v", 1000)).End()
	if _, err := Import(newDisk(256), dict, b.Doc(), ImportOptions{PageSize: 256}); err == nil {
		t.Fatal("oversized record accepted")
	}
}

func TestLayoutsPermutePages(t *testing.T) {
	dict, doc := buildTree(9, 200)
	stC := importDoc(t, doc, dict, 512, LayoutContiguous)
	stR := importDoc(t, doc, dict, 512, LayoutReverse)
	// Root element cluster is first in DFS order: page 1 contiguous, last
	// page under reverse.
	_, n := stC.DataPages()
	if stC.Root().Page() != 1 {
		t.Fatalf("contiguous root page = %d", stC.Root().Page())
	}
	if stR.Root().Page() != vdisk.PageID(n) {
		t.Fatalf("reverse root page = %d, want %d", stR.Root().Page(), n)
	}
}

// --- navigation --------------------------------------------------------------

func TestNavigationAgainstLogicalReference(t *testing.T) {
	axes := []xpath.Axis{
		xpath.Self, xpath.Child, xpath.Descendant, xpath.DescendantOrSelf,
		xpath.Parent, xpath.Ancestor, xpath.AncestorOrSelf,
		xpath.FollowingSibling, xpath.PrecedingSibling, xpath.AttributeAxis,
	}
	dict, doc := buildTree(77, 150)
	ords := assignOrds(doc)
	st := importDoc(t, doc, dict, 512, LayoutShuffled)

	tests := []xpath.NodeTest{
		xpath.AnyNode(),
		xpath.Wildcard(),
		xpath.NameTest(dict.Intern("b")),
		xpath.TextTest(),
	}

	// Map logical nodes to stored cursors by walking both trees: compare
	// via ord keys. Collect all core element cursors by a full descendant
	// walk from the document node.
	rootCur := st.Swizzle(st.Root())
	all := evalStepFull(st, rootCur, xpath.DescendantOrSelf, xpath.AnyNode())
	byOrd := map[string]Cursor{}
	for _, c := range all {
		byOrd[c.OrdKey().String()] = c
	}

	var logicalNodes []*xmltree.Node
	doc.Walk(func(n *xmltree.Node) bool {
		logicalNodes = append(logicalNodes, n)
		return true
	})

	r := rng.New(123)
	for trial := 0; trial < 120; trial++ {
		n := logicalNodes[r.Intn(len(logicalNodes))]
		axis := axes[r.Intn(len(axes))]
		test := tests[r.Intn(len(tests))]

		var ctx Cursor
		if n.Kind == xmltree.Document {
			ctx = st.Swizzle(st.Root())
		} else {
			c, ok := byOrd[ords[n].String()]
			if !ok {
				t.Fatalf("no cursor for logical node with ord %s", ords[n])
			}
			ctx = c
		}

		want := filterLogical(logicalAxis(n, axis), test)
		wantKeys := make([]string, len(want))
		for i, w := range want {
			wantKeys[i] = logicalNodeKey(w, ords)
		}
		got := evalStepFull(st, ctx, axis, test)
		gotKeys := make([]string, len(got))
		for i, g := range got {
			gotKeys[i] = cursorKey(g)
		}
		ws, gs := sortedKeys(wantKeys), sortedKeys(gotKeys)
		if strings.Join(ws, "\n") != strings.Join(gs, "\n") {
			t.Fatalf("trial %d: axis=%v test=%s ctx ord=%s\nwant(%d):\n%s\ngot(%d):\n%s",
				trial, axis, test.Render(dict), ords[n], len(ws), strings.Join(ws, "\n"), len(gs), strings.Join(gs, "\n"))
		}
	}
}

func TestNavigationRandomTreesProperty(t *testing.T) {
	f := func(seed uint64) bool {
		dict, doc := buildTree(seed, 60)
		ords := assignOrds(doc)
		st := importDoc(t, doc, dict, 256, LayoutShuffled)
		ctx := st.Swizzle(st.Root())
		// count of descendant-or-self elements must equal logical count.
		got := evalStepFull(st, ctx, xpath.DescendantOrSelf, xpath.Wildcard())
		wantCount := doc.Count(func(n *xmltree.Node) bool { return n.Kind == xmltree.Element })
		if len(got) != wantCount {
			return false
		}
		// every result has a distinct ord key
		seen := map[string]bool{}
		for _, c := range got {
			k := c.OrdKey().String()
			if seen[k] {
				return false
			}
			seen[k] = true
		}
		_ = ords
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestStepDoesNotLeaveCluster(t *testing.T) {
	// A single StepIter must never touch a page other than its own: the
	// buffer miss count may not grow during iteration.
	dict, doc := buildTree(3, 200)
	st := importDoc(t, doc, dict, 512, LayoutShuffled)
	led := st.Ledger()
	ctx := st.Swizzle(st.Root())
	misses := led.BufferMisses
	it := st.Step(ctx, xpath.DescendantOrSelf, xpath.AnyNode())
	for {
		if _, ok := it.Next(); !ok {
			break
		}
	}
	if led.BufferMisses != misses {
		t.Fatalf("intra-cluster step caused %d misses", led.BufferMisses-misses)
	}
}

func TestBordersHaveCompanions(t *testing.T) {
	dict, doc := buildTree(11, 150)
	st := importDoc(t, doc, dict, 512, LayoutShuffled)
	first, n := st.DataPages()
	borders := 0
	for i := 0; i < n; i++ {
		for _, id := range st.BordersOf(first + vdisk.PageID(i)) {
			borders++
			b := st.Swizzle(id)
			target := b.Target()
			far := st.Swizzle(target)
			if !far.IsBorder() {
				t.Fatalf("companion of %v is not a border", b.ID())
			}
			if far.Target() != b.ID() {
				t.Fatalf("companion link not symmetric: %v -> %v -> %v", b.ID(), target, far.Target())
			}
			if b.RecKind() == far.RecKind() {
				t.Fatal("companions have the same proxy kind")
			}
		}
	}
	if borders == 0 {
		t.Fatal("test document has no borders; increase size")
	}
}

func TestSwizzleCosts(t *testing.T) {
	dict, doc := buildTree(1, 50)
	st := importDoc(t, doc, dict, 8192, LayoutContiguous)
	led := st.Ledger()
	st.ResetForRun()
	c := st.Swizzle(st.Root())
	if led.Swizzles != 1 || led.CPU == 0 {
		t.Fatalf("swizzle not charged: %+v", led)
	}
	c.Unswizzle()
	if led.Unswizzles != 1 {
		t.Fatal("unswizzle not counted")
	}
}

func TestResetForRunColdStart(t *testing.T) {
	dict, doc := buildTree(2, 100)
	st := importDoc(t, doc, dict, 512, LayoutContiguous)
	_ = st.Export() // touch everything
	st.ResetForRun()
	led := st.Ledger()
	if led.Now != 0 || led.PageReads != 0 {
		t.Fatal("ledger not reset")
	}
	if st.Buffer().Len() != 0 {
		t.Fatal("buffer not flushed")
	}
	// First access after reset must be a miss.
	st.Swizzle(st.Root())
	if led.BufferMisses != 1 {
		t.Fatalf("misses = %d, want 1", led.BufferMisses)
	}
}

func TestStats(t *testing.T) {
	dict, doc := buildTree(8, 150)
	st := importDoc(t, doc, dict, 512, LayoutContiguous)
	vs := st.Stats()
	if vs.DataPages < 5 || vs.CoreNodes == 0 || vs.BorderNodes == 0 {
		t.Fatalf("stats = %+v", vs)
	}
	// Borders come in pairs.
	if vs.BorderNodes%2 != 0 {
		t.Fatalf("odd border count %d", vs.BorderNodes)
	}
	wantCore := doc.Size() - doc.Count(func(n *xmltree.Node) bool { return n.Kind == xmltree.Attribute })
	if vs.CoreNodes != wantCore {
		t.Fatalf("core nodes = %d, want %d", vs.CoreNodes, wantCore)
	}
}

func TestManualImportMatchesAssignment(t *testing.T) {
	dict := xmltree.NewDictionary()
	b := xmltree.NewBuilder(dict)
	b.Begin("R").
		Begin("A").Begin("B").End().End().
		Begin("C").End().
		End()
	doc := b.Doc()
	root := doc.Children[0]
	a := root.Children[0]
	bb := a.Children[0]
	c := root.Children[1]
	assign := func(n *xmltree.Node) int {
		switch n {
		case root:
			return 0
		case a:
			return 1
		case bb:
			return 1
		case c:
			return 2
		}
		t.Fatalf("unexpected node")
		return 0
	}
	disk := newDisk(256)
	st, err := ImportManual(disk, dict, doc, assign, ImportOptions{PageSize: 256})
	if err != nil {
		t.Fatal(err)
	}
	if !xmltree.Equal(doc, st.Export()) {
		t.Fatal("manual round trip failed")
	}
	if _, n := st.DataPages(); n != 3 {
		t.Fatalf("clusters = %d, want 3", n)
	}
	// Root R on page 1, A and B together on page 2, C on page 3.
	rootCur := st.Swizzle(st.Root())
	if rootCur.ID().Page() != 1 {
		t.Fatal("doc record not on page 1")
	}
	results := evalStepFull(st, rootCur, xpath.Descendant, xpath.Wildcard())
	pages := map[string]vdisk.PageID{}
	for _, r := range results {
		pages[dict.Name(r.Tag())] = r.ID().Page()
	}
	if pages["R"] != 1 || pages["A"] != 2 || pages["B"] != 2 || pages["C"] != 3 {
		t.Fatalf("placement = %v", pages)
	}
}

func TestDecodeCorruptPage(t *testing.T) {
	var img pageImage
	if err := decodePage(&img, 0, []byte{1}, 8); err == nil {
		t.Fatal("short page accepted")
	}
	// A dead slot before the document record's is legal: it names nothing.
	payload, err := encodePage(&recPage{recs: []rec{{dead: true}, {kind: RecDoc, parent: noParent}}}, 64)
	if err != nil {
		t.Fatal(err)
	}
	raw := finalizePage(payload, 64)
	if err := decodePage(&img, 0, raw, 64); err != nil || img.nslots != 2 {
		t.Fatalf("dead slot not tolerated: %v", err)
	}
	if _, ok := img.posOf(0); ok {
		t.Fatal("dead slot names a record")
	}
	// A slot naming a position past the records (the table follows the one
	// entry, at 6 + 8).
	raw[6+8+2] = 7
	if err := decodePage(&img, 0, raw, 64); err == nil {
		t.Fatal("bad slot accepted")
	}
}

func TestRecKindStrings(t *testing.T) {
	for k, want := range map[RecKind]string{
		RecDoc: "doc", RecElem: "elem", RecText: "text",
		RecComment: "comment", RecPI: "pi",
		RecProxyChild: "proxy-child", RecProxyParent: "proxy-parent",
	} {
		if k.String() != want {
			t.Fatalf("%d.String() = %q", k, k.String())
		}
	}
	if !RecProxyChild.IsProxy() || RecElem.IsProxy() {
		t.Fatal("IsProxy wrong")
	}
}

func TestLayoutString(t *testing.T) {
	if LayoutContiguous.String() != "contiguous" || LayoutShuffled.String() != "shuffled" || LayoutReverse.String() != "reverse" {
		t.Fatal("layout names")
	}
}

func TestImportCollectionRoundTrip(t *testing.T) {
	dict := xmltree.NewDictionary()
	var docs []*xmltree.Node
	var wants []*xmltree.Node
	for i := 0; i < 3; i++ {
		b := xmltree.NewBuilder(dict)
		b.Begin("doc").Attr("n", fmt.Sprintf("%d", i)).
			Leaf("title", fmt.Sprintf("member %d", i)).
			End()
		docs = append(docs, b.Doc())
		b2 := xmltree.NewBuilder(dict)
		b2.Begin("doc").Attr("n", fmt.Sprintf("%d", i)).
			Leaf("title", fmt.Sprintf("member %d", i)).
			End()
		wants = append(wants, b2.Doc())
	}
	disk := newDisk(512)
	st, err := ImportCollection(disk, dict, docs, ImportOptions{PageSize: 512})
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Roots()) != 3 {
		t.Fatalf("roots = %d", len(st.Roots()))
	}
	for i := range docs {
		if !xmltree.Equal(wants[i], st.ExportDocument(i)) {
			t.Fatalf("member %d round trip failed", i)
		}
	}
	// Persistence across Open.
	st2, err := Open(disk)
	if err != nil {
		t.Fatal(err)
	}
	if len(st2.Roots()) != 3 {
		t.Fatal("roots lost on reopen")
	}
	if !xmltree.Equal(wants[2], st2.ExportDocument(2)) {
		t.Fatal("member 2 lost on reopen")
	}
}

func TestCollectionOrdKeysDisjoint(t *testing.T) {
	dict := xmltree.NewDictionary()
	var docs []*xmltree.Node
	for i := 0; i < 2; i++ {
		b := xmltree.NewBuilder(dict)
		b.Begin("r").Leaf("x", "v").End()
		docs = append(docs, b.Doc())
	}
	st, err := ImportCollection(newDisk(512), dict, docs, ImportOptions{PageSize: 512})
	if err != nil {
		t.Fatal(err)
	}
	// Gather all element ord keys across both documents; they must be
	// pairwise distinct.
	seen := map[string]bool{}
	for _, root := range st.Roots() {
		for _, c := range evalStepFull(st, st.Swizzle(root), xpath.DescendantOrSelf, xpath.Wildcard()) {
			k := c.OrdKey().String()
			if seen[k] {
				t.Fatalf("duplicate ord key %s across documents", k)
			}
			seen[k] = true
		}
	}
}

func TestImportCollectionErrors(t *testing.T) {
	dict := xmltree.NewDictionary()
	if _, err := ImportCollection(newDisk(256), dict, nil, ImportOptions{PageSize: 256}); err == nil {
		t.Fatal("empty collection accepted")
	}
	if _, err := ImportCollection(newDisk(256), dict,
		[]*xmltree.Node{xmltree.NewElement(dict.Intern("x"))}, ImportOptions{PageSize: 256}); err == nil {
		t.Fatal("non-document member accepted")
	}
}

func TestAttributeContextAxes(t *testing.T) {
	dict := xmltree.NewDictionary()
	b := xmltree.NewBuilder(dict)
	b.Begin("a").Begin("b").Attr("x", "1").Attr("y", "2").End().End()
	st := importDoc(t, b.Doc(), dict, 8192, LayoutContiguous)

	// Resolve the attribute cursor @x of <b>.
	bCur := evalStepFull(st, st.Swizzle(st.Root()), xpath.Descendant, xpath.NameTest(dict.Intern("b")))[0]
	attrs := evalStepFull(st, bCur, xpath.AttributeAxis, xpath.AnyNode())
	if len(attrs) != 2 {
		t.Fatalf("attrs = %d", len(attrs))
	}
	x := attrs[0]

	// self::node() yields the attribute itself.
	self := evalStepFull(st, x, xpath.Self, xpath.AnyNode())
	if len(self) != 1 || self[0].Kind() != xmltree.Attribute {
		t.Fatalf("self from attribute = %v", self)
	}
	// self with non-matching name test yields nothing.
	if got := evalStepFull(st, x, xpath.Self, xpath.NameTest(dict.Intern("zz"))); len(got) != 0 {
		t.Fatal("name-filtered self matched")
	}
	// parent is the owning element.
	par := evalStepFull(st, x, xpath.Parent, xpath.AnyNode())
	if len(par) != 1 || par[0].Tag() != dict.Intern("b") {
		t.Fatalf("parent from attribute = %v", par)
	}
	// ancestors: b, a, document.
	anc := evalStepFull(st, x, xpath.Ancestor, xpath.AnyNode())
	if len(anc) != 3 {
		t.Fatalf("ancestors from attribute = %d", len(anc))
	}
	// ancestor-or-self additionally includes the attribute.
	aos := evalStepFull(st, x, xpath.AncestorOrSelf, xpath.AnyNode())
	if len(aos) != 4 {
		t.Fatalf("ancestor-or-self from attribute = %d", len(aos))
	}
	// child from an attribute is empty.
	if got := evalStepFull(st, x, xpath.Child, xpath.AnyNode()); len(got) != 0 {
		t.Fatal("attribute has children")
	}
}

func TestStepUnsupportedAxisPanics(t *testing.T) {
	dict := xmltree.NewDictionary()
	b := xmltree.NewBuilder(dict)
	b.Begin("a").End()
	st := importDoc(t, b.Doc(), dict, 8192, LayoutContiguous)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for unsupported axis")
		}
	}()
	st.Step(st.Swizzle(st.Root()), xpath.Axis(200), xpath.AnyNode())
}

func TestCursorAccessorsAndValid(t *testing.T) {
	dict := xmltree.NewDictionary()
	b := xmltree.NewBuilder(dict)
	b.Begin("a").Attr("k", "v").Text("body").End()
	st := importDoc(t, b.Doc(), dict, 8192, LayoutContiguous)
	var zero Cursor
	if zero.Valid() {
		t.Fatal("zero cursor valid")
	}
	a := evalStepFull(st, st.Swizzle(st.Root()), xpath.Child, xpath.Wildcard())[0]
	if !a.Valid() || a.AttrCount() != 1 {
		t.Fatalf("accessors: valid=%v attrs=%d", a.Valid(), a.AttrCount())
	}
	if a.RecKind() != RecElem || a.Kind() != xmltree.Element {
		t.Fatal("kind accessors")
	}
	if ClusterOf(a.ID()) != a.ID().Page() {
		t.Fatal("ClusterOf")
	}
	// Unswizzle/Swizzle round trip.
	id := a.Unswizzle()
	if st.Swizzle(id).Tag() != a.Tag() {
		t.Fatal("swizzle round trip")
	}
}

func TestExportScanMatchesWalkExport(t *testing.T) {
	dict, doc := buildTree(61, 250)
	st := importDoc(t, doc, dict, 512, LayoutShuffled)

	// Reference: serialize the walk-based export.
	want := xmlwriteString(dict, st.Export())

	st.ResetForRun()
	var sb strings.Builder
	if err := st.ExportScanXML(&sb); err != nil {
		t.Fatal(err)
	}
	if sb.String() != want {
		t.Fatalf("scan export differs:\nwant %.200s\ngot  %.200s", want, sb.String())
	}
	led := st.Ledger()
	// One sequential pass: almost every read continues the pattern.
	if led.SeqPageReads < led.PageReads-2 {
		t.Fatalf("scan export not sequential: %d of %d reads", led.SeqPageReads, led.PageReads)
	}
}

func TestExportScanFasterOnFragmentedVolume(t *testing.T) {
	dict, doc := buildTree(67, 400)
	st := importDoc(t, doc, dict, 512, LayoutShuffled)
	st.SetBufferCapacity(8) // force refaults on the random walk

	st.ResetForRun()
	var a strings.Builder
	if err := st.ExportScanXML(&a); err != nil {
		t.Fatal(err)
	}
	scanTime := st.Ledger().Total()

	st.ResetForRun()
	b := xmlwriteString(dict, st.Export())
	walkTime := st.Ledger().Total()

	if a.String() != b {
		t.Fatal("exports differ")
	}
	if scanTime >= walkTime {
		t.Fatalf("scan export (%v) not faster than walk export (%v) on fragmented volume", scanTime, walkTime)
	}
}

func TestExportScanCollection(t *testing.T) {
	dict := xmltree.NewDictionary()
	var docs []*xmltree.Node
	for i := 0; i < 2; i++ {
		b := xmltree.NewBuilder(dict)
		b.Begin("m").Leaf("v", fmt.Sprintf("%d", i)).End()
		docs = append(docs, b.Doc())
	}
	st, err := ImportCollection(newDisk(512), dict, docs, ImportOptions{PageSize: 512})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		var sb strings.Builder
		if err := st.ExportScanDocumentXML(&sb, i); err != nil {
			t.Fatal(err)
		}
		want := fmt.Sprintf("<m><v>%d</v></m>", i)
		if sb.String() != want {
			t.Fatalf("member %d = %q, want %q", i, sb.String(), want)
		}
	}
}

// xmlwriteString serializes via the xmlwrite package (test helper).
func xmlwriteString(dict *xmltree.Dictionary, doc *xmltree.Node) string {
	return xmlwrite.String(dict, doc, xmlwrite.Options{})
}
