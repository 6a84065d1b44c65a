package storage

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"

	"pathdb/internal/rng"
	"pathdb/internal/vdisk"
	"pathdb/internal/xmltree"
	"pathdb/internal/xpath"
)

// commitStaged stands in for the txn manager, minus the log: it stages one
// transaction against the latest version, relocates the write set to
// copy-on-write targets from the device allocator and publishes the
// successor version. Durability and page reclamation are internal/txn's
// business and are tested there (and in recovery_test.go).
func commitStaged(st *Store, stage func(*WriteTxn) error) error {
	base := st.CurrentVersion()
	wt := st.BeginWrite(base, st.Ledger())
	if err := stage(wt); err != nil {
		return err
	}
	ws, err := wt.WriteSet()
	if err != nil {
		return err
	}
	fresh := map[vdisk.PageID]bool{}
	for _, p := range ws.Fresh {
		fresh[p] = true
	}
	deltas := map[vdisk.PageID]vdisk.PageID{}
	for l, img := range ws.Images {
		target := l // fresh pages live at their identity location
		if !fresh[l] {
			target = st.disk.Alloc()
			deltas[l] = target
		}
		st.WriteData(target, img)
	}
	st.PublishVersion(base.Apply(base.Epoch()+1, deltas, ws.Fresh))
	return nil
}

// insertSubtree commits one insert as a transaction of its own.
func insertSubtree(st *Store, parent, before NodeID, frag *xmltree.Node) (id NodeID, err error) {
	err = commitStaged(st, func(wt *WriteTxn) (err error) {
		id, err = wt.InsertSubtree(parent, before, frag)
		return err
	})
	return id, err
}

// deleteSubtree commits one delete as a transaction of its own.
func deleteSubtree(st *Store, id NodeID) error {
	return commitStaged(st, func(wt *WriteTxn) error { return wt.DeleteSubtree(id) })
}

// insertAtShadow mirrors an insertSubtree call on the logical shadow tree.
func insertAtShadow(parent *xmltree.Node, before *xmltree.Node, frag *xmltree.Node) {
	if before == nil {
		parent.AppendChild(frag)
		return
	}
	for i, ch := range parent.Children {
		if ch == before {
			frag.Parent = parent
			parent.Children = append(parent.Children[:i],
				append([]*xmltree.Node{frag}, parent.Children[i:]...)...)
			return
		}
	}
	panic("before not found in shadow")
}

func deleteFromShadow(n *xmltree.Node) {
	p := n.Parent
	for i, ch := range p.Children {
		if ch == n {
			p.Children = append(p.Children[:i], p.Children[i+1:]...)
			return
		}
	}
	panic("node not found in shadow")
}

// cloneTree deep-copies a logical subtree (Import consumes the original).
func cloneTree(n *xmltree.Node) *xmltree.Node {
	cp := &xmltree.Node{Kind: n.Kind, Tag: n.Tag, Text: n.Text}
	for _, a := range n.Attrs {
		cp.SetAttr(a.Tag, a.Text)
	}
	for _, ch := range n.Children {
		cp.AppendChild(cloneTree(ch))
	}
	return cp
}

func TestInsertAppendSimple(t *testing.T) {
	dict := xmltree.NewDictionary()
	b := xmltree.NewBuilder(dict)
	b.Begin("a").Leaf("b", "one").End()
	doc := b.Doc()
	shadow := cloneTree(doc)
	st := importDoc(t, doc, dict, 8192, LayoutContiguous)

	// Find <a>.
	rootCur := st.Swizzle(st.Root())
	it := st.Step(rootCur, xpath.Child, xpath.Wildcard())
	a, _ := it.Next()

	frag := xmltree.NewElement(dict.Intern("c"))
	frag.AppendChild(xmltree.NewText("two"))
	id, err := insertSubtree(st, a.ID(), InvalidNodeID, frag)
	if err != nil {
		t.Fatal(err)
	}
	if st.Swizzle(id).Tag() != dict.Intern("c") {
		t.Fatal("inserted node not addressable")
	}
	shadow.Children[0].AppendChild(cloneTree(frag))
	if !xmltree.Equal(shadow, st.Export()) {
		t.Fatalf("export mismatch after append:\n%v", st.Export())
	}
}

func TestInsertBeforeKeepsOrder(t *testing.T) {
	dict := xmltree.NewDictionary()
	b := xmltree.NewBuilder(dict)
	b.Begin("a").Leaf("x", "1").Leaf("x", "3").End()
	doc := b.Doc()
	st := importDoc(t, doc, dict, 8192, LayoutContiguous)

	rootCur := st.Swizzle(st.Root())
	it := st.Step(rootCur, xpath.Child, xpath.Wildcard())
	a, _ := it.Next()
	// Second child of <a> is <x>3</x>.
	var kids []Cursor
	it = st.Step(a, xpath.Child, xpath.Wildcard())
	for {
		c, ok := it.Next()
		if !ok {
			break
		}
		kids = append(kids, c)
	}
	if len(kids) != 2 {
		t.Fatalf("kids = %d", len(kids))
	}

	frag := xmltree.NewElement(dict.Intern("x"))
	frag.AppendChild(xmltree.NewText("2"))
	if _, err := insertSubtree(st, a.ID(), kids[1].ID(), frag); err != nil {
		t.Fatal(err)
	}
	got := st.Export()
	var texts []string
	got.Walk(func(n *xmltree.Node) bool {
		if n.Kind == xmltree.Text {
			texts = append(texts, n.Text)
		}
		return true
	})
	if strings.Join(texts, "") != "123" {
		t.Fatalf("order after insert = %v", texts)
	}
}

func TestDeleteSubtree(t *testing.T) {
	dict := xmltree.NewDictionary()
	b := xmltree.NewBuilder(dict)
	b.Begin("a").
		Begin("b").Leaf("c", "deep").End().
		Leaf("d", "keep").
		End()
	doc := b.Doc()
	st := importDoc(t, doc, dict, 8192, LayoutContiguous)

	rootCur := st.Swizzle(st.Root())
	it := st.Step(rootCur, xpath.Descendant, xpath.NameTest(dict.Intern("b")))
	bNode, ok := it.Next()
	if !ok {
		t.Fatal("b not found")
	}
	if err := deleteSubtree(st, bNode.ID()); err != nil {
		t.Fatal(err)
	}
	got := st.Export()
	if got.CountTag(dict.Intern("b")) != 0 || got.CountTag(dict.Intern("c")) != 0 {
		t.Fatal("subtree not deleted")
	}
	if got.CountTag(dict.Intern("d")) != 1 {
		t.Fatal("sibling lost")
	}
}

func TestDeleteGuards(t *testing.T) {
	dict := xmltree.NewDictionary()
	b := xmltree.NewBuilder(dict)
	b.Begin("a").End()
	st := importDoc(t, b.Doc(), dict, 8192, LayoutContiguous)
	if err := deleteSubtree(st, st.Root()); err == nil {
		t.Fatal("deleted document node")
	}
	if _, err := insertSubtree(st, st.Root().WithAttr(0), InvalidNodeID, xmltree.NewText("x")); err == nil {
		t.Fatal("inserted under an attribute")
	}
}

func TestInsertOverflowsToFreshPages(t *testing.T) {
	dict := xmltree.NewDictionary()
	b := xmltree.NewBuilder(dict)
	b.Begin("a")
	for i := 0; i < 10; i++ {
		b.Leaf("x", strings.Repeat("f", 30))
	}
	b.End()
	doc := b.Doc()
	st := importDoc(t, doc, dict, 512, LayoutContiguous)
	before := st.NumDataPages()

	rootCur := st.Swizzle(st.Root())
	it := st.Step(rootCur, xpath.Child, xpath.Wildcard())
	a, _ := it.Next()
	aID := a.ID()

	// Insert a fragment far larger than one page.
	frag := xmltree.NewElement(dict.Intern("big"))
	for i := 0; i < 60; i++ {
		e := xmltree.NewElement(dict.Intern("y"))
		e.AppendChild(xmltree.NewText(strings.Repeat("z", 20)))
		frag.AppendChild(e)
	}
	if _, err := insertSubtree(st, aID, InvalidNodeID, cloneTree(frag)); err != nil {
		t.Fatal(err)
	}
	if st.NumDataPages() <= before {
		t.Fatal("no extension pages allocated")
	}
	got := st.Export()
	if got.CountTag(dict.Intern("y")) != 60 {
		t.Fatalf("y count = %d", got.CountTag(dict.Intern("y")))
	}
}

// TestRandomUpdateSequence applies a random interleaving of inserts and
// deletes against both the store and a logical shadow tree, comparing the
// export after every few operations and at the end.
func TestRandomUpdateSequence(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		dict, doc := buildTree(seed^0xDEAD, 60)
		shadow := cloneTree(doc)
		st := importDoc(t, doc, dict, 512, LayoutShuffled)
		tags := []xmltree.TagID{dict.Intern("a"), dict.Intern("b"), dict.Intern("n1"), dict.Intern("n2")}

		// liveNodes pairs logical shadow nodes with stored NodeIDs by a
		// parallel walk (exports are equal, so positions correspond).
		type pair struct {
			shadow *xmltree.Node
			id     NodeID
		}
		collect := func() []pair {
			var out []pair
			var walk func(sn *xmltree.Node, c Cursor)
			walk = func(sn *xmltree.Node, c Cursor) {
				out = append(out, pair{sn, c.ID()})
				var storedKids []Cursor
				var gather func(cc Cursor)
				gather = func(cc Cursor) {
					for _, ch := range childCursors(cc) {
						if ch.RecKind() == RecProxyChild {
							gather(st.Swizzle(ch.Target()))
							continue
						}
						storedKids = append(storedKids, ch)
					}
				}
				gather(c)
				if len(storedKids) != len(sn.Children) {
					panic(fmt.Sprintf("shadow divergence: %d vs %d children", len(storedKids), len(sn.Children)))
				}
				for i, ch := range sn.Children {
					walk(ch, storedKids[i])
				}
			}
			rootCur := st.Swizzle(st.Root())
			// Document node.
			var kids []Cursor
			for _, ch := range childCursors(rootCur) {
				if ch.RecKind() == RecProxyChild {
					// fragment under anchor: single chain
					ch = childCursors(st.Swizzle(ch.Target()))[0]
				}
				kids = append(kids, ch)
			}
			for i, ch := range shadow.Children {
				walk(ch, kids[i])
			}
			return out
		}

		for op := 0; op < 12; op++ {
			pairs := collect()
			// Pick an element pair for the operation.
			var elems []pair
			for _, p := range pairs {
				if p.shadow.Kind == xmltree.Element {
					elems = append(elems, p)
				}
			}
			if len(elems) == 0 {
				break
			}
			pk := elems[r.Intn(len(elems))]
			switch {
			case r.Bool(0.6):
				// Insert a small random fragment.
				frag := xmltree.NewElement(tags[r.Intn(len(tags))])
				if r.Bool(0.5) {
					frag.AppendChild(xmltree.NewText("ins"))
				}
				if r.Bool(0.3) {
					frag.AppendChild(xmltree.NewElement(tags[r.Intn(len(tags))]))
				}
				var beforeShadow *xmltree.Node
				before := InvalidNodeID
				if n := len(pk.shadow.Children); n > 0 && r.Bool(0.5) {
					// Choose an existing child as the insertion point.
					ci := r.Intn(n)
					beforeShadow = pk.shadow.Children[ci]
					// Find its NodeID from pairs.
					for _, p := range pairs {
						if p.shadow == beforeShadow {
							before = p.id
							break
						}
					}
				}
				if _, err := insertSubtree(st, pk.id, before, cloneTree(frag)); err != nil {
					t.Logf("seed %d insert: %v", seed, err)
					return false
				}
				if beforeShadow == nil {
					insertAtShadow(pk.shadow, nil, cloneTree(frag))
				} else {
					insertAtShadow(pk.shadow, beforeShadow, cloneTree(frag))
				}
			case pk.shadow.Parent != nil && pk.shadow.Parent.Kind != xmltree.Document:
				if err := deleteSubtree(st, pk.id); err != nil {
					t.Logf("seed %d delete: %v", seed, err)
					return false
				}
				deleteFromShadow(pk.shadow)
			}
			if !xmltree.Equal(shadow, st.Export()) {
				t.Logf("seed %d diverged after op %d", seed, op)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestQueriesCorrectAfterUpdates runs all three plan strategies against an
// updated document and compares with the logical reference.
func TestQueriesCorrectAfterUpdates(t *testing.T) {
	dict, doc := buildTree(5, 80)
	shadow := cloneTree(doc)
	st := importDoc(t, doc, dict, 512, LayoutNatural)

	// Append a recognisable fragment under the root element.
	rootCur := st.Swizzle(st.Root())
	it := st.Step(rootCur, xpath.Child, xpath.Wildcard())
	rootElem, _ := it.Next()
	frag := xmltree.NewElement(dict.Intern("fresh"))
	for i := 0; i < 30; i++ {
		e := xmltree.NewElement(dict.Intern("b"))
		e.AppendChild(xmltree.NewText("new"))
		frag.AppendChild(e)
	}
	if _, err := insertSubtree(st, rootElem.ID(), InvalidNodeID, cloneTree(frag)); err != nil {
		t.Fatal(err)
	}
	shadow.Children[0].AppendChild(cloneTree(frag))

	// Logical reference count of //b.
	want := 0
	shadow.Walk(func(n *xmltree.Node) bool {
		if n.Kind == xmltree.Element && n.Tag == dict.Intern("b") {
			want++
		}
		return true
	})

	test := xpath.NameTest(dict.Intern("b"))
	for _, axis := range []xpath.Axis{xpath.Descendant} {
		got := len(evalStepFull(st, st.Swizzle(st.Root()), axis, test))
		if got != want {
			t.Fatalf("descendant count after update = %d, want %d", got, want)
		}
	}
}
