package storage

import (
	"encoding/binary"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"testing"

	"pathdb/internal/ordpath"
	"pathdb/internal/stats"
	"pathdb/internal/vdisk"
	"pathdb/internal/xmark"
	"pathdb/internal/xmltree"
	"pathdb/internal/xpath"
)

// rawPage returns a copy of the stored bytes (trailer included) of logical
// page p as st's current version reads them.
func rawPage(t testing.TB, st *Store, p vdisk.PageID) []byte {
	t.Helper()
	f, err := st.buf.FixOn(st.led, st.resolve(p))
	if err != nil {
		t.Fatalf("page %d: %v", p, err)
	}
	defer st.buf.Unfix(f)
	return append([]byte(nil), f.Data...)
}

// xmarkVolume imports a small XMark document; 8192 is the cluster size of
// the benchmark volumes.
func xmarkVolume(t testing.TB, pageSize int) *Store {
	st, _ := xmarkVolumeDoc(t, pageSize)
	return st
}

// xmarkVolumeDoc is xmarkVolume with the document it imported.
func xmarkVolumeDoc(t testing.TB, pageSize int) (*Store, *xmltree.Node) {
	dict := xmltree.NewDictionary()
	doc := xmark.Generate(dict, xmark.Config{ScaleFactor: 0.05, Seed: 3})
	return importDoc(t, doc, dict, pageSize, LayoutContiguous), doc
}

// stressedVolume is the seeded update stress: 512-byte pages saturated with
// appends (dedicated proxies, sibling spills, subtree relocation, tail
// splits), then thinned by deletes (tombstones, collapsed anchors) and
// refilled by inserts before existing children (out-of-slot-order siblings,
// reused dead slots, deepening ord keys).
func stressedVolume(t testing.TB) *Store {
	dict, doc := buildTree(31, 200)
	st := importDoc(t, doc, dict, 512, LayoutShuffled)
	root, _ := st.Step(st.Swizzle(st.Root()), xpath.Child, xpath.Wildcard()).Next()
	saturate(t, st, dict, root.ID(), 150)
	ins := xpath.NameTest(dict.Intern("ins"))
	for i := 0; i < 50; i++ {
		// Relocations invalidate handles: re-resolve before every operation.
		cands := evalStepFull(st, st.Swizzle(st.Root()), xpath.Descendant, ins)
		if err := deleteSubtree(st, cands[(i*7)%len(cands)].ID()); err != nil {
			t.Fatalf("delete %d: %v", i, err)
		}
	}
	for i := 0; i < 40; i++ {
		cands := evalStepFull(st, st.Swizzle(st.Root()), xpath.Descendant, ins)
		e := xmltree.NewElement(dict.Intern("pre"))
		e.AppendChild(&xmltree.Node{Kind: xmltree.Comment, Tag: xmltree.NoTag, Text: "c"})
		if _, err := insertSubtree(st, root.ID(), cands[(i*11)%len(cands)].ID(), e); err != nil {
			t.Fatalf("insert-before %d: %v", i, err)
		}
	}
	return st
}

// wideVolume holds more distinct tags than an entry's tag field can name,
// so its pages carry escaped tags too.
func wideVolume(t testing.TB) (*Store, *xmltree.Node) {
	dict := xmltree.NewDictionary()
	b := xmltree.NewBuilder(dict)
	b.Begin("root")
	for i := 0; i < tagEscape+200; i++ {
		b.Begin(fmt.Sprintf("t%d", i)).Attr(fmt.Sprintf("t%d", tagEscape+i%300), "v").Text("x").End()
	}
	b.End()
	return importDoc(t, b.Doc(), dict, 8192, LayoutContiguous), b.Doc()
}

// stressMarks counts what the update stress leaves behind in one image:
// dead slots, and live records whose slot is not their position.
func stressMarks(img *pageImage) (dead, moved int) {
	for s := 0; s < img.nslots; s++ {
		if p, ok := img.posOf(uint16(s)); !ok {
			dead++
		} else if p != s {
			moved++
		}
	}
	return dead, moved
}

// naiveRec is one record as naiveRead sees it.
type naiveRec struct {
	kind        RecKind
	parent, end int // positions; -1 for a root's parent
	slot        int
	tag         xmltree.TagID
	key, text   string
	attrs       []attrRec
	target      NodeID
}

// naiveRead is the reference reader of the page layout (see page.go) for
// well-formed pages: each field read where the layout puts it, the
// standard library's varints, a string per field, keys by concatenation.
func naiveRead(raw []byte) (recs []naiveRec, slots []int) {
	u16 := func(off int) int { return int(binary.LittleEndian.Uint16(raw[off:])) }
	n, nslots, heapEnd := u16(0), u16(2), u16(4)
	recs = make([]naiveRec, n)
	for s := 0; s < nslots; s++ {
		slots = append(slots, u16(6+8*n+2*s))
		if p := slots[s]; p != 0xFFFF {
			recs[p].slot = s
		}
	}
	for p := range recs {
		r, e := &recs[p], 6+8*p
		w0 := u16(e)
		r.kind, r.parent, r.end, r.tag = RecKind(w0&7), u16(e+2), u16(e+4), xmltree.NoTag
		if r.parent == 0xFFFF {
			r.parent = -1
		}
		hi := heapEnd
		if p+1 < n {
			hi = u16(e + 8 + 6)
		}
		h := raw[u16(e+6):hi]
		uv := func() int { v, k := binary.Uvarint(h); h = h[k:]; return int(v) }
		if r.kind == RecElem {
			if r.tag = xmltree.TagID(w0 >> 4); w0>>4 == 0xFFF {
				r.tag = xmltree.TagID(uv())
			}
		}
		if w0&8 != 0 {
			// One level: codes (their length is one more than the leading
			// one bits of their first byte) up to one ending even.
			k := 0
			for odd := true; odd; odd = h[k-1]&1 == 1 {
				n := 1
				for b := h[k]; b >= 0x80 && n < 9; b <<= 1 {
					n++
				}
				k += n
			}
			r.key, h = recs[r.parent].key+string(h[:k]), h[k:]
		} else {
			l := uv()
			r.key, h = string(h[:l]), h[l:]
		}
		switch r.kind {
		case RecElem:
			for len(h) > 0 {
				t, l := uv(), uv()
				r.attrs, h = append(r.attrs, attrRec{tag: xmltree.TagID(t), val: string(h[:l])}), h[l:]
			}
		case RecText, RecComment, RecPI:
			r.text = string(h)
		case RecProxyChild, RecProxyParent:
			r.target = NodeID(binary.LittleEndian.Uint64(h))
		}
	}
	return recs, slots
}

// naiveExport rebuilds the document below root from naiveRead's records of
// every page, following each ProxyChild to its fragment.
func naiveExport(t *testing.T, st *Store, root NodeID) *xmltree.Node {
	pages := map[vdisk.PageID][]naiveRec{}
	for i := 0; i < st.NumDataPages(); i++ {
		p := st.DataPage(i)
		pages[p], _ = naiveRead(rawPage(t, st, p))
	}
	posOf := func(id NodeID) int {
		for p, r := range pages[id.Page()] {
			if r.slot == int(id.Slot()) {
				return p
			}
		}
		t.Fatalf("no record for %v", id)
		return 0
	}
	var children func(out *xmltree.Node, page vdisk.PageID, p int)
	children = func(out *xmltree.Node, page vdisk.PageID, p int) {
		recs := pages[page]
		for q := range recs {
			switch r := recs[q]; {
			case r.parent != p:
			case r.kind == RecProxyChild:
				children(out, r.target.Page(), posOf(r.target))
			case r.kind == RecElem:
				e := xmltree.NewElement(r.tag)
				for _, a := range r.attrs {
					e.SetAttr(a.tag, a.val)
				}
				children(e, page, q)
				out.AppendChild(e)
			default:
				out.AppendChild(&xmltree.Node{Kind: r.kind.LogicalKind(), Tag: xmltree.NoTag, Text: r.text})
			}
		}
	}
	doc := xmltree.NewDocument()
	children(doc, root.Page(), posOf(root))
	return doc
}

// checkAgainstNaive compares what the image answers for every position and
// slot with what naiveRead reads from the same bytes.
func checkAgainstNaive(t *testing.T, st *Store, img *pageImage, raw []byte) {
	t.Helper()
	recs, slots := naiveRead(raw)
	if img.n != len(recs) || img.nslots != len(slots) {
		t.Fatalf("page %d: %d records, %d slots; naive %d, %d", img.page, img.n, img.nslots, len(recs), len(slots))
	}
	var borders []NodeID
	for s, p := range slots {
		if q, ok := img.posOf(uint16(s)); ok != (p != 0xFFFF) || ok && q != p {
			t.Fatalf("page %d slot %d: position %d %v, naive %d", img.page, s, q, ok, p)
		}
		if p != 0xFFFF && recs[p].kind.IsProxy() {
			borders = append(borders, MakeNodeID(img.page, uint16(s)))
		}
	}
	if fmt.Sprint(img.borderIDs) != fmt.Sprint(borders) {
		t.Fatalf("page %d: borders %v, naive %v", img.page, img.borderIDs, borders)
	}
	for p, w := range recs {
		c := img.cursor(st, p, -1)
		got := naiveRec{kind: c.RecKind(), parent: img.parent(p), end: img.end(p), slot: int(c.slot()), tag: c.Tag(),
			key: string(c.OrdKey()), text: c.Text()}
		for a := 0; a < c.AttrCount(); a++ {
			ac := c
			ac.attr = a
			got.attrs = append(got.attrs, attrRec{tag: ac.Tag(), val: ac.Text()})
		}
		if c.IsBorder() {
			got.target = c.Target()
		}
		if fmt.Sprint(got) != fmt.Sprint(w) {
			t.Fatalf("page %d position %d:\n got %+v\nwant %+v", img.page, p, got, w)
		}
	}
}

// TestDecodeAgreesWithReference is the property the in-place image rests
// on: on every page of an XMark volume, of the update stress — slots out of
// position order, dead slots, reused slots, proxy chains — and of a volume
// with escaped tags, the image answers every field as the naive reader
// reads it, survives the round trip through the write path's records, and
// exports the logical tree.
func TestDecodeAgreesWithReference(t *testing.T) {
	xm, xmDoc := xmarkVolumeDoc(t, 8192)
	wide, wideDoc := wideVolume(t)
	for name, st := range map[string]*Store{"xmark": xm, "stress": stressedVolume(t), "wide": wide} {
		ps := st.disk.PageSize()
		dead, moved := 0, 0
		for i := 0; i < st.NumDataPages(); i++ {
			p := st.DataPage(i)
			raw := rawPage(t, st, p)
			img := new(pageImage)
			if err := decodePage(img, p, raw, ps); err != nil {
				t.Fatalf("%s page %d: %v", name, p, err)
			}
			checkAgainstNaive(t, st, img, raw)
			payload, err := encodePage(img.expand(), ps)
			if err != nil {
				t.Fatalf("%s page %d: re-encode: %v", name, p, err)
			}
			if want := raw[:img.heapEnd]; string(payload) != string(want) {
				t.Fatalf("%s page %d: bytes changed across expand/encode", name, p)
			}
			d, m := stressMarks(img)
			dead, moved = dead+d, moved+m
		}
		if name == "stress" && (dead == 0 || moved == 0) {
			t.Fatalf("stress volume has %d dead slots and %d slots off their position; it exercises neither", dead, moved)
		}
		if !xmltree.Equal(naiveExport(t, st, st.Root()), st.Export()) {
			t.Fatalf("%s: export differs from the naive reader's tree", name)
		}
	}
	for name, v := range map[string]struct {
		st  *Store
		doc *xmltree.Node
	}{"xmark": {xm, xmDoc}, "wide": {wide, wideDoc}} {
		if !xmltree.Equal(v.doc, v.st.Export()) {
			t.Fatalf("%s: export differs from the imported document", name)
		}
	}
}

// tinyPage is a 64-byte page holding one document record whose child is a
// text node, the raw material of the length tests.
func tinyPage(t *testing.T) []byte {
	pg := &recPage{page: 1, recs: []rec{
		{kind: RecDoc, parent: noParent, ord: ordpath.Root()},
		{kind: RecText, parent: 0, ord: ordpath.Root().BulkChild(0), text: "hi"},
	}}
	payload, err := encodePage(pg, 64)
	if err != nil {
		t.Fatal(err)
	}
	return finalizePage(payload, 64)
}

// caretPage is a 128-byte page whose keys include ones Between gave
// inserted siblings: carets, stored relative to their parent's key like a
// bulk key, and one stored whole below a proxy anchor.
func caretPage(t testing.TB) ([]byte, []ordpath.Key) {
	root := ordpath.Root().BulkChild(0)
	first, second := root.BulkChild(0), root.BulkChild(1)
	mid := ordpath.Between(first, second)
	keys := []ordpath.Key{nil, root, first, mid, mid.BulkChild(0), ordpath.Between(first, mid), second, nil, ordpath.Between(mid, second)}
	pg := &recPage{page: 1, recs: []rec{
		{kind: RecDoc, parent: noParent},
		{kind: RecElem, parent: 0, tag: 1, ord: keys[1]},
		{kind: RecElem, parent: 1, tag: 2, ord: keys[2]},
		{kind: RecElem, parent: 1, tag: 2, ord: keys[3]},
		{kind: RecText, parent: 3, ord: keys[4], text: "x"},
		{kind: RecElem, parent: 1, tag: 2, ord: keys[5]},
		{kind: RecElem, parent: 1, tag: 2, ord: keys[6]},
		{kind: RecProxyParent, parent: noParent, target: NodeID(1)},
		{kind: RecElem, parent: 7, tag: 2, ord: keys[8]},
	}}
	for i := range pg.recs {
		if p := pg.recs[i].parent; p != noParent {
			pg.recs[p].children = append(pg.recs[p].children, uint16(i))
		}
	}
	slices.SortFunc(pg.recs[1].children, func(a, b uint16) int { return ordpath.Compare(keys[a], keys[b]) })
	payload, err := encodePage(pg, 128)
	if err != nil {
		t.Fatal(err)
	}
	return finalizePage(payload, 128), keys
}

// TestDecodeCaretKeys: a careted key is one level below its parent's, so it
// is stored relative like a bulk key and decodes to the key it was.
func TestDecodeCaretKeys(t *testing.T) {
	raw, keys := caretPage(t)
	var img pageImage
	if err := decodePage(&img, 1, raw, 128); err != nil {
		t.Fatal(err)
	}
	naive, _ := naiveRead(raw)
	rel := 0
	for p := 0; p < img.n; p++ {
		s := img.slotOf(p)
		if got := img.key(p); string(got) != string(keys[s]) || string(got) != naive[p].key {
			t.Errorf("slot %d: key %v, want %v (naive reader: %v)", s, got, keys[s], ordpath.Key(naive[p].key))
		}
		if img.word(p, 0)&keyRel != 0 {
			rel++
		}
	}
	if rel != 6 {
		t.Errorf("%d keys stored relative, want the 6 below a keyed parent", rel)
	}
}

func TestDecodeCorruptLengths(t *testing.T) {
	var img pageImage
	if err := decodePage(&img, 1, tinyPage(t), 64); err != nil {
		t.Fatalf("well-formed page refused: %v", err)
	}
	// The document's heap starts right after the slot table: 6 + 2·8 + 2·2.
	const docHeap, textHeap = 26, 27
	for name, edit := range map[string]func(b []byte){
		"key length 2^63": func(b []byte) {
			copy(b[docHeap:], []byte{0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01})
			binary.LittleEndian.PutUint16(b[6+8+6:], docHeap+10)
			binary.LittleEndian.PutUint16(b[4:], docHeap+10+3)
		},
		"key length past the heap": func(b []byte) { b[docHeap] = 5 },
		"heap end past the page":   func(b []byte) { binary.LittleEndian.PutUint16(b[4:], 60) },
		"heap end in the slot table": func(b []byte) {
			binary.LittleEndian.PutUint16(b[4:], 25)
		},
		"key ends mid-component":    func(b []byte) { copy(b[textHeap:], []byte{0xE0, 0x82, 0x82}) },
		"key level ends in a caret": func(b []byte) { copy(b[textHeap:], []byte{0x03, 0x03, 0x03}) },
		"escaped tag below the escape": func(b []byte) {
			binary.LittleEndian.PutUint16(b[6+8:], uint16(RecElem)|tagEscape<<tagShift)
		},
		"proxy target truncated":  func(b []byte) { b[6+8] = byte(RecProxyChild) },
		"record is its own child": func(b []byte) { binary.LittleEndian.PutUint16(b[6+8+2:], 1) },
	} {
		raw := tinyPage(t)
		edit(raw)
		var ce *corruptError
		if err := decodePage(&img, 1, raw, 64); !errors.As(err, &ce) {
			t.Errorf("%s: got %v, want a *corruptError", name, err)
		}
	}
}

// TestDecodeRejectsCorruptFields sets every fixed-width field of a valid
// XMark page (the checksum bypassed) to values outside its range: each
// gives a *corruptError.
func TestDecodeRejectsCorruptFields(t *testing.T) {
	st := xmarkVolume(t, 8192)
	p := st.DataPage(st.NumDataPages() / 2)
	raw := rawPage(t, st, p)
	var img pageImage
	if err := decodePage(&img, p, raw, 8192); err != nil {
		t.Fatal(err)
	}
	n, heapStart := img.n, img.slots+2*img.nslots
	try := func(field string, off, v int) {
		t.Helper()
		bad := append([]byte(nil), raw...)
		binary.LittleEndian.PutUint16(bad[off:], uint16(v))
		var ce *corruptError
		if err := decodePage(new(pageImage), p, bad, 8192); !errors.As(err, &ce) {
			t.Fatalf("%s = %d: got %v, want a *corruptError", field, v, err)
		}
	}
	try("n", 0, n+1)
	try("n", 0, 0xFFFF)
	try("nslots", 2, 0xFFFF)
	try("heapEnd", 4, usable(8192)+1)
	try("heapEnd", 4, heapStart-1)
	for q := 0; q < n; q++ {
		e := pageHeaderSize + entrySize*q
		w0 := img.word(q, 0)
		try("kind", e, w0&^7|7)
		if img.kind(q) != RecElem {
			try("tag", e, w0|1<<tagShift)
		}
		for _, v := range []int{q, q + 1, n, 0xFFFE} {
			try("parent", e+2, v)
		}
		if img.parent(q) != noParent {
			try("parent", e+2, noPos)
		}
		for _, v := range []int{0, q, n + 1, 0xFFFF} {
			try("end", e+4, v)
		}
		if par := img.parent(q); par != noParent && img.end(par) < n {
			try("end", e+4, img.end(par)+1)
		}
		for _, v := range []int{heapStart - 1, img.heapEnd + 1, 0xFFFF} {
			try("heap offset", e+6, v)
		}
	}
	for s := 0; s < img.nslots; s++ {
		for _, v := range []int{n, 0xFFFE} {
			try("slot", img.slots+2*s, v)
		}
		if s > 0 {
			try("slot", img.slots+2*s, int(binary.LittleEndian.Uint16(raw[img.slots:])))
		}
	}
}

// exercise walks every axis from every record and attribute of an accepted
// image, reads every field, the borders and the string values, and exports
// each fragment, all without leaving the page: what FuzzDecodePage demands
// never panics.
func exercise(img *pageImage) {
	st := &Store{led: stats.NewLedger(), model: vdisk.DefaultCostModel()}
	tests := []xpath.NodeTest{xpath.AnyNode(), xpath.Wildcard(), xpath.TextTest(), xpath.NameTest(1), xpath.NameSetTest(0, 1, tagEscape+1)}
	axes := []xpath.Axis{xpath.Self, xpath.Child, xpath.Descendant, xpath.DescendantOrSelf, xpath.Parent, xpath.Ancestor,
		xpath.AncestorOrSelf, xpath.FollowingSibling, xpath.PrecedingSibling, xpath.AttributeAxis}
	visit := func(c Cursor) {
		_, _, _, _, _ = c.ID(), c.RecKind(), c.Tag(), c.Text(), c.OrdKey()
		if c.IsBorder() {
			_ = c.Target()
		} else {
			_ = c.Kind()
		}
		for _, test := range tests {
			for _, axis := range axes {
				if c.attr >= 0 && axis == xpath.AttributeAxis {
					continue
				}
				it := st.Step(c, axis, test)
				for r, ok := it.Next(); ok; r, ok = it.Next() {
					_ = r.ID()
				}
				it.Release()
			}
		}
	}
	for p := 0; p < img.n; p++ {
		c := img.cursor(st, p, -1)
		visit(c)
		for a := 0; a < c.AttrCount(); a++ {
			c.attr = a
			visit(c)
		}
	}
	// String values, as far as they stay on the page.
	var buf []byte
	for p := 0; p < img.n; p++ {
		buf = buf[:0]
		for q := p + 1; q < img.end(p); q++ {
			if img.kind(q) == RecText {
				buf = append(buf, img.text(q)...)
			}
		}
	}
	for _, id := range img.borderIDs {
		if p, ok := img.posOf(id.Slot()); !ok || !img.kind(p).IsProxy() {
			panic("border without a proxy record")
		}
	}
	// Export, a proxy child standing for the fragment it leads to.
	var export func(p int) *xmltree.Node
	export = func(p int) *xmltree.Node {
		c := img.cursor(st, p, -1)
		n := &xmltree.Node{Kind: xmltree.Document, Tag: xmltree.NoTag}
		switch k := c.RecKind(); k {
		case RecElem:
			n = xmltree.NewElement(c.Tag())
			for a := 0; a < c.AttrCount(); a++ {
				ac := c
				ac.attr = a
				n.SetAttr(ac.Tag(), ac.Text())
			}
		case RecText, RecComment, RecPI:
			n = &xmltree.Node{Kind: k.LogicalKind(), Tag: xmltree.NoTag, Text: c.Text()}
		}
		for _, ch := range childCursors(c) {
			n.AppendChild(export(int(ch.pos)))
		}
		return n
	}
	for p := 0; p < img.n; p = img.end(p) {
		_ = export(p)
	}
	_ = rewrittenSynopsis(img, 0, nil)
}

// logical prints a page's records by slot, the child lists left out: an
// accepted page may order siblings as it likes, a re-encoded one orders
// them by key.
func logical(pg *recPage) string {
	recs := append([]rec(nil), pg.recs...)
	for i := range recs {
		recs[i].children = nil
	}
	return fmt.Sprint(recs)
}

// FuzzDecodePage: whatever the bytes, decodePage returns an image or a
// *corruptError and never panics; an accepted image navigates on every axis
// without a panic, and survives the round trip through the write path's
// records unchanged. The page size is the input's length, so seeds of
// different sizes coexist.
func FuzzDecodePage(f *testing.F) {
	xm := xmarkVolume(f, 1024) // small pages: the fuzzer minimizes what it keeps
	f.Add(rawPage(f, xm, xm.DataPage(xm.NumDataPages()/2)))
	// One page of the update stress with both of its marks.
	stress := stressedVolume(f)
	for i := 0; i < stress.NumDataPages(); i++ {
		p := stress.DataPage(i)
		if dead, moved := stressMarks(stress.image(p)); dead > 0 && moved > 0 {
			f.Add(rawPage(f, stress, p))
			break
		}
	}
	// A page whose records carry attributes and escaped tags.
	wide, _ := wideVolume(f)
	f.Add(rawPage(f, wide, wide.DataPage(wide.NumDataPages()-1)))
	// A page whose keys carry carets.
	caret, _ := caretPage(f)
	f.Add(caret)
	f.Fuzz(func(t *testing.T, raw []byte) {
		ps := len(raw)
		if ps < 16 || ps > MaxPageSize {
			return
		}
		img := new(pageImage)
		if err := decodePage(img, 1, raw, ps); err != nil {
			var ce *corruptError
			if !errors.As(err, &ce) {
				t.Fatalf("error %v is not a *corruptError", err)
			}
			return
		}
		exercise(img)
		payload, err := encodePage(img.expand(), ps)
		if err != nil {
			t.Fatalf("accepted page does not re-encode: %v", err)
		}
		back := new(pageImage)
		if err := decodePage(back, 1, finalizePage(payload, ps), ps); err != nil {
			t.Fatalf("re-encoded page refused: %v", err)
		}
		orig := img.expand()
		orig.recs = orig.recs[:back.nslots]
		if logical(back.expand()) != logical(orig) {
			t.Fatal("image changed across expand/encode")
		}
	})
}

// TestDecodeFootprint locks the gain where it is made. A miss validates the
// page into the swizzle entry's image: at most three allocations (the key
// arena, the borders' NodeIDs) and 7 500 bytes for an 8 KB XMark cluster.
// The page's synopsis is built once per page version, not per miss.
func TestDecodeFootprint(t *testing.T) {
	st := xmarkVolume(t, 8192)
	p := st.DataPage(st.NumDataPages() / 2)
	raw := rawPage(t, st, p)
	var img pageImage
	miss := func() {
		if err := decodePage(&img, p, raw, 8192); err != nil {
			t.Fatal(err)
		}
	}
	miss()
	allocs := testing.AllocsPerRun(100, miss)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	const runs = 100
	for i := 0; i < runs; i++ {
		miss()
	}
	runtime.ReadMemStats(&m1)
	if b := (m1.TotalAlloc - m0.TotalAlloc) / runs; allocs > 3 || b > 7500 {
		t.Errorf("a miss takes %.0f allocations and %d bytes, want at most 3 and 7500", allocs, b)
	}
}

// BenchmarkDecodePage measures the CPU side of a miss: validating an 8 KB
// XMark cluster. (The writer of a page version counts its synopsis, so a
// miss counts none.)
func BenchmarkDecodePage(b *testing.B) {
	st := xmarkVolume(b, 8192)
	p := st.DataPage(st.NumDataPages() / 2)
	raw := rawPage(b, st, p)
	b.SetBytes(int64(len(raw)))
	b.ReportAllocs()
	var img pageImage
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := decodePage(&img, p, raw, 8192); err != nil {
			b.Fatal(err)
		}
	}
}

// benchVolume is the document of the benchmark's volumes, XMark factor 1 at
// the given entity scale, shuffled over 8 KB pages.
func benchVolume(t testing.TB, entityScale float64) *Store {
	dict := xmltree.NewDictionary()
	doc := xmark.Generate(dict, xmark.Config{ScaleFactor: 1, Seed: 20050614, EntityScale: entityScale})
	return importDoc(t, doc, dict, 8192, LayoutShuffled)
}

// TestPageDensity guards what the format costs on the benchmark's volumes,
// flat_cold's (entity scale 0.2) and flat_warm's (0.1): no more pages than
// the format before it needed, and at most 23.45 bytes of page per node.
func TestPageDensity(t *testing.T) {
	for _, v := range []struct {
		scale float64
		pages int
	}{{0.2, 1290}, {0.1, 643}} {
		vs := benchVolume(t, v.scale).Stats()
		if perNode := float64(vs.UsedBytes) / float64(vs.CoreNodes); vs.DataPages > v.pages || perNode > 23.45 {
			t.Errorf("entity scale %v: %d pages, %.2f bytes per node; want at most %d and 23.45", v.scale, vs.DataPages, perNode, v.pages)
		}
	}
}

// BenchmarkColdSweep flushes the pool and touches every page of the
// flat_cold volume: what a miss costs end to end in the storage layer —
// the buffer's read and checksum, validation, the swizzle cache and the
// eviction it forces — per page.
func BenchmarkColdSweep(b *testing.B) {
	st := benchVolume(b, 0.2)
	st.SetBufferCapacity(90) // flat_cold's pool
	n := st.NumDataPages()
	var m0, m1 runtime.MemStats
	b.ResetTimer()
	runtime.ReadMemStats(&m0)
	for i := 0; i < b.N; i++ {
		st.ResetForRun()
		for j := 0; j < n; j++ {
			st.LoadCluster(st.DataPage(j))
		}
	}
	runtime.ReadMemStats(&m1)
	pages := float64(b.N * n)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/pages, "ns/page")
	b.ReportMetric(float64(m1.TotalAlloc-m0.TotalAlloc)/pages, "B/page")
	b.ReportMetric(float64(m1.Mallocs-m0.Mallocs)/pages, "allocs/page")
}
