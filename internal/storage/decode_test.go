package storage

import (
	"encoding/binary"
	"errors"
	"fmt"
	"reflect"
	"sort"
	"testing"
	"unsafe"

	"pathdb/internal/ordpath"
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
	dict := xmltree.NewDictionary()
	doc := xmark.Generate(dict, xmark.Config{ScaleFactor: 0.05, Seed: 3})
	return importDoc(t, doc, dict, pageSize, LayoutContiguous)
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

// wideVolume holds more distinct tags than decodePage's direct tag table
// indexes, so its pages exercise the sorted overflow list too.
func wideVolume(t testing.TB) *Store {
	dict := xmltree.NewDictionary()
	b := xmltree.NewBuilder(dict)
	b.Begin("root")
	for i := 0; i < 2*tagTableSize; i++ {
		b.Leaf(fmt.Sprintf("t%d", i%(tagTableSize+100)), "x")
	}
	b.End()
	return importDoc(t, b.Doc(), dict, 8192, LayoutContiguous)
}

// stressMarks counts what the update stress leaves behind in one image:
// tombstoned slots, and child lists whose sibling order is not slot order.
func stressMarks(img *pageImage) (dead, unsorted int) {
	for i := range img.recs {
		kids := img.kids(&img.recs[i])
		if img.recs[i].dead {
			dead++
		} else if !sort.SliceIsSorted(kids, func(a, b int) bool { return kids[a] < kids[b] }) {
			unsorted++
		}
	}
	return dead, unsorted
}

// refRec is one record as the naive reference decode sees it.
type refRec struct {
	kind     RecKind
	parent   int
	tag      xmltree.TagID
	ord      string
	text     string
	attrs    []attrRec
	target   NodeID
	dead     bool
	kids     []uint16
	pre, end int // pre-order position and exclusive subtree end
}

// refDecode is the naive reference for decodePage on well-formed pages: the
// standard library's varints, a string per field, an appended child list
// per record, a library sort, a recursive walk.
func refDecode(raw []byte, pageSize int) (recs []refRec, byPre []uint16) {
	cap := usable(pageSize)
	recs = make([]refRec, binary.LittleEndian.Uint16(raw))
	for i := range recs {
		r := &recs[i]
		off := binary.LittleEndian.Uint16(raw[cap-2*(i+1):])
		if off == deadSlotOff {
			r.dead = true
			continue
		}
		b := raw[off+1:]
		uv := func() uint64 { v, k := binary.Uvarint(b); b = b[k:]; return v }
		str := func() string { n := uv(); s := string(b[:n]); b = b[n:]; return s }
		r.kind, r.parent, r.tag = RecKind(raw[off]), int(uv())-1, xmltree.NoTag
		switch r.kind {
		case RecElem:
			r.tag, r.ord = xmltree.TagID(uv()), str()
			for na := uv(); na > 0; na-- {
				r.attrs = append(r.attrs, attrRec{tag: xmltree.TagID(uv()), val: str()})
			}
		case RecText, RecComment, RecPI:
			r.ord, r.text = str(), str()
		case RecProxyChild:
			r.ord = str()
			fallthrough
		case RecProxyParent:
			r.target = NodeID(binary.LittleEndian.Uint64(b))
		}
	}
	for i := range recs {
		if r := &recs[i]; !r.dead && r.parent != noParent {
			recs[r.parent].kids = append(recs[r.parent].kids, uint16(i))
		}
	}
	var walk func(s uint16)
	walk = func(s uint16) {
		r := &recs[s]
		sort.SliceStable(r.kids, func(a, b int) bool {
			return ordpath.Compare(ordpath.Key(recs[r.kids[a]].ord), ordpath.Key(recs[r.kids[b]].ord)) < 0
		})
		r.pre = len(byPre)
		byPre = append(byPre, s)
		for _, k := range r.kids {
			walk(k)
		}
		r.end = len(byPre)
	}
	for i := range recs {
		if !recs[i].dead && recs[i].parent == noParent {
			walk(uint16(i))
		}
	}
	return recs, byPre
}

// checkAgainstRef compares every field of a decoded image — records, child
// lists, pre-order index, each kind and tag bitset, borders, synopsis —
// with what the reference decode derives from the same bytes.
func checkAgainstRef(t *testing.T, img *pageImage, raw []byte, pageSize int) {
	t.Helper()
	ref, byPre := refDecode(raw, pageSize)
	nav := &img.nav
	if len(img.recs) != len(ref) || !reflect.DeepEqual(append([]uint16{}, nav.byPre...), append([]uint16{}, byPre...)) {
		t.Fatalf("page %d: %d records, pre-order %v; reference %d, %v", img.page, len(img.recs), nav.byPre, len(ref), byPre)
	}
	words := (len(byPre) + 63) / 64
	kindBits := map[string][]uint64{}
	for _, name := range []string{"core", "proxy", "elem", "text", "comment", "pi"} {
		kindBits[name] = make([]uint64, words)
	}
	tagBits := map[xmltree.TagID][]uint64{}
	tagCnt := map[xmltree.TagID]int32{}
	var borders []uint16
	var borderIDs []NodeID
	for i := range ref {
		w, r := &ref[i], &img.recs[i]
		if w.dead {
			if !r.dead || nav.pre[i] != preNone {
				t.Fatalf("slot %d: dead in the reference only", i)
			}
			continue
		}
		var attrs []attrRec
		for _, a := range img.attrsOf(r) {
			attrs = append(attrs, attrRec{tag: a.tag, val: img.val(a)})
		}
		got := refRec{kind: r.kind, parent: int(r.parent), tag: r.tag, ord: string(img.ord(r)), text: img.text(r),
			attrs: attrs, target: r.target, dead: r.dead, kids: append([]uint16(nil), img.kids(r)...),
			pre: int(nav.pre[i]), end: int(nav.subEnd[i])}
		if !reflect.DeepEqual(got, *w) {
			t.Fatalf("page %d slot %d:\n got %+v\nwant %+v", img.page, i, got, *w)
		}
		if w.kind.IsProxy() {
			setBit(kindBits["proxy"], uint16(w.pre))
			borders = append(borders, uint16(i))
			borderIDs = append(borderIDs, MakeNodeID(img.page, uint16(i)))
			continue
		}
		setBit(kindBits["core"], uint16(w.pre))
		if w.kind != RecDoc {
			setBit(kindBits[w.kind.String()], uint16(w.pre))
		}
		if tagBits[w.tag] == nil {
			tagBits[w.tag] = make([]uint64, words)
		}
		setBit(tagBits[w.tag], uint16(w.pre))
		tagCnt[w.tag]++
	}
	for name, got := range map[string][]uint64{"core": nav.core, "proxy": nav.proxy, "elem": nav.elem,
		"text": nav.text, "comment": nav.comment, "pi": nav.pi} {
		if !reflect.DeepEqual(got, kindBits[name]) {
			t.Fatalf("page %d: %s bitset %x, want %x", img.page, name, got, kindBits[name])
		}
	}
	if len(nav.tags) != len(tagCnt) || !sort.SliceIsSorted(nav.tags, func(a, b int) bool { return nav.tags[a] < nav.tags[b] }) {
		t.Fatalf("page %d: tags %v, want the sorted keys of %v", img.page, nav.tags, tagCnt)
	}
	for i, tag := range nav.tags {
		if nav.tagCnt[i] != tagCnt[tag] || !reflect.DeepEqual(nav.tagMask(i), tagBits[tag]) {
			t.Fatalf("page %d tag %d: count %d mask %x, want %d %x", img.page, tag, nav.tagCnt[i], nav.tagMask(i), tagCnt[tag], tagBits[tag])
		}
	}
	if !reflect.DeepEqual(append([]uint16(nil), img.borders...), borders) || !reflect.DeepEqual(img.borderIDs, borderIDs) {
		t.Fatalf("page %d: borders %v %v, want %v %v", img.page, img.borders, img.borderIDs, borders, borderIDs)
	}
	sy := synopsisOf(img, 5)
	if sy.Epoch != 5 || int(sy.Live) != len(byPre) || int(sy.Borders) != len(borders) ||
		int(sy.Elems) != nav.elemCount || int(sy.Texts) != nav.textCount {
		t.Fatalf("page %d: synopsis %+v", img.page, sy)
	}
}

// sameImage reports whether b decodes the same page as a, up to the
// trailing dead slots an encode truncates.
func sameImage(a, b *pageImage) bool {
	n := len(a.recs)
	for n > 0 && a.recs[n-1].dead {
		n--
	}
	ea, eb := a.expand().recs[:n], b.expand().recs
	an, bn := &a.nav, &b.nav
	return reflect.DeepEqual(ea, eb) &&
		reflect.DeepEqual(append([]uint16{}, an.pre[:n]...), append([]uint16{}, bn.pre...)) &&
		reflect.DeepEqual(append([]uint16{}, an.subEnd[:n]...), append([]uint16{}, bn.subEnd...)) &&
		reflect.DeepEqual(append([]uint16{}, an.byPre...), append([]uint16{}, bn.byPre...)) &&
		reflect.DeepEqual(an.tags, bn.tags) && reflect.DeepEqual(an.tagCnt, bn.tagCnt) &&
		reflect.DeepEqual(an.tagBits, bn.tagBits) && reflect.DeepEqual(an.core, bn.core) &&
		reflect.DeepEqual(an.proxy, bn.proxy) && reflect.DeepEqual(a.borderIDs, b.borderIDs)
}

// reencoded runs img through the write path's form and back.
func reencoded(img *pageImage, pageSize int) (*pageImage, error) {
	payload, err := encodePageImage(img.expand(), pageSize)
	if err != nil {
		return nil, err
	}
	return decodePage(img.page, finalizePage(payload, pageSize), pageSize)
}

// TestDecodeAgreesWithReference is the property the compact image rests on:
// on every page of an XMark volume, of the update stress — siblings out of
// slot order, tombstones, reused slots, proxy chains — and of a volume with
// more tags than the direct table holds, decodePage agrees field for field
// with the naive reference, and the image survives the round trip through
// the write path's records.
func TestDecodeAgreesWithReference(t *testing.T) {
	for name, st := range map[string]*Store{"xmark": xmarkVolume(t, 8192), "stress": stressedVolume(t), "wide": wideVolume(t)} {
		ps := st.disk.PageSize()
		dead, unsorted := 0, 0
		for i := 0; i < st.NumDataPages(); i++ {
			p := st.DataPage(i)
			raw := rawPage(t, st, p)
			img, err := decodePage(p, raw, ps)
			if err != nil {
				t.Fatalf("%s page %d: %v", name, p, err)
			}
			checkAgainstRef(t, img, raw, ps)
			if back, err := reencoded(img, ps); err != nil || !sameImage(img, back) {
				t.Fatalf("%s page %d: image changed across encode/decode (%v)", name, p, err)
			}
			d, u := stressMarks(img)
			dead, unsorted = dead+d, unsorted+u
		}
		if name == "stress" && (dead == 0 || unsorted == 0) {
			t.Fatalf("stress volume has %d tombstones and %d out-of-slot-order child lists; it exercises neither", dead, unsorted)
		}
	}
}

// overflowLengthPage is a 64-byte page whose one record, a text node, gives
// its ord key a length of 2⁶³: as an int that is negative, which slipped
// past the bounds check and panicked in the slice expression.
func overflowLengthPage() []byte {
	raw := make([]byte, 64)
	rec := []byte{byte(RecText), 0, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01}
	copy(raw[pageHeaderSize:], rec)
	raw[0], raw[2] = 1, byte(pageHeaderSize+len(rec))
	raw[usable(64)-2] = pageHeaderSize
	return raw
}

func TestDecodeCorruptLengths(t *testing.T) {
	valid := []byte{byte(RecElem), 0, 5, 1, 2, 0} // element, no parent, tag 5, ord [2], no attributes
	page := func(rec []byte, free int) []byte {
		raw := make([]byte, 64)
		copy(raw[pageHeaderSize:], rec)
		raw[0], raw[2] = 1, byte(free)
		raw[usable(64)-2] = pageHeaderSize
		return raw
	}
	if _, err := decodePage(1, page(valid, pageHeaderSize+len(valid)), 64); err != nil {
		t.Fatalf("well-formed page refused: %v", err)
	}
	for name, raw := range map[string][]byte{
		"ord length 2^63":             overflowLengthPage(),
		"attribute count 2^63":        page([]byte{byte(RecElem), 0, 5, 1, 2, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01}, 19),
		"field past free space":       page(valid, pageHeaderSize+len(valid)-1),
		"free space in slot table":    page(valid, usable(64)-1),
		"ord key ends mid-component":  page([]byte{byte(RecElem), 0, 5, 1, 0x82, 0}, 10),
		"parent beyond the slots":     page([]byte{byte(RecElem), 3, 5, 1, 2, 0}, 10),
		"record is its own ancestor":  page([]byte{byte(RecElem), 1, 5, 1, 2, 0}, 10),
		"tag beyond the dictionary's": page([]byte{byte(RecElem), 0, 0xFF, 0xFF, 0xFF, 0xFF, 0x0F, 1, 2, 0}, 14),
	} {
		_, err := decodePage(1, raw, 64)
		var ce *corruptError
		if !errors.As(err, &ce) {
			t.Errorf("%s: got %v, want a *corruptError", name, err)
		}
	}
}

// FuzzDecodePage: whatever the bytes, decodePage returns an image or a
// *corruptError and never panics; an accepted page survives the round trip
// through the write path's records unchanged. The page size is the input's
// length, so seeds of different sizes coexist.
func FuzzDecodePage(f *testing.F) {
	xm := xmarkVolume(f, 1024) // small pages: the fuzzer minimizes what it keeps
	f.Add(rawPage(f, xm, xm.DataPage(xm.NumDataPages()/2)))
	// One page of the update stress with both of its marks.
	stress := stressedVolume(f)
	for i := 0; i < stress.NumDataPages(); i++ {
		p := stress.DataPage(i)
		if dead, unsorted := stressMarks(stress.image(p)); dead > 0 && unsorted > 0 {
			f.Add(rawPage(f, stress, p))
			break
		}
	}
	f.Add(overflowLengthPage())
	f.Fuzz(func(t *testing.T, raw []byte) {
		ps := len(raw)
		if ps < 16 || ps > MaxPageSize {
			return
		}
		img, err := decodePage(1, raw, ps)
		if err != nil {
			var ce *corruptError
			if !errors.As(err, &ce) {
				t.Fatalf("error %v is not a *corruptError", err)
			}
			return
		}
		back, err := reencoded(img, ps)
		if errors.As(err, new(*corruptError)) {
			return // slots sharing record bytes decode, but do not fit once written apart
		}
		if err != nil || !sameImage(img, back) {
			t.Fatalf("image changed across encode/decode (%v)", err)
		}
	})
}

// TestDecodeFootprint locks the gain where it is made: a compact record
// and a handful of allocations per buffer miss.
func TestDecodeFootprint(t *testing.T) {
	if sz := unsafe.Sizeof(imgRec{}); sz > 32 {
		t.Errorf("imgRec is %d bytes, want at most 32", sz)
	}
	st := xmarkVolume(t, 8192)
	p := st.DataPage(st.NumDataPages() / 2)
	raw := rawPage(t, st, p)
	allocs := testing.AllocsPerRun(100, func() {
		img, err := decodePage(p, raw, 8192)
		if err != nil {
			t.Fatal(err)
		}
		decodeSink = synopsisOf(img, 0)
	})
	if allocs > 12 {
		t.Errorf("decodePage + synopsisOf: %.0f allocations per page, want at most 12", allocs)
	}
}

var decodeSink *PageSynopsis

// BenchmarkDecodePage measures the CPU side of one buffer miss: decoding an
// 8 KB XMark cluster into its navigable image and synopsis.
func BenchmarkDecodePage(b *testing.B) {
	st := xmarkVolume(b, 8192)
	p := st.DataPage(st.NumDataPages() / 2)
	raw := rawPage(b, st, p)
	b.SetBytes(int64(len(raw)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		img, err := decodePage(p, raw, 8192)
		if err != nil {
			b.Fatal(err)
		}
		decodeSink = synopsisOf(img, 0)
	}
}
