package storage

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"sync/atomic"
	"unsafe"

	"pathdb/internal/ordpath"
	"pathdb/internal/vdisk"
	"pathdb/internal/xmltree"
	"pathdb/internal/xpath"
)

// RecKind classifies physical records. Core kinds mirror logical node
// kinds; the two proxy kinds are the paper's border nodes (Sec. 3.4): a
// ProxyChild sits where an edge leaves its cluster downward, a ProxyParent
// anchors a cluster's fragment and points back up. Each stores the NodeID
// of its companion, realising the target() operation.
type RecKind uint8

// Record kinds.
const (
	RecDoc RecKind = iota
	RecElem
	RecText
	RecComment
	RecPI
	RecProxyChild
	RecProxyParent
)

// String returns a readable kind name.
func (k RecKind) String() string {
	switch k {
	case RecDoc:
		return "doc"
	case RecElem:
		return "elem"
	case RecText:
		return "text"
	case RecComment:
		return "comment"
	case RecPI:
		return "pi"
	case RecProxyChild:
		return "proxy-child"
	case RecProxyParent:
		return "proxy-parent"
	default:
		return fmt.Sprintf("rec(%d)", uint8(k))
	}
}

// IsProxy reports whether the kind is a border node kind.
func (k RecKind) IsProxy() bool { return k == RecProxyChild || k == RecProxyParent }

// LogicalKind maps a core record kind to the logical node kind.
func (k RecKind) LogicalKind() xmltree.Kind {
	switch k {
	case RecDoc:
		return xmltree.Document
	case RecElem:
		return xmltree.Element
	case RecText:
		return xmltree.Text
	case RecComment:
		return xmltree.Comment
	case RecPI:
		return xmltree.ProcInst
	default:
		panic("storage: LogicalKind of proxy record")
	}
}

const noParent = -1

// attrRec is an attribute stored inline in its element's record.
type attrRec struct {
	tag xmltree.TagID
	val string
}

// rec is the write path's form of one record: fat, independently owned
// fields that the importer and the updater build, edit and encode. The read
// path never sees it — it navigates pageImages over the page bytes.
type rec struct {
	kind   RecKind
	parent int // slot of physical parent, noParent for fragment roots
	tag    xmltree.TagID
	text   string
	ord    ordpath.Key
	target NodeID // proxies: companion border node
	attrs  []attrRec

	dead     bool     // tombstoned slot (deleted record)
	children []uint16 // live slots with parent == this slot, sibling-ordered
}

// recPage is the editing and encoding form of one page: its records by
// slot, private to one updater.
type recPage struct {
	page vdisk.PageID
	recs []rec
}

// MaxPageSize bounds page sizes: positions, subtree ends, heap offsets and
// slot-table values are uint16, with 0xFFFF reserved.
const MaxPageSize = 32768

// --- page layout -----------------------------------------------------------
//
// A page holds its live records in document pre-order, so a subtree is a
// range of positions and a loaded frame is the navigable image:
//
//	[0:2)   n        live records, positions 0 … n-1
//	[2:4)   nslots   slot-table entries
//	[4:6)   heapEnd  end of the heap, the payload length
//	[6 : 6+8n)       one entry per position
//	[… : +2·nslots)  slot table: NodeID slot → position, noPos for a dead slot
//	[… : heapEnd)    heap: each record's variable part, in position order
//
// The entry of position p is four little-endian uint16:
//
//	word 0  kind (bits 0-2) | keyRel (bit 3) | tag (bits 4-15, elements only;
//	        tagEscape moves it to the heap)
//	word 1  parent position, noPos for a fragment root
//	word 2  subtree end: the descendants are the positions [p+1, end)
//	word 3  heap offset; the record's heap runs to the next record's offset
//	        (heapEnd for the last one)
//
// A record's heap is [escaped tag uvarint][key][body]. The key is the one
// ordpath level it adds to its parent's key (ordpath.LevelLen) when keyRel
// is set, otherwise a uvarint length and the whole key. The body is the
// element's attributes (tag uvarint, value length uvarint, value) to the
// end, the text, comment or PI content to the end, a proxy's 8-byte
// companion NodeID, or nothing for the document record.
const (
	pageHeaderSize = 6
	entrySize      = 8
	noPos          = 0xFFFF
	keyRel         = 1 << 3
	tagShift       = 4
	tagEscape      = 0xFFF
)

// relKey reports whether r's key is stored as one level below its parent's:
// the parent has a key (it is no proxy anchor) and r's key extends it by
// exactly one level.
func relKey(r, parent *rec) bool {
	if parent == nil || parent.kind == RecProxyParent || !parent.ord.IsAncestorOf(r.ord) {
		return false
	}
	rel := r.ord[len(parent.ord):]
	return ordpath.LevelLen(rel) == len(rel)
}

// encodedSize returns the bytes r takes on a page below parent (nil for a
// fragment root): its entry and its heap, not its slot-table entry.
func encodedSize(r, parent *rec) int {
	n := entrySize
	if r.kind == RecElem && r.tag >= tagEscape {
		n += uvarintLen(uint64(r.tag))
	}
	if relKey(r, parent) {
		n += len(r.ord) - len(parent.ord)
	} else {
		n += uvarintLen(uint64(len(r.ord))) + len(r.ord)
	}
	switch r.kind {
	case RecElem:
		for _, a := range r.attrs {
			n += uvarintLen(uint64(a.tag)) + uvarintLen(uint64(len(a.val))) + len(a.val)
		}
	case RecText, RecComment, RecPI:
		n += len(r.text)
	case RecProxyChild, RecProxyParent:
		n += 8
	}
	return n
}

// appendHeap appends r's heap bytes below parent; encodedSize counts them.
func appendHeap(out []byte, r, parent *rec) []byte {
	if r.kind == RecElem && r.tag >= tagEscape {
		out = appendUvarint(out, uint64(r.tag))
	}
	if relKey(r, parent) {
		out = append(out, r.ord[len(parent.ord):]...)
	} else {
		out = appendUvarint(out, uint64(len(r.ord)))
		out = append(out, r.ord...)
	}
	switch r.kind {
	case RecElem:
		for _, a := range r.attrs {
			out = appendUvarint(out, uint64(a.tag))
			out = appendString(out, a.val)
		}
	case RecText, RecComment, RecPI:
		out = append(out, r.text...)
	case RecProxyChild, RecProxyParent:
		out = binary.LittleEndian.AppendUint64(out, uint64(r.target))
	}
	return out
}

// preorder numbers a page's live records in document pre-order: fragment
// roots in slot order, each followed by its subtree, siblings by key (stably,
// so equal keys keep slot order). It returns the slot at every position, each
// position's parent position (noPos for a root) and subtree end, and false if
// some live record is unreachable from a root.
func preorder(recs []rec) (order, parent, end []uint16, ok bool) {
	live := 0
	for i := range recs {
		if !recs[i].dead {
			live++
		}
	}
	// One slab: child lists by parent slot (start, fill, kids), the slot →
	// position map, the three results and the DFS stack.
	slab := make([]uint16, 3*len(recs)+2+5*live)
	cut := func(k int) []uint16 { c := slab[:k:k]; slab = slab[k:]; return c }
	start, fill, pos := cut(len(recs)+1), cut(len(recs)+1), cut(len(recs))
	for i := range recs {
		if r := &recs[i]; !r.dead && r.parent != noParent {
			start[r.parent+1]++
		}
	}
	for i := 1; i < len(start); i++ {
		start[i] += start[i-1]
	}
	kids := cut(int(start[len(recs)]))
	copy(fill, start)
	for i := range recs {
		if r := &recs[i]; !r.dead && r.parent != noParent {
			kids[fill[r.parent]] = uint16(i)
			fill[r.parent]++
		}
	}
	for s := range recs {
		list := kids[start[s]:start[s+1]]
		for i := 1; i < len(list); i++ { // insertion sort: lists are almost always in order
			for j := i; j > 0 && ordpath.Compare(recs[list[j-1]].ord, recs[list[j]].ord) > 0; j-- {
				list[j-1], list[j] = list[j], list[j-1]
			}
		}
	}

	order, parent, end = cut(live)[:0], cut(live)[:0], cut(live)[:0]
	stack := cut(live)[:0]
	for root := range recs {
		if recs[root].dead || recs[root].parent != noParent {
			continue
		}
		stack = append(stack, uint16(root))
		for len(stack) > 0 {
			s := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			pos[s] = uint16(len(order))
			par := uint16(noPos)
			if p := recs[s].parent; p != noParent {
				par = pos[p]
			}
			order, parent, end = append(order, s), append(parent, par), append(end, uint16(len(order)+1))
			list := kids[start[s]:start[s+1]]
			for k := len(list) - 1; k >= 0; k-- {
				stack = append(stack, list[k])
			}
		}
	}
	for p := len(order) - 1; p >= 0; p-- {
		if q := parent[p]; q != noPos && end[q] < end[p] {
			end[q] = end[p]
		}
	}
	return order, parent, end, len(order) == live
}

// encodePage serializes a page's records into its payload (writePage adds
// the checksum trailer). Live records go in pre-order; slot numbers, which
// NodeIDs embed, are kept in the slot table and dead ones tombstoned.
// Trailing dead slots are dropped so their numbers become reusable.
func encodePage(pg *recPage, pageSize int) ([]byte, error) {
	recs := pg.recs
	for len(recs) > 0 && recs[len(recs)-1].dead {
		recs = recs[:len(recs)-1]
	}
	order, parent, end, ok := preorder(recs)
	if !ok {
		return nil, &corruptError{pg.page, "parent pointers form a cycle"}
	}
	n, limit := len(order), usable(pageSize)
	slots := pageHeaderSize + entrySize*n
	heapStart := slots + 2*len(recs)
	if heapStart > limit {
		return nil, &corruptError{pg.page, "page overflow during rewrite"}
	}
	out := make([]byte, heapStart, limit)
	put16 := func(off, v int) { binary.LittleEndian.PutUint16(out[off:], uint16(v)) }
	put16(0, n)
	put16(2, len(recs))
	for s := range recs {
		put16(slots+2*s, noPos)
	}
	for p, s := range order {
		put16(slots+2*int(s), p)
		r := &recs[s]
		var pr *rec
		if r.parent != noParent {
			pr = &recs[r.parent]
		}
		w0 := int(r.kind)
		if relKey(r, pr) {
			w0 |= keyRel
		}
		if r.kind == RecElem {
			w0 |= min(int(r.tag), tagEscape) << tagShift
		}
		e := pageHeaderSize + entrySize*p
		put16(e, w0)
		put16(e+2, int(parent[p]))
		put16(e+4, int(end[p]))
		put16(e+6, len(out))
		if out = appendHeap(out, r, pr); len(out) > limit {
			return nil, &corruptError{pg.page, "page overflow during rewrite"}
		}
	}
	put16(4, len(out))
	return out, nil
}

// pageUsage returns the bytes the page's encoding takes, the fit check for
// in-page inserts.
func pageUsage(pg *recPage) int {
	n := len(pg.recs)
	for n > 0 && pg.recs[n-1].dead {
		n--
	}
	used := pageHeaderSize + 2*n
	for i := 0; i < n; i++ {
		if r := &pg.recs[i]; !r.dead {
			used += encodedSize(r, pg.parentOf(r))
		}
	}
	return used
}

// parentOf returns r's physical parent record, nil for a fragment root.
func (pg *recPage) parentOf(r *rec) *rec {
	if r.parent == noParent {
		return nil
	}
	return &pg.recs[r.parent]
}

// appendUvarint appends v in LEB128.
func appendUvarint(dst []byte, v uint64) []byte {
	for v >= 0x80 {
		dst = append(dst, byte(v)|0x80)
		v >>= 7
	}
	return append(dst, byte(v))
}

func uvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

func appendString(dst []byte, s string) []byte {
	dst = appendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// --- the image -------------------------------------------------------------

// pageImage is a loaded page, navigated in place — the object-buffer side of
// the dual-buffer scheme of Sec. 3.6 without the copy. Entries, slot table
// and heap are the bytes decodePage checked: a buffer frame, which the pool
// never writes after its load and never reuses, so an image may alias it
// past the frame's eviction (cursors keep it reachable), or a page staging
// encoded. Only what the bytes cannot answer in O(1) is materialized, once
// per load, in one pointer-free arena: each position's full key and NodeID
// slot. Images are immutable once published — a name-test mask is added
// atomically and never changed — so concurrent readers share them.
type pageImage struct {
	page    vdisk.PageID
	b       []byte // the payload; heap offsets index it
	n       int    // live records
	nslots  int
	slots   int // offset of the slot table in b
	heapEnd int

	// arena holds per position the end of its key in arena (uint32) and its
	// slot plus one (uint16), side by side so a result's reads share a
	// cache line; then the keys in pre-order.
	arena     []byte
	borderIDs []NodeID // proxy records in slot order, for BordersOf

	// first is the image's first name-test mask, held in the image so a
	// page one test scans (most cold ones) allocates no mask; firstState
	// publishes it (0 free, 1 being built, 2 ready). Later masks are listed.
	first      testMask
	firstState atomic.Uint32
	masks      atomic.Pointer[testMask]
}

func (img *pageImage) word(p, i int) int {
	return int(binary.LittleEndian.Uint16(img.b[pageHeaderSize+entrySize*p+2*i:]))
}

func (img *pageImage) kind(p int) RecKind { return RecKind(img.b[pageHeaderSize+entrySize*p] & 7) }

// cursor returns the cursor on position p (attr as in Cursor).
func (img *pageImage) cursor(st *Store, p, attr int) Cursor {
	return Cursor{st: st, img: img, page: img.page, pos: uint16(p), kind: img.kind(p), attr: attr}
}

// parent returns p's physical parent position, noParent for a fragment root.
func (img *pageImage) parent(p int) int {
	if q := img.word(p, 1); q != noPos {
		return q
	}
	return noParent
}

// end returns the end of p's subtree: its descendants are [p+1, end).
func (img *pageImage) end(p int) int { return img.word(p, 2) }

func (img *pageImage) heap(p int) []byte {
	hi := img.heapEnd
	if p+1 < img.n {
		hi = img.word(p+1, 3)
	}
	return img.b[img.word(p, 3):hi:hi]
}

// key returns p's document-order key (nil for records without one).
// Read-only: it aliases the arena.
func (img *pageImage) key(p int) ordpath.Key {
	lo := 6 * img.n
	if p > 0 {
		lo = int(binary.LittleEndian.Uint32(img.arena[6*p-6:]))
	}
	hi := int(binary.LittleEndian.Uint32(img.arena[6*p:]))
	if lo == hi {
		return nil
	}
	return ordpath.Key(img.arena[lo:hi:hi])
}

// slotOf returns the NodeID slot of position p.
func (img *pageImage) slotOf(p int) uint16 {
	return binary.LittleEndian.Uint16(img.arena[6*p+4:]) - 1
}

// posOf returns the position of a NodeID slot, false for a dead or
// out-of-range one.
func (img *pageImage) posOf(slot uint16) (int, bool) {
	if int(slot) >= img.nslots {
		return 0, false
	}
	p := int(binary.LittleEndian.Uint16(img.b[img.slots+2*int(slot):]))
	return p, p != noPos
}

// tag returns an element's tag, NoTag for the other kinds.
func (img *pageImage) tag(p int) xmltree.TagID {
	if img.kind(p) != RecElem {
		return xmltree.NoTag
	}
	if t := img.word(p, 0) >> tagShift; t != tagEscape {
		return xmltree.TagID(t)
	}
	t, _ := binary.Uvarint(img.heap(p))
	return xmltree.TagID(t)
}

// body returns p's heap past its tag and key: attributes, content or target.
func (img *pageImage) body(p int) []byte {
	h, w0 := img.heap(p), img.word(p, 0)
	if w0>>tagShift == tagEscape {
		_, k := binary.Uvarint(h)
		h = h[k:]
	}
	if w0&keyRel != 0 {
		return h[ordpath.LevelLen(h):]
	}
	l, k := binary.Uvarint(h)
	return h[k+int(l):]
}

// text returns p's text, comment or PI content.
func (img *pageImage) text(p int) string { return str(img.body(p)) }

// target returns a proxy's companion.
func (img *pageImage) target(p int) NodeID {
	return NodeID(binary.LittleEndian.Uint64(img.body(p)))
}

// attr returns the i-th attribute of the element at p.
func (img *pageImage) attr(p, i int) (xmltree.TagID, string) {
	b := img.body(p)
	for ; i > 0; i-- {
		_, _, b = nextAttr(b)
	}
	t, v, _ := nextAttr(b)
	return t, v
}

// nextAttr splits the first attribute off an element body.
func nextAttr(b []byte) (xmltree.TagID, string, []byte) {
	t, k := binary.Uvarint(b)
	b = b[k:]
	l, k := binary.Uvarint(b)
	b = b[k:]
	return xmltree.TagID(t), str(b[:l]), b[l:]
}

// str returns b as a string without copying it — the one use of unsafe in
// the package. Sound because the bytes are an image's, which nobody writes
// once decodePage has accepted them (see pageImage), so they are as
// immutable as a string's; the string keeps the page reachable, exactly like
// a substring of a page-sized string.
func str(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	return unsafe.String(&b[0], len(b))
}

// expand copies the image into the write path's fat records, by slot. Keys
// and strings alias the immutable image; attribute and child lists are fresh
// (each carved with exact capacity from one slab, so an insert that grows
// one reallocates just that list).
func (img *pageImage) expand() *recPage {
	out := &recPage{page: img.page, recs: make([]rec, img.nslots)}
	for s := range out.recs {
		out.recs[s].dead = true
	}
	nattrs := 0
	for p := 0; p < img.n; p++ {
		if img.kind(p) == RecElem {
			for b := img.body(p); len(b) > 0; nattrs++ {
				_, _, b = nextAttr(b)
			}
		}
	}
	kids, attrs := make([]uint16, img.n), make([]attrRec, nattrs)
	for p := 0; p < img.n; p++ {
		w := &out.recs[img.slotOf(p)]
		*w = rec{kind: img.kind(p), parent: noParent, tag: img.tag(p), ord: img.key(p)}
		if q := img.parent(p); q != noParent {
			w.parent = int(img.slotOf(q))
		}
		switch w.kind {
		case RecElem:
			k := 0
			for b := img.body(p); len(b) > 0; k++ {
				attrs[k].tag, attrs[k].val, b = nextAttr(b)
			}
			if k > 0 {
				w.attrs, attrs = attrs[:k:k], attrs[k:]
			}
		case RecText, RecComment, RecPI:
			w.text = img.text(p)
		case RecProxyChild, RecProxyParent:
			w.target = img.target(p)
		}
		k := 0
		for c, e := p+1, img.end(p); c < e; c = img.end(c) {
			kids[k] = img.slotOf(c)
			k++
		}
		if k > 0 {
			w.children, kids = kids[:k:k], kids[k:]
		}
	}
	return out
}

// testMask is one node test's matches on a page, together with every
// border, as a bitset over positions: what a descendant range scan reads.
// A mask is built the first time a test asks for it and published
// atomically; it never changes afterwards. The bits of a page of up to 512
// records live in the mask itself.
type testMask struct {
	next   *testMask
	test   xpath.NodeTest
	bits   []uint64
	depth  int
	inline [8]uint64
}

// maxMasks bounds the masks one image keeps; a test asked beyond it gets a
// mask built for the one scan.
const maxMasks = 32

// mask returns the positions of the records matching test and of the
// borders.
func (img *pageImage) mask(test xpath.NodeTest) []uint64 {
	if img.firstState.Load() == 2 && img.first.is(test) {
		return img.first.bits
	}
	head := img.masks.Load()
	for m := head; m != nil; m = m.next {
		if m.is(test) {
			return m.bits
		}
	}
	if img.firstState.CompareAndSwap(0, 1) {
		img.first.fill(img, test)
		img.firstState.Store(2)
		return img.first.bits
	}
	m := &testMask{next: head}
	m.fill(img, test)
	if head != nil {
		m.depth = head.depth + 1
	}
	if m.depth < maxMasks {
		// A lost race leaves this mask unpublished; the next scan builds it.
		img.masks.CompareAndSwap(head, m)
	}
	return m.bits
}

func (m *testMask) is(test xpath.NodeTest) bool {
	return m.test.Kind == test.Kind && m.test.AnyName == test.AnyName && slices.Equal(m.test.Tags, test.Tags)
}

// fill builds m as test's mask over img.
func (m *testMask) fill(img *pageImage, test xpath.NodeTest) {
	m.test = test
	if words := (img.n + 63) / 64; words <= len(m.inline) {
		m.bits = m.inline[:words]
	} else {
		m.bits = make([]uint64, words)
	}
	et := compileTest(test)
	for p := 0; p < img.n; p++ {
		if w0 := img.word(p, 0); RecKind(w0&7).IsProxy() || et.matches(&test, img, p, w0) {
			m.bits[p>>6] |= 1 << (p & 63)
		}
	}
}

// --- validation --------------------------------------------------------------

// corruptError describes a malformed page.
type corruptError struct {
	page vdisk.PageID
	msg  string
}

func (e *corruptError) Error() string {
	return fmt.Sprintf("storage: page %d corrupt: %s", e.page, e.msg)
}

// openRec is a record whose subtree the validating pass is inside, and
// where its key went in the arena.
type openRec struct {
	pos, end         uint16
	kind             RecKind
	keyStart, keyEnd uint32
}

// keyRoom is the arena room decodePage sets aside per record for keys: XMark
// keys average 7 bytes, and a page with longer ones grows the arena once.
const keyRoom = 8

// decodePage checks raw page bytes — a buffer frame's, or a page staging has
// just encoded — and makes img the navigable image over them. The trailing
// checksum (verified by the buffer pool before raw reaches us) is not part of
// the layout. Anything past the checksum is still untrusted, so one pass over
// the entries bounds every position, subtree end and heap span, checks that
// they describe a pre-order forest (each record's parent is the nearest
// record still open, the roots are the document and the proxy anchors, and
// text, comment, PI and proxy-child records have no children), parses every
// heap with the readers the accessors use and checks every stored key and
// key level, copying the full keys into the arena as it goes. A pass over the
// slot table then checks that it names every position exactly once. Any byte
// sequence yields an image or a *corruptError, and an accepted image
// navigates without a panic.
func decodePage(img *pageImage, page vdisk.PageID, raw []byte, pageSize int) error {
	limit := usable(pageSize)
	if pageSize > MaxPageSize || limit < pageHeaderSize || len(raw) < limit {
		return &corruptError{page, "short page"}
	}
	n := int(binary.LittleEndian.Uint16(raw))
	nslots := int(binary.LittleEndian.Uint16(raw[2:]))
	heapEnd := int(binary.LittleEndian.Uint16(raw[4:]))
	slots := pageHeaderSize + entrySize*n
	heapStart := slots + 2*nslots
	if heapStart > heapEnd || heapEnd > limit {
		return &corruptError{page, fmt.Sprintf("%d records and %d slots overrun a heap ending at %d", n, nslots, heapEnd)}
	}
	b := raw[:heapEnd:heapEnd]
	*img = pageImage{page: page, b: b, n: n, nslots: nslots, slots: slots, heapEnd: heapEnd}
	ents := b[pageHeaderSize:slots]
	bad := func(p int, format string, args ...any) error {
		return &corruptError{page, fmt.Sprintf("record %d: ", p) + fmt.Sprintf(format, args...)}
	}

	// The arena: key end and slot + 1 (zero: none yet) by position, then the
	// keys, each its parent's key and a component, or stored whole.
	base := 6 * n
	arena := make([]byte, base, base+keyRoom*n)
	// The innermost record still open is top — at first a sentinel that
	// never closes — and the ones around it are stacked.
	top := openRec{pos: noPos, end: uint16(n), kind: RecProxyParent}
	var openBuf [32]openRec // documents deeper than this grow it on the heap
	open := openBuf[:0]
	proxies, off := 0, heapStart
	for p := 0; p < n; p++ {
		e := binary.LittleEndian.Uint64(ents[entrySize*p:])
		kind, par, end := RecKind(e&7), int(uint16(e>>16)), int(uint16(e>>32))
		tagged, hi := int(uint16(e)>>tagShift), heapEnd
		if p+1 < n {
			hi = int(binary.LittleEndian.Uint16(ents[entrySize*p+entrySize+6:]))
		}
		// The parent must be the nearest record still open.
		for int(top.end) == p {
			top, open = open[len(open)-1], open[:len(open)-1]
		}
		switch {
		case kind > RecProxyParent:
			return bad(p, "unknown record kind %d", kind)
		case par != int(top.pos):
			return bad(p, "parent %d, want %d", par, top.pos)
		case end <= p || end > int(top.end):
			return bad(p, "subtree end %d out of range", end)
		case (kind == RecDoc || kind == RecProxyParent) != (par == noPos):
			return bad(p, "%v record with parent %d", kind, par)
		case (kind == RecText || kind == RecComment || kind == RecPI || kind == RecProxyChild) && end != p+1:
			return bad(p, "%v record with children", kind)
		case kind != RecElem && tagged != 0:
			return bad(p, "tag on a %v record", kind)
		case int(uint16(e>>48)) != off || hi < off || hi > heapEnd:
			return bad(p, "heap span [%d, %d) out of range", int(uint16(e>>48)), hi)
		}

		h := b[off:hi]
		off = hi
		if tagged == tagEscape {
			t, k := binary.Uvarint(h)
			if k <= 0 || t < tagEscape || t > math.MaxInt32 {
				return bad(p, "escaped tag")
			}
			h = h[k:]
		}
		keyStart := uint32(len(arena))
		if e&keyRel != 0 {
			if top.kind == RecProxyParent { // no parent, or one without a key
				return bad(p, "relative key without a keyed parent")
			}
			k := ordpath.LevelLen(h)
			if k == 0 {
				return bad(p, "malformed key level")
			}
			arena = append(arena, arena[top.keyStart:top.keyEnd]...)
			if k == 1 {
				arena = append(arena, h[0])
			} else {
				arena = append(arena, h[:k]...)
			}
			h = h[k:]
		} else {
			l, k := binary.Uvarint(h)
			if k <= 0 || l > uint64(len(h)-k) || !ordpath.Key(h[k:k+int(l)]).Valid() || kind == RecProxyParent && l > 0 {
				return bad(p, "malformed key")
			}
			arena, h = append(arena, h[k:k+int(l)]...), h[k+int(l):]
		}
		binary.LittleEndian.PutUint32(arena[6*p:], uint32(len(arena)))
		if end > p+1 {
			open = append(open, top)
			top = openRec{pos: uint16(p), end: uint16(end), kind: kind, keyStart: keyStart, keyEnd: uint32(len(arena))}
		}
		switch kind {
		case RecElem:
			for len(h) > 0 {
				t, k := binary.Uvarint(h)
				if k <= 0 || t > math.MaxInt32 {
					return bad(p, "attribute tag")
				}
				l, j := binary.Uvarint(h[k:])
				if j <= 0 || l > uint64(len(h)-k-j) {
					return bad(p, "attribute value length")
				}
				h = h[k+j+int(l):]
			}
		case RecProxyChild, RecProxyParent:
			if proxies++; len(h) != 8 {
				return bad(p, "proxy target of %d bytes", len(h))
			}
		case RecDoc:
			if len(h) != 0 {
				return bad(p, "%d bytes after the document key", len(h))
			}
		}
	}

	img.arena = arena
	if proxies > 0 {
		img.borderIDs = make([]NodeID, 0, proxies)
	}
	named := 0
	for s := 0; s < nslots; s++ {
		p := int(binary.LittleEndian.Uint16(b[slots+2*s:]))
		if p == noPos {
			continue
		}
		if p >= n || arena[6*p+4]|arena[6*p+5] != 0 {
			return &corruptError{page, fmt.Sprintf("slot %d names position %d", s, p)}
		}
		binary.LittleEndian.PutUint16(arena[6*p+4:], uint16(s+1))
		if RecKind(ents[entrySize*p] & 7).IsProxy() {
			img.borderIDs = append(img.borderIDs, MakeNodeID(page, uint16(s)))
		}
		named++
	}
	if named != n {
		return &corruptError{page, fmt.Sprintf("%d of %d records have a slot", named, n)}
	}
	return nil
}
