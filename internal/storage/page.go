package storage

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
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
// path never sees it — decoded pages are pageImages of compact imgRecs.
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

// deadSlotOff marks a tombstoned slot in the on-page slot table. Page
// sizes are limited to 32 KiB so the sentinel cannot collide with a real
// record offset.
const deadSlotOff = 0xFFFF

// MaxPageSize bounds page sizes (slot offsets are uint16 with a sentinel,
// and a page's slot count must fit imgRec's int16 parent).
const MaxPageSize = 32768

// imgRec is one record of a decoded image: fixed-width and pointer-free, so
// a page's record array is one small allocation the collector never scans.
// Variable-length parts are (offset, length) spans into the image's arenas.
type imgRec struct {
	target NodeID // proxies: companion border node
	tag    xmltree.TagID
	parent int16 // slot of physical parent, noParent for fragment roots
	kind   RecKind
	dead   bool // tombstoned slot (deleted record)

	ordOff, ordLen   uint16 // ord key, in pageImage.data
	textOff, textLen uint16 // text/comment/PI content, in pageImage.data
	attrOff, attrLen uint16 // elements: their run of pageImage.attrs
	kidOff, kidLen   uint16 // live child slots, sibling-ordered, in pageImage.kidSlab
}

// imgAttr is one inline attribute of a decoded image; its value is a span
// of pageImage.data.
type imgAttr struct {
	tag      xmltree.TagID
	off, len uint16
}

// pageImage is the swizzled (decoded, directly navigable) representation of
// one page — the object-buffer side of the dual-buffer scheme of Sec. 3.6.
// Images are immutable once published by the swizzle cache (the update path
// expands them into private recPages), so they may be shared by concurrent
// readers, and they stay valid after the buffer frame they were decoded from
// is evicted: cursors keep aliasing them.
//
// Everything big is pointer-free: data is the one copy of the page's record
// bytes that backs every ord key, text and attribute value; one uint16 slab
// backs kidSlab, borders and the nav index; one uint64 slab every bitset.
type pageImage struct {
	page      vdisk.PageID
	recs      []imgRec
	data      []byte
	attrs     []imgAttr
	kidSlab   []uint16
	borders   []uint16 // slots of proxy records, for XScan's speculation
	borderIDs []NodeID // the same borders as NodeIDs, for BordersOf
	nav       pageNav  // cluster-resident name-test index, built at decode
}

// kids returns r's live child slots in sibling order. Read-only.
func (img *pageImage) kids(r *imgRec) []uint16 {
	o, e := int(r.kidOff), int(r.kidOff)+int(r.kidLen)
	return img.kidSlab[o:e:e]
}

// ord returns r's document-order key (nil for records without one).
// Read-only: it aliases the image's data.
func (img *pageImage) ord(r *imgRec) ordpath.Key {
	if r.ordLen == 0 {
		return nil
	}
	o, e := int(r.ordOff), int(r.ordOff)+int(r.ordLen)
	return ordpath.Key(img.data[o:e:e])
}

// text returns r's text/comment/PI content.
func (img *pageImage) text(r *imgRec) string { return img.str(r.textOff, r.textLen) }

// attrsOf returns r's inline attributes. Read-only.
func (img *pageImage) attrsOf(r *imgRec) []imgAttr {
	return img.attrs[r.attrOff : int(r.attrOff)+int(r.attrLen)]
}

// val returns the value of one of the image's attributes.
func (img *pageImage) val(a imgAttr) string { return img.str(a.off, a.len) }

// str returns data[off:off+n] as a string without copying it — the one use
// of unsafe in the package. Sound because data is a private copy written
// once by decodePage, before the image is published, and never afterwards,
// so the bytes are as immutable as a string's; the returned string keeps
// the whole arena alive, exactly like a substring of a page-sized string.
func (img *pageImage) str(off, n uint16) string {
	if n == 0 {
		return ""
	}
	return unsafe.String(&img.data[off], int(n))
}

// expand copies the image into the write path's fat records. Ord keys and
// strings alias the immutable image; attribute and child lists are fresh
// (child lists carved with exact capacity from one slab, so an insert that
// grows one reallocates just that list).
func (img *pageImage) expand() *recPage {
	out := &recPage{page: img.page, recs: make([]rec, len(img.recs))}
	attrs := make([]attrRec, len(img.attrs))
	for i, a := range img.attrs {
		attrs[i] = attrRec{tag: a.tag, val: img.val(a)}
	}
	kids := append([]uint16(nil), img.kidSlab...)
	for i := range img.recs {
		r := &img.recs[i]
		if r.dead {
			out.recs[i].dead = true
			continue
		}
		w := &out.recs[i]
		*w = rec{kind: r.kind, parent: int(r.parent), tag: r.tag, text: img.text(r), ord: img.ord(r), target: r.target}
		if r.attrLen > 0 {
			o, e := int(r.attrOff), int(r.attrOff)+int(r.attrLen)
			w.attrs = attrs[o:e:e]
		}
		if r.kidLen > 0 {
			o, e := int(r.kidOff), int(r.kidOff)+int(r.kidLen)
			w.children = kids[o:e:e]
		}
	}
	return out
}

// pageNav is the cluster-resident navigation index: every live record gets
// a pre-order position (the order a depth-first walk of the sibling-sorted
// child lists enumerates, so a slot's subtree is the contiguous range
// [pre[s], subEnd[s])), and occupancy bitsets over those positions answer
// name/kind tests for a whole cluster at once. Immutable after decode.
type pageNav struct {
	pre    []uint16 // slot → pre-order position (preNone for dead slots)
	byPre  []uint16 // pre-order position → slot
	subEnd []uint16 // slot → exclusive pre-order end of its subtree
	words  int      // uint64 words per bitset

	// tags and tagCnt are allocations of their own: the page's synopsis
	// aliases them and outlives the image.
	tags    []xmltree.TagID // sorted distinct record tags (NoTag bucket included)
	tagCnt  []int32         // live records per tags[i]
	tagBits []uint64        // len(tags) bitsets of words words: positions tagged tags[i]

	core    []uint64 // all live non-proxy positions
	elem    []uint64 // RecElem positions
	text    []uint64 // RecText positions
	comment []uint64 // RecComment positions
	pi      []uint64 // RecPI positions
	proxy   []uint64 // proxy (border) positions

	elemCount, textCount, commentCount, piCount int
	proxyChildCount                             int // outgoing downward borders
}

const preNone = 0xFFFF

func setBit(w []uint64, i uint16) { w[i>>6] |= 1 << (i & 63) }

func hasBit(w []uint64, i uint16) bool { return w[i>>6]&(1<<(i&63)) != 0 }

// tagSlot returns the position of t in the sorted tags — where it is, or
// where it would be inserted — and whether it is present.
func tagSlot(tags []xmltree.TagID, t xmltree.TagID) (int, bool) {
	lo, hi := 0, len(tags)
	for lo < hi {
		mid := (lo + hi) / 2
		if tags[mid] < t {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(tags) && tags[lo] == t
}

// tagIndex returns the index of t in nav.tags, or -1.
func (nav *pageNav) tagIndex(t xmltree.TagID) int {
	if i, ok := tagSlot(nav.tags, t); ok {
		return i
	}
	return -1
}

// tagMask returns the occupancy bitset of records tagged nav.tags[i].
func (nav *pageNav) tagMask(i int) []uint64 {
	return nav.tagBits[i*nav.words : (i+1)*nav.words]
}

// kindMask returns the occupancy bitset for a kind test (nil means "no
// record of this kind exists", an always-empty mask).
func (nav *pageNav) kindMask(k xpath.KindTest) []uint64 {
	switch k {
	case xpath.KindAny:
		return nav.core
	case xpath.KindElement:
		// Records never carry xmltree.Attribute kind (attributes are
		// inline), so the element bitset is exact for KindElement.
		return nav.elem
	case xpath.KindText:
		return nav.text
	case xpath.KindComment:
		return nav.comment
	case xpath.KindPI:
		return nav.pi
	}
	return nil
}

// testMask materializes the occupancy bitset of records matching test,
// writing into scratch when a combination is needed. The returned slice is
// either an immutable nav-owned bitset or scratch; callers must treat it as
// read-only and not retain it past the next call with the same scratch.
// The bitset reproduces xpath.NodeTest.Matches exactly: kind check ANDed
// with the name check (tag membership; non-element records sit in the
// NoTag bucket, matching Matches' behaviour on their NoTag field).
func (nav *pageNav) testMask(test xpath.NodeTest, scratch []uint64) []uint64 {
	km := nav.kindMask(test.Kind)
	if test.AnyName {
		return km
	}
	// Named test: OR the tag buckets, then AND with the kind mask. The
	// common case (element name test, one tag) short-circuits: real tags
	// only ever appear on element records, so the bucket is already ⊆ elem.
	if len(test.Tags) == 1 && test.Kind == xpath.KindElement && test.Tags[0] != xmltree.NoTag {
		if i := nav.tagIndex(test.Tags[0]); i >= 0 {
			return nav.tagMask(i)
		}
		return nil
	}
	for i := range scratch {
		scratch[i] = 0
	}
	any := false
	for _, t := range test.Tags {
		if i := nav.tagIndex(t); i >= 0 {
			for w, v := range nav.tagMask(i) {
				scratch[w] |= v
			}
			any = true
		}
	}
	if !any || km == nil {
		return nil
	}
	if test.Kind == xpath.KindAny && (len(test.Tags) > 1 || test.Tags[0] != xmltree.NoTag) {
		// Real tags imply element records, elem ⊆ core: no AND needed
		// unless NoTag is among the names.
		hasNoTag := false
		for _, t := range test.Tags {
			if t == xmltree.NoTag {
				hasNoTag = true
			}
		}
		if !hasNoTag {
			return scratch
		}
	}
	for w := range scratch {
		scratch[w] &= km[w]
	}
	return scratch
}

// --- binary encoding -------------------------------------------------------
//
// Page layout:
//
//	[0:2)  numSlots (uint16)
//	[2:4)  free-space offset (uint16)
//	[4:…)  record data, append-only
//	[cap-2*numSlots : cap) slot table, slot i at cap-2*(i+1), value = record
//	                        offset
//
// Record encoding: kind (1 byte), parent slot + 1 as uvarint (0 = none),
// then kind-specific payload (see encodeRec).

const pageHeaderSize = 4

// pageBuilder assembles a page image for writing.
type pageBuilder struct {
	cap   int
	data  []byte
	slots []uint16
}

func newPageBuilder(pageSize int) *pageBuilder {
	// The builder fills the usable region; the checksum trailer is stamped
	// by writePage when the finished payload goes to the device.
	b := &pageBuilder{cap: usable(pageSize), data: make([]byte, pageHeaderSize, pageSize)}
	return b
}

// used returns consumed bytes including header and slot table.
func (b *pageBuilder) used() int { return len(b.data) + 2*len(b.slots) }

// free returns remaining bytes.
func (b *pageBuilder) free() int { return b.cap - b.used() }

// add appends an encoded record, returning its slot. It panics if the
// record does not fit; callers check sizes via encodedSize first.
func (b *pageBuilder) add(encoded []byte) uint16 {
	if len(encoded)+2 > b.free() {
		panic("storage: record does not fit in page")
	}
	off := len(b.data)
	b.data = append(b.data, encoded...)
	b.slots = append(b.slots, uint16(off))
	return uint16(len(b.slots) - 1)
}

// finish serializes the page into a buffer of pageSize bytes.
func (b *pageBuilder) finish() []byte {
	out := make([]byte, b.cap)
	binary.LittleEndian.PutUint16(out[0:2], uint16(len(b.slots)))
	binary.LittleEndian.PutUint16(out[2:4], uint16(len(b.data)))
	copy(out[pageHeaderSize:], b.data[pageHeaderSize:])
	for i, off := range b.slots {
		binary.LittleEndian.PutUint16(out[b.cap-2*(i+1):], off)
	}
	return out
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

func appendBytes(dst, b []byte) []byte {
	dst = appendUvarint(dst, uint64(len(b)))
	return append(dst, b...)
}

func appendString(dst []byte, s string) []byte {
	dst = appendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// encodeRec serializes r (children are not stored; they are derived from
// parent pointers at decode time, which keeps record sizes fixed once
// written).
func encodeRec(r *rec) []byte {
	return appendRec(make([]byte, 0, encodedSize(r)), r)
}

// appendRec appends r's serialized form to out and returns the extended
// slice; callers with a pre-sized destination (the page rewrite path)
// encode without a per-record allocation.
func appendRec(out []byte, r *rec) []byte {
	out = append(out, byte(r.kind))
	out = appendUvarint(out, uint64(r.parent+1))
	switch r.kind {
	case RecDoc:
		// Nothing further.
	case RecElem:
		out = appendUvarint(out, uint64(r.tag))
		out = appendBytes(out, r.ord)
		out = appendUvarint(out, uint64(len(r.attrs)))
		for _, a := range r.attrs {
			out = appendUvarint(out, uint64(a.tag))
			out = appendString(out, a.val)
		}
	case RecText, RecComment, RecPI:
		out = appendBytes(out, r.ord)
		out = appendString(out, r.text)
	case RecProxyChild:
		// The ord key of the far fragment's first node positions the
		// proxy within its parent's child list, so document order
		// survives updates that insert siblings out of slot order.
		out = appendBytes(out, r.ord)
		var buf [8]byte
		binary.LittleEndian.PutUint64(buf[:], uint64(r.target))
		out = append(out, buf[:]...)
	case RecProxyParent:
		var buf [8]byte
		binary.LittleEndian.PutUint64(buf[:], uint64(r.target))
		out = append(out, buf[:]...)
	}
	return out
}

// encodedSize returns the exact byte size encodeRec will produce.
func encodedSize(r *rec) int {
	n := 1 + uvarintLen(uint64(r.parent+1))
	switch r.kind {
	case RecDoc:
	case RecElem:
		n += uvarintLen(uint64(r.tag))
		n += uvarintLen(uint64(len(r.ord))) + len(r.ord)
		n += uvarintLen(uint64(len(r.attrs)))
		for _, a := range r.attrs {
			n += uvarintLen(uint64(a.tag))
			n += uvarintLen(uint64(len(a.val))) + len(a.val)
		}
	case RecText, RecComment, RecPI:
		n += uvarintLen(uint64(len(r.ord))) + len(r.ord)
		n += uvarintLen(uint64(len(r.text))) + len(r.text)
	case RecProxyChild:
		n += uvarintLen(uint64(len(r.ord))) + len(r.ord)
		n += 8
	case RecProxyParent:
		n += 8
	}
	return n
}

// corruptError describes a malformed page.
type corruptError struct {
	page vdisk.PageID
	msg  string
}

func (e *corruptError) Error() string {
	return fmt.Sprintf("storage: page %d corrupt: %s", e.page, e.msg)
}

// tagTableSize bounds the tags decodePage indexes through its direct table;
// larger ids (a dictionary of more names than that) fall back to tagSlot.
const tagTableSize = 512

// decodePage parses raw page bytes into a pageImage. The slot table sits at
// the end of the usable region; the trailing checksum bytes (verified by the
// buffer pool before raw reaches us) are not part of the record layout.
//
// raw is a buffer frame's bytes (or a page staging has just encoded). The
// pool allocates a frame per miss and drops it on eviction — it never reuses
// one — so aliasing raw would not be overwritten under us. The record region
// is copied once all the same, and every decoded field is a span of that
// copy: an image then retains its free bytes, not a whole page the pool
// believes it evicted (capacity would stop bounding frame memory), and str's
// no-copy strings rest on a private arena nobody else holds. Two
// sweeps over the slots decode the records and link the child lists; one
// depth-first walk then assigns pre-order positions and sets every bitset.
// Any byte sequence yields an image or a *corruptError, never a panic.
func decodePage(page vdisk.PageID, raw []byte, pageSize int) (*pageImage, error) {
	cap := usable(pageSize)
	if len(raw) < pageHeaderSize || len(raw) < cap {
		return nil, &corruptError{page, "short page"}
	}
	n := int(binary.LittleEndian.Uint16(raw[0:2]))
	free := int(binary.LittleEndian.Uint16(raw[2:4]))
	if pageSize > MaxPageSize || free < pageHeaderSize || free > cap-2*n {
		return nil, &corruptError{page, fmt.Sprintf("free-space offset %d outside the record region of %d slots", free, n)}
	}
	img := &pageImage{page: page, recs: make([]imgRec, n), data: append([]byte(nil), raw[:free]...)}
	recs := img.recs
	pd := pageDecoder{d: decodeCursor{b: img.data}, attrs: make([]imgAttr, 0, n/4)}

	// Sweep 1: decode. Children are counted into their parent's kidLen, and
	// the tags of core records are marked in the direct table (pages hold
	// hundreds of records but a dozen or so distinct tags).
	var direct [tagTableSize]uint16 // tag → 1 + its index in nav.tags; 0 = absent
	var bigTags []xmltree.TagID     // sorted distinct tags ≥ tagTableSize
	noTag := false
	maxTag, ntags := -1, 0
	live, nkids, nborders := 0, 0, 0
	slots := raw[cap-2*n : cap] // slot i at the i-th pair from the end
	for i := 0; i < n; i++ {
		off := int(binary.LittleEndian.Uint16(slots[2*(n-1-i):]))
		r := &recs[i]
		if off == deadSlotOff {
			r.dead = true
			continue
		}
		if off < pageHeaderSize || off >= free {
			return nil, &corruptError{page, fmt.Sprintf("slot %d offset %d out of range", i, off)}
		}
		if err := pd.decodeRec(r, off, n); err != nil {
			return nil, &corruptError{page, fmt.Sprintf("slot %d: %v", i, err)}
		}
		live++
		if r.parent != noParent {
			recs[r.parent].kidLen++
			nkids++
		}
		switch t := r.tag; {
		case r.kind.IsProxy():
			nborders++
		case t == xmltree.NoTag:
			noTag = true
		case t >= tagTableSize:
			if j, ok := tagSlot(bigTags, t); !ok {
				bigTags = append(bigTags, 0)
				copy(bigTags[j+1:], bigTags[j:])
				bigTags[j] = t
			}
		case direct[t] == 0:
			direct[t] = 1
			ntags++
			maxTag = max(maxTag, int(t))
		}
	}
	img.attrs = pd.attrs

	// The sorted distinct tags: NoTag (-1), the direct table in index order,
	// then the big ones.
	nav := &img.nav
	nav.tags = make([]xmltree.TagID, 0, 1+ntags+len(bigTags))
	if noTag {
		nav.tags = append(nav.tags, xmltree.NoTag)
	}
	for t := 0; t <= maxTag; t++ {
		if direct[t] != 0 {
			nav.tags = append(nav.tags, xmltree.TagID(t))
			direct[t] = uint16(len(nav.tags))
		}
	}
	nav.tags = append(nav.tags, bigTags...)
	nav.tagCnt = make([]int32, len(nav.tags))

	// One slab for every uint16 index, one for every bitset.
	slab := make([]uint16, nkids+nborders+2*n+live)
	cut := func(k int) []uint16 { c := slab[:k:k]; slab = slab[k:]; return c }
	img.kidSlab, img.borders = cut(nkids), cut(nborders)[:0]
	nav.pre, nav.subEnd, nav.byPre = cut(n), cut(n), cut(live)
	w := (live + 63) / 64
	bits := make([]uint64, (6+len(nav.tags))*w)
	cutBits := func() []uint64 { c := bits[:w:w]; bits = bits[w:]; return c }
	nav.words = w
	nav.core, nav.elem, nav.text = cutBits(), cutBits(), cutBits()
	nav.comment, nav.pi, nav.proxy = cutBits(), cutBits(), cutBits()
	nav.tagBits = bits

	// Sweep 2: carve the child lists and fill them in slot order, then order
	// siblings by their document-order keys — bulk load allocates slots in
	// document order, but updates may insert out of slot order.
	pos := 0
	for i := range recs {
		r := &recs[i]
		if r.dead {
			if r.kidLen > 0 {
				return nil, &corruptError{page, fmt.Sprintf("slot %d is dead but has children", i)}
			}
			nav.pre[i] = preNone
			continue
		}
		r.kidOff, pos, r.kidLen = uint16(pos), pos+int(r.kidLen), 0
		if r.kind.IsProxy() {
			img.borders = append(img.borders, uint16(i))
		}
	}
	for i := range recs {
		if r := &recs[i]; !r.dead && r.parent != noParent {
			p := &recs[r.parent]
			img.kidSlab[int(p.kidOff)+int(p.kidLen)] = uint16(i)
			p.kidLen++
		}
	}
	for i := range recs {
		if recs[i].kidLen > 1 {
			img.sortKidsByOrd(img.kids(&recs[i]))
		}
	}

	// Depth-first walk from every fragment root. The pending stack lives in
	// the still-unassigned tail of byPre, growing downward: positions handed
	// out plus slots pending never exceed the live count, because every live
	// record is pushed at most once (by its one parent, or as a root).
	next, sp := 0, live
	for i := range recs {
		if recs[i].dead || recs[i].parent != noParent {
			continue
		}
		sp--
		nav.byPre[sp] = uint16(i)
		for sp < live {
			s := nav.byPre[sp]
			sp++
			p := uint16(next)
			nav.pre[s], nav.byPre[next] = p, s
			next++
			r := &recs[s]
			kids := img.kids(r)
			for k := len(kids) - 1; k >= 0; k-- {
				sp--
				nav.byPre[sp] = kids[k]
			}
			switch r.kind {
			case RecProxyChild:
				setBit(nav.proxy, p)
				nav.proxyChildCount++
				continue
			case RecProxyParent:
				setBit(nav.proxy, p)
				continue
			case RecElem:
				setBit(nav.elem, p)
				nav.elemCount++
			case RecText:
				setBit(nav.text, p)
				nav.textCount++
			case RecComment:
				setBit(nav.comment, p)
				nav.commentCount++
			case RecPI:
				setBit(nav.pi, p)
				nav.piCount++
			}
			setBit(nav.core, p)
			// Non-element records land in the NoTag bucket, exactly the
			// field NodeTest.Matches inspects on them.
			t := 0 // NoTag sorts first
			if r.tag >= tagTableSize {
				t, _ = tagSlot(nav.tags, r.tag)
			} else if r.tag >= 0 {
				t = int(direct[r.tag]) - 1
			}
			nav.tagBits[t*w+int(p>>6)] |= 1 << (p & 63)
			nav.tagCnt[t]++
		}
	}
	if next != live {
		return nil, &corruptError{page, "parent pointers form a cycle"}
	}
	// Subtree ends, in reverse pre-order: a leaf ends right after itself, and
	// the last descendant a record sees (the first one visited here) ends it.
	for p := live - 1; p >= 0; p-- {
		s := nav.byPre[p]
		if nav.subEnd[s] == 0 {
			nav.subEnd[s] = uint16(p) + 1
		}
		if par := recs[s].parent; par != noParent && nav.subEnd[par] < nav.subEnd[s] {
			nav.subEnd[par] = nav.subEnd[s]
		}
	}
	if nborders > 0 {
		// Materialized once here so BordersOf can hand out a shared slice
		// instead of allocating per call.
		img.borderIDs = make([]NodeID, nborders)
		for i, slot := range img.borders {
			img.borderIDs[i] = MakeNodeID(page, slot)
		}
	}
	return img, nil
}

// encodePageImage serializes live records back to a page payload (the
// usable region; writePage adds the checksum trailer), preserving slot
// numbers (NodeIDs embed them) and tombstoning dead slots. Trailing dead
// slots are truncated so their numbers become reusable.
func encodePageImage(img *recPage, pageSize int) ([]byte, error) {
	n := len(img.recs)
	for n > 0 && img.recs[n-1].dead {
		n--
	}
	cap := usable(pageSize)
	out := make([]byte, cap)
	dataOff := pageHeaderSize
	for i := 0; i < n; i++ {
		slotPos := cap - 2*(i+1)
		if img.recs[i].dead {
			binary.LittleEndian.PutUint16(out[slotPos:], deadSlotOff)
			continue
		}
		// Size check before encoding: appendRec writes straight into out,
		// so an overflowing record must never start (it would clobber slot
		// entries already written at the top of the region).
		sz := encodedSize(&img.recs[i])
		if dataOff+sz > cap-2*n {
			return nil, &corruptError{img.page, "page overflow during rewrite"}
		}
		appendRec(out[dataOff:dataOff], &img.recs[i])
		binary.LittleEndian.PutUint16(out[slotPos:], uint16(dataOff))
		dataOff += sz
	}
	binary.LittleEndian.PutUint16(out[0:2], uint16(n))
	binary.LittleEndian.PutUint16(out[2:4], uint16(dataOff))
	return out, nil
}

// pageUsage returns the bytes consumed by live records plus slot table and
// header, i.e. the fit check for in-page inserts.
func pageUsage(img *recPage) int {
	n := len(img.recs)
	for n > 0 && img.recs[n-1].dead {
		n--
	}
	used := pageHeaderSize + 2*n
	for i := 0; i < n; i++ {
		if !img.recs[i].dead {
			used += encodedSize(&img.recs[i])
		}
	}
	return used
}

// decodeCursor reads untrusted bytes. Its error is sticky: the first failed
// read parks the cursor at the end of the buffer, every later read yields
// zero, and callers check err once per record rather than once per field.
type decodeCursor struct {
	b   []byte
	i   int
	err error
}

var (
	errTruncated = errors.New("truncated field")
	errOverflow  = errors.New("uvarint overflow")
	errBadOrd    = errors.New("malformed ord key")
)

func (d *decodeCursor) fail(err error) {
	if d.err == nil {
		d.err = err
	}
	d.i = len(d.b)
}

// uvarint reads a LEB128 value; most on a page take one byte.
func (d *decodeCursor) uvarint() uint64 {
	if i := d.i; i < len(d.b) && d.b[i] < 0x80 {
		d.i = i + 1
		return uint64(d.b[i])
	}
	return d.uvarintLong()
}

func (d *decodeCursor) uvarintLong() uint64 {
	var v uint64
	for shift := uint(0); d.i < len(d.b) && shift < 64; shift += 7 {
		c := d.b[d.i]
		d.i++
		if c < 0x80 {
			return v | uint64(c)<<shift
		}
		v |= uint64(c&0x7f) << shift
	}
	if d.i < len(d.b) {
		d.fail(errOverflow)
	} else {
		d.fail(errTruncated)
	}
	return 0
}

// span reads a length-prefixed bytes field and returns its [start, end)
// indexes within the cursor's buffer. The length is compared in uint64: it
// is untrusted, and one ≥ 2⁶³ would turn negative as an int.
func (d *decodeCursor) span() (int, int) {
	n := d.uvarint()
	if n > uint64(len(d.b)-d.i) {
		d.fail(errTruncated)
		return 0, 0
	}
	s := d.i
	d.i += int(n)
	return s, d.i
}

// pageDecoder is the state one decodePage call shares across its records:
// the cursor over the image's copy of the record region, and the attribute
// arena under construction.
type pageDecoder struct {
	d     decodeCursor
	attrs []imgAttr
}

// ordSpan reads an ord key field into r, checking that the key is well
// formed: sibling sorting and every later comparison rely on it.
func (pd *pageDecoder) ordSpan(r *imgRec) {
	s, e := pd.d.span()
	if !ordpath.Key(pd.d.b[s:e]).Valid() {
		pd.d.fail(errBadOrd)
	}
	r.ordOff, r.ordLen = uint16(s), uint16(e-s)
}

func (pd *pageDecoder) proxyTarget(r *imgRec) {
	d := &pd.d
	if len(d.b)-d.i < 8 {
		d.fail(errTruncated)
		return
	}
	r.target = NodeID(binary.LittleEndian.Uint64(d.b[d.i:]))
}

// decodeRec decodes the record at off into r (which may already carry a
// child count in kidLen); nslots bounds its parent pointer.
func (pd *pageDecoder) decodeRec(r *imgRec, off, nslots int) error {
	d := &pd.d
	d.i = off + 1
	r.kind = RecKind(d.b[off])
	r.tag = xmltree.NoTag
	p := d.uvarint()
	if p > uint64(nslots) {
		return fmt.Errorf("bad parent %d", int64(p)-1)
	}
	r.parent = int16(p) - 1
	switch r.kind {
	case RecDoc:
	case RecElem:
		tag := d.uvarint()
		pd.ordSpan(r)
		na := d.uvarint()
		if na > uint64(len(d.b)-d.i)/2 { // an attribute takes two bytes at least
			d.fail(errTruncated)
			na = 0
		}
		r.tag, r.attrOff, r.attrLen = xmltree.TagID(tag), uint16(len(pd.attrs)), uint16(na)
		for ; na > 0; na-- {
			at := d.uvarint()
			s, e := d.span()
			tag |= at // either one beyond int32 fails the record below
			pd.attrs = append(pd.attrs, imgAttr{tag: xmltree.TagID(at), off: uint16(s), len: uint16(e - s)})
		}
		if tag > math.MaxInt32 {
			return errors.New("tag out of range")
		}
	case RecText, RecComment, RecPI:
		pd.ordSpan(r)
		s, e := d.span()
		r.textOff, r.textLen = uint16(s), uint16(e-s)
	case RecProxyChild:
		pd.ordSpan(r)
		pd.proxyTarget(r)
	case RecProxyParent:
		pd.proxyTarget(r)
	default:
		return fmt.Errorf("unknown record kind %d", d.b[off])
	}
	return d.err
}

// sortKidsByOrd stably orders one child list by document-order key. Bulk
// load emits children in document order, so the list is almost always
// already sorted and the insertion sort runs in linear time without
// allocating. Siblings share every component but the last few, so the
// components they share byte for byte are skipped before comparing.
func (img *pageImage) sortKidsByOrd(kids []uint16) {
	for i := 1; i < len(kids); i++ {
		k := kids[i]
		ord := img.ord(&img.recs[k])
		j := i - 1
		for ; j >= 0; j-- {
			prev := img.ord(&img.recs[kids[j]])
			d, m := 0, min(len(prev), len(ord))
			for d < m && prev[d] == ord[d] {
				d++
			}
			for d > 0 && ord[d-1]&0x80 != 0 {
				d-- // not a component boundary: the last shared byte continues
			}
			if d < m && prev[d]|ord[d] < 0x80 && prev[d] != ord[d] {
				if prev[d] < ord[d] { // two one-byte components decide it
					break
				}
			} else if ordpath.Compare(prev[d:], ord[d:]) <= 0 {
				break
			}
			kids[j+1] = kids[j]
		}
		kids[j+1] = k
	}
}
