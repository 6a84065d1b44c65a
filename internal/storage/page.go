package storage

import (
	"encoding/binary"
	"fmt"

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

// rec is the decoded form of one record.
type rec struct {
	kind   RecKind
	parent int // slot of physical parent, noParent for fragment roots
	tag    xmltree.TagID
	text   string
	ord    ordpath.Key
	target NodeID // proxies: companion border node
	attrs  []attrRec

	dead     bool     // tombstoned slot (deleted record)
	children []uint16 // derived at decode: live slots with parent == this slot
}

// deadSlotOff marks a tombstoned slot in the on-page slot table. Page
// sizes are limited to 32 KiB so the sentinel cannot collide with a real
// record offset.
const deadSlotOff = 0xFFFF

// MaxPageSize bounds page sizes (slot offsets are uint16 with a sentinel).
const MaxPageSize = 32768

// pageImage is the swizzled (decoded, directly navigable) representation of
// one page — the object-buffer side of the dual-buffer scheme of Sec. 3.6.
// Images are immutable once published by the swizzle cache (the update path
// works on private copies), so they may be shared by concurrent readers.
type pageImage struct {
	page      vdisk.PageID
	recs      []rec
	borders   []uint16 // slots of proxy records, for XScan's speculation
	borderIDs []NodeID // the same borders as NodeIDs, for BordersOf
	nav       *pageNav // cluster-resident name-test index, built at decode
}

// pageNav is the cluster-resident navigation index: every live record gets
// a pre-order position (the exact order modeDFS enumerates, so a slot's
// subtree is the contiguous range [pre[s], subEnd[s])), and occupancy
// bitsets over those positions answer name/kind tests for a whole cluster
// at once. Immutable after decode, shared with the image.
type pageNav struct {
	pre    []uint16 // slot → pre-order position (preNone for dead slots)
	byPre  []uint16 // pre-order position → slot
	subEnd []uint16 // slot → exclusive pre-order end of its subtree
	words  int      // uint64 words per bitset

	tags    []xmltree.TagID // sorted distinct record tags (NoTag bucket included)
	tagCnt  []int32         // live records per tags[i]
	tagBits [][]uint64      // tagBits[i]: positions of records tagged tags[i]

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
			return nav.tagBits[i]
		}
		return nil
	}
	for i := range scratch {
		scratch[i] = 0
	}
	any := false
	for _, t := range test.Tags {
		if i := nav.tagIndex(t); i >= 0 {
			for w, v := range nav.tagBits[i] {
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

// buildPageNav derives the navigation index from a decoded image. The
// pre-order walk mirrors StepIter's modeDFS (children lists are already
// sibling-sorted), so bitmap range enumeration and per-node DFS agree on
// emission order byte for byte.
func buildPageNav(img *pageImage) *pageNav {
	n := len(img.recs)
	live := 0
	for i := range img.recs {
		if !img.recs[i].dead {
			live++
		}
	}
	nav := &pageNav{
		pre:    make([]uint16, n),
		subEnd: make([]uint16, n),
		byPre:  make([]uint16, 0, live),
		words:  (live + 63) / 64,
	}
	for i := range nav.pre {
		nav.pre[i] = preNone
	}
	var walk func(s uint16)
	walk = func(s uint16) {
		nav.pre[s] = uint16(len(nav.byPre))
		nav.byPre = append(nav.byPre, s)
		for _, c := range img.recs[s].children {
			walk(c)
		}
		nav.subEnd[s] = uint16(len(nav.byPre))
	}
	for i := 0; i < n; i++ {
		if r := &img.recs[i]; !r.dead && r.parent == noParent {
			walk(uint16(i))
		}
	}

	// Distinct tags, sorted (non-element records land in the NoTag bucket,
	// exactly the field Matches inspects on them). A page holds hundreds of
	// records but a dozen or so tags, and runs of siblings repeat one: skip
	// a repeat of the previous record's tag, insert the rest in place.
	tags := make([]xmltree.TagID, 0, 16)
	var last xmltree.TagID
	for p := range nav.byPre {
		r := &img.recs[nav.byPre[p]]
		if r.kind.IsProxy() || (len(tags) > 0 && r.tag == last) {
			continue
		}
		last = r.tag
		if i, ok := tagSlot(tags, r.tag); !ok {
			tags = append(tags, 0)
			copy(tags[i+1:], tags[i:])
			tags[i] = r.tag
		}
	}
	nav.tags = tags
	nav.tagCnt = make([]int32, len(nav.tags))

	// One backing allocation for every bitset.
	w := nav.words
	backing := make([]uint64, (len(nav.tags)+6)*w)
	cut := func() []uint64 { b := backing[:w:w]; backing = backing[w:]; return b }
	nav.core, nav.elem, nav.text = cut(), cut(), cut()
	nav.comment, nav.pi, nav.proxy = cut(), cut(), cut()
	nav.tagBits = make([][]uint64, len(nav.tags))
	for i := range nav.tagBits {
		nav.tagBits[i] = cut()
	}

	for p := range nav.byPre {
		pos := uint16(p)
		r := &img.recs[nav.byPre[p]]
		switch r.kind {
		case RecProxyChild:
			setBit(nav.proxy, pos)
			nav.proxyChildCount++
			continue
		case RecProxyParent:
			setBit(nav.proxy, pos)
			continue
		case RecElem:
			setBit(nav.elem, pos)
			nav.elemCount++
		case RecText:
			setBit(nav.text, pos)
			nav.textCount++
		case RecComment:
			setBit(nav.comment, pos)
			nav.commentCount++
		case RecPI:
			setBit(nav.pi, pos)
			nav.piCount++
		}
		setBit(nav.core, pos)
		if i := nav.tagIndex(r.tag); i >= 0 {
			setBit(nav.tagBits[i], pos)
			nav.tagCnt[i]++
		}
	}
	return nav
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

// decodePage parses raw page bytes into a pageImage. The slot table sits at
// the end of the usable region; the trailing checksum bytes (verified by the
// buffer pool before raw reaches us) are not part of the record layout.
//
// Decoding is slab-allocated: one immutable string copy of the page backs
// every text and attribute value, one byte slab every ord key, and one
// uint16 slab every child list, so the per-record cost is a few appends
// into pre-sized arrays instead of hundreds of small heap objects. raw
// itself aliases a buffer frame that is recycled on eviction, so no decoded
// field may point into it.
func decodePage(page vdisk.PageID, raw []byte, pageSize int) (*pageImage, error) {
	cap := usable(pageSize)
	if len(raw) < pageHeaderSize {
		return nil, &corruptError{page, "short page"}
	}
	n := int(binary.LittleEndian.Uint16(raw[0:2]))
	if cap-2*n < pageHeaderSize {
		return nil, &corruptError{page, "slot table overlaps header"}
	}
	img := &pageImage{page: page, recs: make([]rec, n)}
	pd := pageDecoder{
		raw: raw,
		str: string(raw),
		// Ord keys are substrings of the page, so their total length can
		// never exceed it: the slab never regrows and every key aliases it.
		ords: make([]byte, 0, len(raw)),
	}
	for i := 0; i < n; i++ {
		off := int(binary.LittleEndian.Uint16(raw[cap-2*(i+1):]))
		if off == deadSlotOff {
			img.recs[i].dead = true
			continue
		}
		if off < pageHeaderSize || off >= cap {
			return nil, &corruptError{page, fmt.Sprintf("slot %d offset %d out of range", i, off)}
		}
		if err := pd.decodeRec(&img.recs[i], off); err != nil {
			return nil, &corruptError{page, fmt.Sprintf("slot %d: %v", i, err)}
		}
	}
	// Derive children lists and the border index, then order siblings by
	// their document-order keys: the initial bulk load allocates slots in
	// DFS order, but updates may insert out of slot order. Child lists are
	// carved from one slab, sized by a counting pass.
	nkids, nborders := 0, 0
	for i := 0; i < n; i++ {
		r := &img.recs[i]
		if r.dead {
			continue
		}
		if r.parent != noParent {
			if r.parent < 0 || r.parent >= n || img.recs[r.parent].dead {
				return nil, &corruptError{page, fmt.Sprintf("slot %d: bad parent %d", i, r.parent)}
			}
			nkids++
		}
		if r.kind.IsProxy() {
			nborders++
		}
	}
	if nkids > 0 {
		counts := make([]uint16, n)
		for i := 0; i < n; i++ {
			if r := &img.recs[i]; !r.dead && r.parent != noParent {
				counts[r.parent]++
			}
		}
		kidSlab := make([]uint16, nkids)
		pos := 0
		for i := 0; i < n; i++ {
			if c := int(counts[i]); c > 0 {
				img.recs[i].children = kidSlab[pos : pos : pos+c]
				pos += c
			}
		}
		for i := 0; i < n; i++ {
			if r := &img.recs[i]; !r.dead && r.parent != noParent {
				p := &img.recs[r.parent]
				p.children = append(p.children, uint16(i))
			}
		}
	}
	if nborders > 0 {
		img.borders = make([]uint16, 0, nborders)
		for i := 0; i < n; i++ {
			if r := &img.recs[i]; !r.dead && r.kind.IsProxy() {
				img.borders = append(img.borders, uint16(i))
			}
		}
	}
	for i := 0; i < n; i++ {
		sortKidsByOrd(img.recs, img.recs[i].children)
	}
	if len(img.borders) > 0 {
		// Materialized once here so BordersOf can hand out a shared slice
		// instead of allocating per call.
		img.borderIDs = make([]NodeID, len(img.borders))
		for i, slot := range img.borders {
			img.borderIDs[i] = MakeNodeID(page, slot)
		}
	}
	img.nav = buildPageNav(img)
	return img, nil
}

// encodePageImage serializes live records back to a page payload (the
// usable region; writePage adds the checksum trailer), preserving slot
// numbers (NodeIDs embed them) and tombstoning dead slots. Trailing dead
// slots are truncated so their numbers become reusable.
func encodePageImage(img *pageImage, pageSize int) ([]byte, error) {
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
func pageUsage(img *pageImage) int {
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

type decodeCursor struct {
	b []byte
	i int
}

func (d *decodeCursor) uvarint() (uint64, error) {
	var v uint64
	var shift uint
	for ; d.i < len(d.b); d.i++ {
		c := d.b[d.i]
		if c < 0x80 {
			if shift > 63 {
				return 0, fmt.Errorf("uvarint overflow")
			}
			d.i++
			return v | uint64(c)<<shift, nil
		}
		v |= uint64(c&0x7f) << shift
		shift += 7
		if shift > 63 {
			return 0, fmt.Errorf("uvarint overflow")
		}
	}
	return 0, fmt.Errorf("truncated uvarint")
}

func (d *decodeCursor) bytes() ([]byte, error) {
	n, err := d.uvarint()
	if err != nil {
		return nil, err
	}
	if d.i+int(n) > len(d.b) {
		return nil, fmt.Errorf("truncated bytes field")
	}
	out := d.b[d.i : d.i+int(n)]
	d.i += int(n)
	return out, nil
}

// span reads a length-prefixed bytes field and returns its [start, end)
// indexes within the cursor's buffer instead of the bytes themselves, so
// the caller can alias a stable copy of the same buffer.
func (d *decodeCursor) span() (int, int, error) {
	n, err := d.uvarint()
	if err != nil {
		return 0, 0, err
	}
	if d.i+int(n) > len(d.b) {
		return 0, 0, fmt.Errorf("truncated bytes field")
	}
	s := d.i
	d.i += int(n)
	return s, d.i, nil
}

// pageDecoder carries the slabs one decodePage call shares across all its
// records: str is an immutable copy of the page that every string field
// aliases, ords collects ord key copies, attrs collects attribute records.
type pageDecoder struct {
	raw   []byte
	str   string
	ords  []byte
	attrs []attrRec
}

// ordKey copies b into the ord slab and returns the slab-backed key. The
// slab is pre-sized to the page length so it never regrows.
func (pd *pageDecoder) ordKey(s, e int) ordpath.Key {
	o := len(pd.ords)
	pd.ords = append(pd.ords, pd.raw[s:e]...)
	return ordpath.Key(pd.ords[o:len(pd.ords):len(pd.ords)])
}

func (pd *pageDecoder) decodeRec(r *rec, off int) error {
	raw := pd.raw
	if off >= len(raw) {
		return fmt.Errorf("empty record")
	}
	d := &decodeCursor{b: raw, i: off + 1}
	r.kind = RecKind(raw[off])
	r.tag = xmltree.NoTag
	p, err := d.uvarint()
	if err != nil {
		return err
	}
	r.parent = int(p) - 1
	switch r.kind {
	case RecDoc:
	case RecElem:
		tag, err := d.uvarint()
		if err != nil {
			return err
		}
		r.tag = xmltree.TagID(tag)
		s, e, err := d.span()
		if err != nil {
			return err
		}
		r.ord = pd.ordKey(s, e)
		na, err := d.uvarint()
		if err != nil {
			return err
		}
		if na > 0 {
			start := len(pd.attrs)
			for i := 0; i < int(na); i++ {
				at, err := d.uvarint()
				if err != nil {
					return err
				}
				s, e, err := d.span()
				if err != nil {
					return err
				}
				pd.attrs = append(pd.attrs, attrRec{tag: xmltree.TagID(at), val: pd.str[s:e]})
			}
			r.attrs = pd.attrs[start:len(pd.attrs):len(pd.attrs)]
		}
	case RecText, RecComment, RecPI:
		s, e, err := d.span()
		if err != nil {
			return err
		}
		r.ord = pd.ordKey(s, e)
		s, e, err = d.span()
		if err != nil {
			return err
		}
		r.text = pd.str[s:e]
	case RecProxyChild:
		s, e, err := d.span()
		if err != nil {
			return err
		}
		r.ord = pd.ordKey(s, e)
		if d.i+8 > len(raw) {
			return fmt.Errorf("truncated proxy target")
		}
		r.target = NodeID(binary.LittleEndian.Uint64(raw[d.i:]))
	case RecProxyParent:
		if d.i+8 > len(raw) {
			return fmt.Errorf("truncated proxy target")
		}
		r.target = NodeID(binary.LittleEndian.Uint64(raw[d.i:]))
	default:
		return fmt.Errorf("unknown record kind %d", raw[off])
	}
	return nil
}

// sortKidsByOrd stably orders one child list by document-order key. Bulk
// load emits children in DFS order, so the list is almost always already
// sorted and the insertion sort runs in linear time; unlike sort.SliceStable
// it allocates nothing (no reflection-based swapper).
func sortKidsByOrd(recs []rec, kids []uint16) {
	for i := 1; i < len(kids); i++ {
		k := kids[i]
		ord := recs[k].ord
		j := i - 1
		for j >= 0 && ordpath.Compare(recs[kids[j]].ord, ord) > 0 {
			kids[j+1] = kids[j]
			j--
		}
		kids[j+1] = k
	}
}
