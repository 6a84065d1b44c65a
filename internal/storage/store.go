package storage

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync/atomic"

	"pathdb/internal/buffer"
	"pathdb/internal/ordpath"
	"pathdb/internal/stats"
	"pathdb/internal/vdisk"
	"pathdb/internal/xmltree"
)

// Store provides access to one stored document: swizzling NodeIDs into
// directly navigable cursors, the intra-cluster navigation primitives, and
// the cluster-granular load interface used by the I/O operators.
//
// The read path is safe for concurrent use: the swizzle cache is
// load-once, the buffer manager and disk below are concurrency-safe, and
// page images are immutable once published. Cost accounting is scoped by
// *views*: Reader returns a shallow Store sharing every cache with the base
// but charging to its own ledger and routing async cluster requests through
// its own buffer waiter — the unit the engine hands each query. Mutating entry points (updates, SetBufferCapacity, ResetForRun)
// remain base-store, single-writer operations.
type Store struct {
	disk  *vdisk.Disk
	buf   *buffer.Manager
	dict  *xmltree.Dictionary
	led   *stats.Ledger
	model vdisk.CostModel

	rootID    NodeID
	roots     []NodeID // collection document roots (first == rootID)
	firstData uint32
	nData     uint32

	cache   *swizCache     // loaded page images, shared across views
	syn     *synTable      // per-cluster synopses, shared across views
	derived *DerivedCache  // epoch-keyed derived artifacts, shared across views
	w       *buffer.Waiter // async cluster requests of this view

	// Multi-version state. vh shares the latest published version across
	// all views; pinned fixes a snapshot view to one version (it takes
	// precedence); overlay exposes a write transaction's staged images to
	// its own reads. The swizzle cache and buffer pool are keyed by
	// *physical* page, so frames of different versions of the same logical
	// page coexist until the reclaimer discards the superseded ones.
	vh      *atomic.Pointer[VersionMap]
	pinned  *VersionMap
	overlay map[vdisk.PageID]*pageImage
	req     map[vdisk.PageID]vdisk.PageID // physical→logical for in-flight async requests

	ckptPages []vdisk.PageID // chain of the current checkpoint (base store)
	txnState  *TxnState      // recovered at Open or persisted by InitTxn
}

// DefaultBufferPages is the pool size used when none is configured; the
// paper's setup used a 1000-page buffer.
const DefaultBufferPages = 1000

// newStore opens a store over a volume whose page synopses registered so far
// are syn: an importer's, or an empty table for a volume Open recovered.
func newStore(disk *vdisk.Disk, dict *xmltree.Dictionary, roots []NodeID, firstData, nData uint32, syn *synTable) *Store {
	s := &Store{
		disk:      disk,
		buf:       buffer.New(disk, DefaultBufferPages),
		dict:      dict,
		led:       disk.Ledger(),
		model:     disk.Model(),
		rootID:    roots[0],
		roots:     roots,
		firstData: firstData,
		nData:     nData,
		cache:     newSwizCache(),
		syn:       syn,
		derived:   newDerivedCache(),
		vh:        new(atomic.Pointer[VersionMap]),
	}
	s.vh.Store(NewVersionMap(0, nil, nil))
	s.buf.SetEvictHandler(s.cache.drop)
	s.buf.SetVerifier(verifyPageTrailer)
	s.w = s.buf.NewWaiter(s.led)
	return s
}

// SetBufferCapacity replaces the buffer pool with one of the given
// capacity (base store only; must be called before navigation starts).
func (s *Store) SetBufferCapacity(pages int) {
	s.buf = buffer.New(s.disk, pages)
	s.buf.SetEvictHandler(s.cache.drop)
	s.buf.SetVerifier(verifyPageTrailer)
	s.cache.reset()
	s.w = s.buf.NewWaiter(s.led)
}

// Reader returns a read-only view of the store charging to led: same disk,
// buffer pool, swizzle cache and dictionary, but a private ledger and a
// private async-request waiter. The engine gives every query such
// a view, so gang members account CPU, I/O waits and counters separately
// while still sharing every physical cache (and each other's loaded
// pages). Views must not be used for updates or pool reconfiguration.
//
// The view is built field by field rather than by copying *s: req,
// ckptPages and txnState are assigned on the base store while views are
// being taken (a direct query requesting clusters, the first commit
// persisting the initial checkpoint, a later checkpoint), and a view needs
// none of them.
func (s *Store) Reader(led *stats.Ledger) *Store {
	return &Store{
		disk:      s.disk,
		buf:       s.buf,
		dict:      s.dict,
		led:       led,
		model:     s.model,
		rootID:    s.rootID,
		roots:     s.roots,
		firstData: s.firstData,
		nData:     s.nData,
		cache:     s.cache,
		syn:       s.syn,
		derived:   s.derived,
		w:         s.buf.NewWaiter(led),
		vh:        s.vh,
		pinned:    s.pinned,
		overlay:   s.overlay,
	}
}

// version returns the VersionMap this view resolves through: its pinned
// snapshot if it has one, else the latest published version.
func (s *Store) version() *VersionMap {
	if s.pinned != nil {
		return s.pinned
	}
	return s.vh.Load()
}

// resolve maps a logical page id to the physical page holding its bytes in
// this view's version.
func (s *Store) resolve(p vdisk.PageID) vdisk.PageID { return s.version().Resolve(p) }

// pageEpoch returns the write epoch of logical page p in this view's
// version (0 for never-written pages).
func (s *Store) pageEpoch(p vdisk.PageID) uint64 { return s.version().PageEpoch(p) }

// VersionEpoch returns the commit epoch of this view's version (0 for the
// initial version).
func (s *Store) VersionEpoch() uint64 { return s.version().Epoch() }

// WrittenSince calls fn for every logical page whose last-write epoch in
// this view's version is strictly greater than since. Used by the plan
// chooser's incremental statistics refresh.
func (s *Store) WrittenSince(since uint64, fn func(p vdisk.PageID, epoch uint64)) {
	s.version().WrittenSince(since, fn)
}

// WithSnapshot returns a read view pinned to version vm: every logical
// page resolves through vm for the view's whole lifetime, regardless of
// later commits. The txn manager hands these out to queries.
func (s *Store) WithSnapshot(vm *VersionMap, led *stats.Ledger) *Store {
	v := s.Reader(led)
	v.pinned = vm
	return v
}

// SnapshotView is Reader pinned to the latest published version — a
// consistent point-in-time view even while writers publish new versions.
func (s *Store) SnapshotView(led *stats.Ledger) *Store {
	return s.WithSnapshot(s.version(), led)
}

// PublishVersion atomically installs vm as the volume's latest version;
// all non-pinned views resolve through it from now on.
func (s *Store) PublishVersion(vm *VersionMap) { s.vh.Store(vm) }

// CurrentVersion returns the latest published version: the identity
// version at epoch 0 until a commit or a recovery replaces it.
func (s *Store) CurrentVersion() *VersionMap { return s.vh.Load() }

// WriteData finalizes payload (padding + checksum trailer) and writes it
// at physical page p — the copy-on-write staging write of the txn commit
// path. The page must be unreferenced by every live version.
func (s *Store) WriteData(p vdisk.PageID, payload []byte) {
	writePage(s.disk, p, payload)
}

// ZeroPage overwrites p with raw zeros (no checksum trailer, so the page
// reads back as invalid). Recycled pages must be zeroed before they are
// linked as preallocated log heads; see PageAlloc.
func (s *Store) ZeroPage(p vdisk.PageID) {
	s.disk.Write(p, make([]byte, s.disk.PageSize()))
}

// DropVersion evicts the superseded physical page p from the buffer pool
// and the swizzle cache before its slot is recycled. False when a frame is
// still pinned (transient; the reclaimer retries).
func (s *Store) DropVersion(p vdisk.PageID) bool {
	if !s.buf.Discard(p) {
		return false
	}
	s.cache.drop(p)
	return true
}

// Buffer exposes the buffer manager (for stats and tests).
func (s *Store) Buffer() *buffer.Manager { return s.buf }

// Disk exposes the underlying device.
func (s *Store) Disk() *vdisk.Disk { return s.disk }

// Dict returns the shared tag dictionary.
func (s *Store) Dict() *xmltree.Dictionary { return s.dict }

// Ledger returns the cost ledger.
func (s *Store) Ledger() *stats.Ledger { return s.led }

// Root returns the NodeID of the (first) document node.
func (s *Store) Root() NodeID { return s.rootID }

// Roots returns the document nodes of the stored collection, in collection
// order. Single-document volumes have exactly one.
func (s *Store) Roots() []NodeID { return s.roots }

// DataPages returns the physical range of the bulk-loaded document pages
// [first, first+n); pages appended by later updates are listed separately
// (NumDataPages / DataPage iterate over both).
func (s *Store) DataPages() (first vdisk.PageID, n int) {
	return vdisk.PageID(s.firstData), int(s.nData)
}

// NumDataPages returns the number of document pages including pages
// appended by updates, as of this view's version.
func (s *Store) NumDataPages() int { return int(s.nData) + len(s.version().Extras()) }

// DataPage returns the i-th document page in scan order: the bulk-loaded
// range first, then update extensions in allocation order. The returned id
// is logical; the read path resolves it to the version's physical page.
func (s *Store) DataPage(i int) vdisk.PageID {
	if i < int(s.nData) {
		return vdisk.PageID(s.firstData) + vdisk.PageID(i)
	}
	return s.version().Extras()[i-int(s.nData)]
}

// ClusterOf returns the cluster (page) a node belongs to, a pure NodeID
// computation (Sec. 3.3).
func ClusterOf(id NodeID) vdisk.PageID { return id.Page() }

// ResetForRun flushes the buffer pool, clears swizzled images and zeroes
// the ledger — each measured run starts cold, as in the paper's setup
// (O_DIRECT, distinct documents per run). Base store only; any Reader
// views and their queries must have finished.
func (s *Store) ResetForRun() {
	s.w.Cancel()
	s.buf.FlushAll()
	s.cache.reset()
	s.derived.reset()
	s.led.Reset()
	s.disk.ResetClockState()
}

// image returns the navigable (swizzled) image of a page, loading and
// validating it if necessary. The load charges one node visit per record
// slot — the representation change from external to in-memory format — to
// the ledger of the view that won the load race; concurrent losers block on
// the entry mutex and share the winner's image for free (they raced the same
// work, not skipped it). A failed load or validation escalates as a page
// fault (typed panic recovered at query boundaries) and leaves the entry
// empty, so a later access retries the load rather than inheriting the
// failure.
func (s *Store) image(p vdisk.PageID) *pageImage {
	if s.overlay != nil {
		if img, ok := s.overlay[p]; ok {
			return img
		}
	}
	// The cache is keyed by (logical page, write epoch) — the
	// version-independent name of these bytes — so snapshots at different
	// epochs share one image for every page the commits between them did
	// not touch, and a commit invalidates exactly the clusters it rewrote.
	// The buffer pool below stays keyed by the resolved *physical* page; the
	// image keeps the *logical* id, which is what NodeIDs embed.
	key := swizKey{page: p, epoch: s.pageEpoch(p)}
	e := s.cache.entry(key)
	if e.ready.Load() {
		return &e.img
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.ready.Load() {
		return &e.img
	}
	phys := s.resolve(p)
	f, err := s.buf.FixOn(s.led, phys)
	if err != nil {
		throwPageError(p, err)
	}
	err = decodePage(&e.img, p, f.Data, s.disk.PageSize())
	s.buf.Unfix(f)
	if err != nil {
		throwPageError(p, err) // malformed records: corruption past the checksum
	}
	s.led.AdvanceCPU(stats.Ticks(e.img.nslots) * s.model.CPUNodeVisit)
	e.ready.Store(true)
	s.cache.track(phys, key)
	return &e.img
}

// LoadCluster ensures a cluster is buffered and its image loaded, reading it
// synchronously if absent. XScan calls this in ascending physical order,
// which the disk detects as a sequential pattern.
func (s *Store) LoadCluster(p vdisk.PageID) { s.image(p) }

// BordersOf lists the NodeIDs of all border (proxy) records in a cluster, in
// slot order — the seeds of XScan's speculative instances (Sec. 5.4.3.2).
// The cluster must already be loaded. The returned slice is the image's,
// materialized once per load and shared by every caller — callers must not
// mutate it.
func (s *Store) BordersOf(p vdisk.PageID) []NodeID {
	return s.image(p).borderIDs
}

// Loaded reports whether the page is present in the buffer pool.
func (s *Store) Loaded(p vdisk.PageID) bool { return s.buf.Contains(s.resolve(p)) }

// RequestCluster schedules an asynchronous load of a cluster (XSchedule's
// interface to the I/O subsystem) on this view's waiter. The request is
// issued for the version-resolved physical page; WaitCluster translates
// completions back so operators keep reasoning in logical cluster ids. A
// page back at its own number forgets the logical page an earlier version
// kept there: WaitCluster would hand that one out instead.
func (s *Store) RequestCluster(p vdisk.PageID) {
	phys := s.resolve(p)
	if phys != p {
		if s.req == nil {
			s.req = map[vdisk.PageID]vdisk.PageID{}
		}
		s.req[phys] = p
	} else if s.req != nil {
		delete(s.req, phys)
	}
	s.w.Request(phys)
}

// WaitCluster blocks until some cluster requested through this view is
// loaded and returns it. Other views' requests neither wake this one nor
// are consumed by it — the completion fanout that keeps parallel gang
// members from stealing each other's wakeups. A page whose load failed
// terminally escalates as a page fault (typed panic recovered at query
// boundaries).
func (s *Store) WaitCluster() (vdisk.PageID, bool) {
	p, ok, err := s.w.WaitLoaded()
	if err != nil {
		throwPageError(p, err)
	}
	if ok && s.req != nil {
		if logical, hit := s.req[p]; hit {
			p = logical
		}
	}
	return p, ok
}

// CancelRequests abandons this view's outstanding cluster requests. A
// cancelled query's plan leaves its prefetches with the I/O subsystem; the
// engine calls this so they cannot surface later, while requests shared
// with other views stay in flight for them.
func (s *Store) CancelRequests() { s.w.Cancel() }

// Cursor is a swizzled node reference: a position in a page image, so
// navigation between cursors on the same page costs no buffer-manager
// interaction (Sec. 5.3.2.3).
type Cursor struct {
	st   *Store
	img  *pageImage
	page vdisk.PageID
	pos  uint16  // pre-order position in img
	kind RecKind // the record's, read where the cursor was made
	attr int     // -1 for the record itself, else attribute index
}

// Swizzle converts a NodeID into a Cursor, charging the swizzle cost
// (buffer lookup, translation); the cluster is loaded synchronously if it
// is not resident.
func (s *Store) Swizzle(id NodeID) Cursor {
	stats.Inc(&s.led.Swizzles)
	s.led.AdvanceCPU(s.model.CPUSwizzle)
	img := s.image(id.Page())
	p, ok := img.posOf(id.Slot())
	if !ok {
		panic(fmt.Sprintf("storage: swizzle of invalid slot %v", id))
	}
	attr := -1
	if i, ok := id.AttrIndex(); ok {
		attr = i
	}
	return img.cursor(s, p, attr)
}

// Unswizzle converts a Cursor back into a NodeID (cheap).
func (c Cursor) Unswizzle() NodeID {
	stats.Inc(&c.st.led.Unswizzles)
	c.st.led.AdvanceCPU(c.st.model.CPUUnswizzle)
	return c.ID()
}

// ID returns the cursor's NodeID without charging unswizzle cost (for
// assertions and tests).
func (c Cursor) ID() NodeID {
	id := MakeNodeID(c.page, c.slot())
	if c.attr >= 0 {
		id = id.WithAttr(c.attr)
	}
	return id
}

func (c Cursor) slot() uint16 { return c.img.slotOf(int(c.pos)) }

// at returns the cursor on position p of c's page.
func (c Cursor) at(p int) Cursor { return c.img.cursor(c.st, p, -1) }

// Valid reports whether the cursor references a node.
func (c Cursor) Valid() bool { return c.st != nil }

// IsBorder reports whether the cursor references a border (proxy) node.
func (c Cursor) IsBorder() bool { return c.attr < 0 && c.kind.IsProxy() }

// RecKind returns the physical record kind.
func (c Cursor) RecKind() RecKind {
	if c.attr >= 0 {
		return RecElem // attribute of an element record
	}
	return c.kind
}

// Kind returns the logical node kind; panics on border nodes.
func (c Cursor) Kind() xmltree.Kind {
	if c.attr >= 0 {
		return xmltree.Attribute
	}
	return c.kind.LogicalKind()
}

// Tag returns the element or attribute tag.
func (c Cursor) Tag() xmltree.TagID {
	if c.attr >= 0 {
		t, _ := c.img.attr(int(c.pos), c.attr)
		return t
	}
	return c.img.tag(int(c.pos))
}

// Text returns text/comment/PI content or the attribute value.
func (c Cursor) Text() string {
	if c.attr >= 0 {
		_, v := c.img.attr(int(c.pos), c.attr)
		return v
	}
	switch c.kind {
	case RecText, RecComment, RecPI:
		return c.img.text(int(c.pos))
	}
	return ""
}

// OrdKey returns the document-order key of the node. Attribute nodes share
// their element's key; proxy anchors return nil.
func (c Cursor) OrdKey() ordpath.Key { return c.img.key(int(c.pos)) }

// Target returns the companion NodeID of a border node (the paper's
// target() operation). It panics on core nodes.
func (c Cursor) Target() NodeID {
	if !c.kind.IsProxy() {
		panic("storage: Target on a core node")
	}
	return c.img.target(int(c.pos))
}

// AttrCount returns the number of attributes on an element.
func (c Cursor) AttrCount() int {
	if c.kind != RecElem {
		return 0
	}
	n := 0
	for b := c.img.body(int(c.pos)); len(b) > 0; n++ {
		_, _, b = nextAttr(b)
	}
	return n
}

// StringValue computes the XPath string-value of a node: the attribute
// value, the text content, or — for elements and documents — the
// concatenated descendant text, crossing cluster borders as needed.
func (s *Store) StringValue(id NodeID) string {
	return string(s.AppendStringValue(nil, id))
}

// AppendStringValue appends the node's string-value to buf: a walk over the
// records of the page images, with no tree built and — given a
// buffer with room — no allocation. It swizzles exactly the nodes an export
// of the subtree would (the root once more, then every proxy target), so it
// is charged what that export was.
func (s *Store) AppendStringValue(buf []byte, id NodeID) []byte {
	c := s.Swizzle(id)
	switch c.Kind() {
	case xmltree.Attribute, xmltree.Text, xmltree.Comment, xmltree.ProcInst:
		return append(buf, c.Text()...)
	}
	return s.appendText(buf, s.Swizzle(id))
}

// appendText appends the text of c's logical descendants in document order,
// following proxy chains exactly as exportChildren does.
func (s *Store) appendText(buf []byte, c Cursor) []byte {
	img := c.img
	for k, e := int(c.pos)+1, img.end(int(c.pos)); k < e; k++ {
		switch img.kind(k) {
		case RecProxyChild:
			buf = s.appendText(buf, s.Swizzle(img.target(k))) // the ProxyParent anchor
		case RecText:
			buf = append(buf, img.body(k)...)
		}
	}
	return buf
}

// --- persistence -----------------------------------------------------------

// metaMagic names the volume format; it changes with the page layout.
const metaMagic = "PATHDB3\x00"

// ErrVolumeFormat is returned by Open for a device that does not hold a
// volume of this format: garbage, or a volume written with an older page
// layout (volumes live in memory, so none is migrated).
var ErrVolumeFormat = errors.New("storage: not a volume of this format")

type metaInfo struct {
	roots     []NodeID // collection document roots
	firstData uint32
	nData     uint32
	dictStart uint32
	dictCount uint32
	walPage   vdisk.PageID // reserved, must be zero (Open refuses anything else)
	dirCount  uint32       // reserved, must be zero: the count word of a retired page directory
	ckptPage  vdisk.PageID // transaction checkpoint chain head (0 = none)
}

func writeMeta(disk *vdisk.Disk, page vdisk.PageID, m metaInfo) {
	buf := make([]byte, 8+4*5+4+4+8*len(m.roots)+4)
	copy(buf, metaMagic)
	binary.LittleEndian.PutUint32(buf[8:], m.firstData)
	binary.LittleEndian.PutUint32(buf[12:], m.nData)
	binary.LittleEndian.PutUint32(buf[16:], m.dictStart)
	binary.LittleEndian.PutUint32(buf[20:], m.dictCount)
	binary.LittleEndian.PutUint32(buf[24:], uint32(m.walPage))
	binary.LittleEndian.PutUint32(buf[28:], m.dirCount)
	off := 32
	binary.LittleEndian.PutUint32(buf[off:], uint32(len(m.roots)))
	off += 4
	for _, r := range m.roots {
		binary.LittleEndian.PutUint64(buf[off:], uint64(r))
		off += 8
	}
	// Trailing fields (added after v0 volumes; zero-padding makes their
	// absence read back as zero): the checkpoint chain head.
	binary.LittleEndian.PutUint32(buf[off:], uint32(m.ckptPage))
	if len(buf) > usable(disk.PageSize()) {
		panic("storage: meta page overflow (too many roots)")
	}
	writePage(disk, page, buf)
}

func readMeta(disk *vdisk.Disk) (metaInfo, error) {
	buf := make([]byte, disk.PageSize())
	if err := readPageVerified(disk, 0, buf); err != nil {
		return metaInfo{}, fmt.Errorf("storage: meta page unreadable: %w", err)
	}
	if string(buf[:8]) != metaMagic {
		return metaInfo{}, fmt.Errorf("%w: magic %q", ErrVolumeFormat, buf[:8])
	}
	m := metaInfo{
		firstData: binary.LittleEndian.Uint32(buf[8:]),
		nData:     binary.LittleEndian.Uint32(buf[12:]),
		dictStart: binary.LittleEndian.Uint32(buf[16:]),
		dictCount: binary.LittleEndian.Uint32(buf[20:]),
		walPage:   vdisk.PageID(binary.LittleEndian.Uint32(buf[24:])),
		dirCount:  binary.LittleEndian.Uint32(buf[28:]),
	}
	off := 32
	nRoots := binary.LittleEndian.Uint32(buf[off:])
	off += 4
	for i := uint32(0); i < nRoots; i++ {
		m.roots = append(m.roots, NodeID(binary.LittleEndian.Uint64(buf[off:])))
		off += 8
	}
	if off+4 <= len(buf) {
		m.ckptPage = vdisk.PageID(binary.LittleEndian.Uint32(buf[off:]))
	}
	if len(m.roots) == 0 {
		return metaInfo{}, errors.New("storage: volume has no document roots")
	}
	return m, nil
}

// writeDictionary appends the tag dictionary after the data pages as a
// length-prefixed name list spanning as many pages as needed.
func writeDictionary(disk *vdisk.Disk, dict *xmltree.Dictionary) (start, count uint32) {
	var payload []byte
	payload = appendUvarint(payload, uint64(dict.Len()))
	for i := 0; i < dict.Len(); i++ {
		payload = appendString(payload, dict.Name(xmltree.TagID(i)))
	}
	ps := usable(disk.PageSize())
	first := vdisk.PageID(disk.NumPages())
	n := 0
	for off := 0; off < len(payload) || n == 0; off += ps {
		p := disk.Alloc()
		end := off + ps
		if end > len(payload) {
			end = len(payload)
		}
		writePage(disk, p, payload[off:end])
		n++
	}
	return uint32(first), uint32(n)
}

func readDictionary(disk *vdisk.Disk, start, count uint32) (*xmltree.Dictionary, error) {
	ps := disk.PageSize()
	payload := make([]byte, 0, int(count)*usable(ps))
	buf := make([]byte, ps)
	for i := uint32(0); i < count; i++ {
		if err := readPageVerified(disk, vdisk.PageID(start+i), buf); err != nil {
			return nil, fmt.Errorf("storage: dictionary page %d unreadable: %w", start+i, err)
		}
		payload = append(payload, buf[:usable(ps)]...)
	}
	d := &decodeCursor{b: payload}
	dict := xmltree.NewDictionary()
	for n := d.uvarint(); n > 0 && d.err == nil; n-- {
		if s, e := d.span(); d.err == nil {
			dict.Intern(string(payload[s:e]))
		}
	}
	if d.err != nil {
		return nil, fmt.Errorf("storage: dictionary entry %d: %w", dict.Len(), d.err)
	}
	return dict, nil
}

// Open attaches to a previously imported volume, reconstructing the
// dictionary from disk and replaying the transactional redo log (checkpoint
// + commit-group chains; crash recovery), whose folded state is persisted
// as a fresh checkpoint and published as the volume's current version. The
// ledger is reset afterwards.
func Open(disk *vdisk.Disk) (*Store, error) {
	m, err := readMeta(disk)
	if err != nil {
		return nil, err
	}
	if m.walPage != 0 || m.dirCount != 0 {
		return nil, fmt.Errorf("storage: meta page's reserved fields are %d and %d, want 0: not a volume this version can recover", m.walPage, m.dirCount)
	}
	st, err := recoverTxn(disk, &m)
	if err != nil {
		return nil, err
	}
	dict, err := readDictionary(disk, m.dictStart, m.dictCount)
	if err != nil {
		return nil, err
	}
	s := newStore(disk, dict, m.roots, m.firstData, m.nData, newSynTable())
	if st != nil {
		// Fold the replayed groups into a fresh checkpoint so the next
		// crash recovers from here, and publish the recovered version.
		_, next, cerr := s.WriteCheckpoint(*st, s.disk.Alloc)
		if cerr != nil {
			return nil, cerr
		}
		st.LogHead = next
		s.txnState = st
		s.PublishVersion(st.Version())
	}
	disk.Ledger().Reset()
	disk.ResetClockState()
	return s, nil
}

var (
	errTruncated = errors.New("truncated field")
	errOverflow  = errors.New("uvarint overflow")
)

// decodeCursor reads untrusted bytes. Its error is sticky: the first failed
// read parks the cursor at the end of the buffer, every later read yields
// zero, and callers check err once per record rather than once per field.
type decodeCursor struct {
	b   []byte
	i   int
	err error
}

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
