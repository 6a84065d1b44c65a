package storage

import (
	"errors"
	"fmt"
	"slices"

	"pathdb/internal/ordpath"
	"pathdb/internal/rng"
	"pathdb/internal/vdisk"
	"pathdb/internal/xmltree"
)

// Layout selects how clusters are mapped to physical page positions at
// import time. The paper deliberately supports arbitrary layouts (Sec. 1,
// Sec. 3.3): real databases accumulate fragmentation through incremental
// updates and space-saving import heuristics, which is exactly when
// cost-sensitive reordering pays off.
type Layout uint8

// Cluster-to-page layouts. LayoutNatural is the zero value and therefore
// the default everywhere.
const (
	// LayoutNatural models a realistically aged database: clusters keep
	// their time-of-creation (DFS) order, but a fraction of them —
	// NaturalDisplacedFraction — has been displaced to random positions by
	// a history of updates and space-reuse decisions (the situation the
	// paper's introduction describes). This is the default layout and the
	// one the paper-reproduction experiments use.
	LayoutNatural Layout = iota
	// LayoutContiguous places clusters in document (DFS) order — the best
	// case for the Simple plan (a freshly bulk-loaded database).
	LayoutContiguous
	// LayoutShuffled permutes cluster positions pseudo-randomly, modelling
	// heavy fragmentation.
	LayoutShuffled
	// LayoutReverse places clusters in reverse document order, an
	// adversarial but deterministic fragmentation.
	LayoutReverse
)

// NaturalDisplacedFraction is the share of clusters LayoutNatural moves
// away from their creation-order position.
const NaturalDisplacedFraction = 0.5

func (l Layout) String() string {
	switch l {
	case LayoutContiguous:
		return "contiguous"
	case LayoutShuffled:
		return "shuffled"
	case LayoutReverse:
		return "reverse"
	case LayoutNatural:
		return "natural"
	default:
		return fmt.Sprintf("layout(%d)", uint8(l))
	}
}

// ImportOptions configures Import.
type ImportOptions struct {
	PageSize      int    // bytes per page; default 8192
	Layout        Layout // cluster placement; default LayoutNatural
	Seed          uint64 // permutation seed for fragmented layouts
	MaxTextRecord int    // split text nodes longer than this; default 1024
}

func (o ImportOptions) withDefaults() ImportOptions {
	if o.PageSize == 0 {
		o.PageSize = 8192
	}
	if o.MaxTextRecord == 0 {
		o.MaxTextRecord = 1024
	}
	// A text record must always fit a fresh cluster alongside the page
	// header, a proxy-parent anchor and the spill headroom.
	if limit := o.PageSize/2 - 64; o.MaxTextRecord > limit {
		o.MaxTextRecord = limit
	}
	return o
}

// ErrRecordTooLarge is returned when a single node cannot fit in a page.
var ErrRecordTooLarge = errors.New("storage: record exceeds page capacity")

// proxyReserve is the headroom reserved per open element so that a
// continuation proxy can always be spilled into its cluster: an encoded
// proxy record (entry, key, 8-byte target) plus its slot entry. The proxy's
// key is one component below its parent element's, so 48 bytes covers any
// depth.
const proxyReserve = 48

// draftCluster is a cluster being assembled during partitioning.
type draftCluster struct {
	id       int
	recs     []rec
	used     int // encoded bytes incl. header and slot entries
	charged  int // clusterCharge of the records incl. slot entries, plus a 4-byte header
	reserved int // headroom claimed by open elements
	cap      int
	below    []xmltree.TagID // tags of the elements above its non-proxy records, repeats included
}

func (c *draftCluster) add(r rec) uint16 {
	var parent *rec
	if r.parent != noParent {
		parent = &c.recs[r.parent]
	}
	c.used += encodedSize(&r, parent) + 2
	c.charged += clusterCharge(&r) + 2
	c.recs = append(c.recs, r)
	return uint16(len(c.recs) - 1)
}

// clusterCharge is what r costs its cluster's budget when the bulk loader
// decides where to cut: the size r had in the uvarint record format, with
// LEB128 keys, that the virtual cost model and the paper's orderings are
// calibrated against (EXPERIMENTS.md: ≈1 270 clusters per factor-1
// document). Its key bytes are the components' LEB128 lengths, so no key
// code can move a cut. The page
// encoding is about an eighth denser; cutting by it instead would move
// every crossover (Q6' at the calibrated scale: Simple 501 ms would beat
// XScan 520 ms), so the loader cuts where that format filled a page, and
// the room left over is headroom for in-place inserts. A cut must fit the
// encoding too, which decides alone on documents the format handled worse.
func clusterCharge(r *rec) int {
	n := 1 + uvarintLen(uint64(r.parent+1))
	key := r.ord.LEB128Len()
	key += uvarintLen(uint64(key))
	switch r.kind {
	case RecElem:
		n += uvarintLen(uint64(r.tag)) + key + uvarintLen(uint64(len(r.attrs)))
		for _, a := range r.attrs {
			n += uvarintLen(uint64(a.tag)) + uvarintLen(uint64(len(a.val))) + len(a.val)
		}
	case RecText, RecComment, RecPI:
		n += key + uvarintLen(uint64(len(r.text))) + len(r.text)
	case RecProxyChild:
		n += key + 8
	case RecProxyParent:
		n += 8
	}
	return n
}

// write encodes the cluster onto page p and registers the written image's
// synopsis in syn at epoch 0.
func (c *draftCluster) write(disk *vdisk.Disk, p vdisk.PageID, syn *synTable) error {
	ps := disk.PageSize()
	payload, err := encodePage(&recPage{page: p, recs: c.recs}, ps)
	if err != nil {
		return err
	}
	raw := finalizePage(payload, ps)
	disk.Write(p, raw)
	var img pageImage
	if err := decodePage(&img, p, raw, ps); err != nil {
		return err
	}
	sy := synopsisOf(&img, 0)
	slices.Sort(c.below)
	sy.Below = slices.Clone(slices.Compact(c.below))
	syn.publish(p, sy)
	return nil
}

// proxyLink records a companion pair to be patched with real NodeIDs after
// layout: the records at (ca, sa) and (cb, sb) point at each other.
type proxyLink struct {
	ca, cb int
	sa, sb uint16
}

type importer struct {
	opts     ImportOptions
	clusters []*draftCluster
	links    []proxyLink
	cur      *draftCluster // active output cluster of the bulk load
	open     []openElem    // the elements being placed, outermost first
	syn      *synTable     // the written pages' synopses
}

// openElem is an element whose children are being placed: its tag and the
// last cluster a record below it was placed in (-1 for none yet).
type openElem struct {
	tag     xmltree.TagID
	cluster int
}

// placed notes a non-proxy record placed in cluster c: every open element
// joins c's Below. When an element was marked for c, so was every element
// enclosing it, so the walk stops at the first one already marked for c,
// which makes it amortised O(1) per record.
func (im *importer) placed(c *draftCluster) {
	for i := len(im.open) - 1; i >= 0 && im.open[i].cluster != c.id; i-- {
		im.open[i].cluster = c.id
		c.below = append(c.below, im.open[i].tag)
	}
}

func (im *importer) newCluster() *draftCluster {
	c := &draftCluster{id: len(im.clusters), used: pageHeaderSize, charged: 4, cap: usable(im.opts.PageSize)}
	im.clusters = append(im.clusters, c)
	return c
}

func (im *importer) linkProxies(ca int, sa uint16, cb int, sb uint16) {
	im.links = append(im.links, proxyLink{ca: ca, cb: cb, sa: sa, sb: sb})
}

// Import stores the logical document doc (whose tags are interned in dict)
// onto disk and returns an opened Store. The ledger is reset afterwards:
// the paper measures query cost, not load cost.
func Import(disk *vdisk.Disk, dict *xmltree.Dictionary, doc *xmltree.Node, opts ImportOptions) (*Store, error) {
	return ImportCollection(disk, dict, []*xmltree.Node{doc}, opts)
}

// ImportCollection stores several documents in one volume — the
// "collection of documents" XScan covers (Sec. 5.4.3): one scan serves
// paths over the whole collection. Documents get disjoint order-key
// ranges, so cross-document result sets still sort deterministically.
func ImportCollection(disk *vdisk.Disk, dict *xmltree.Dictionary, docs []*xmltree.Node, opts ImportOptions) (*Store, error) {
	if len(docs) == 0 {
		return nil, errors.New("storage: empty collection")
	}
	for _, doc := range docs {
		if doc.Kind != xmltree.Document {
			return nil, errors.New("storage: Import requires document nodes")
		}
	}
	if disk.NumPages() != 0 {
		return nil, errors.New("storage: Import requires an empty disk")
	}
	opts = opts.withDefaults()
	if opts.PageSize != disk.PageSize() {
		return nil, fmt.Errorf("storage: option page size %d != disk page size %d", opts.PageSize, disk.PageSize())
	}
	if opts.PageSize > MaxPageSize {
		return nil, fmt.Errorf("storage: page size %d exceeds the maximum of %d", opts.PageSize, MaxPageSize)
	}

	im := &importer{opts: opts, syn: newSynTable()}

	// Place one document record per member and walk each tree. Every
	// document starts its own cluster; multi-document volumes give each
	// member a distinct order-key prefix.
	type rootRef struct {
		cluster int
		slot    uint16
	}
	var rootRefs []rootRef
	for i, doc := range docs {
		base := ordpath.Root()
		if len(docs) > 1 {
			base = ordpath.Root().BulkChild(i)
		}
		if im.cur == nil {
			im.advance()
		}
		docSlot := im.cur.add(rec{kind: RecDoc, parent: noParent, ord: base})
		im.cur.reserved += proxyReserve
		attach := attachPoint{c: im.cur, slot: docSlot}
		rootRefs = append(rootRefs, rootRef{cluster: im.cur.id, slot: docSlot})
		if err := im.walkChildren(doc, &attach, base); err != nil {
			return nil, err
		}
		attach.c.reserved -= proxyReserve
	}

	// Layout: permute clusters onto physical pages.
	n := len(im.clusters)
	order := make([]int, n) // order[i] = cluster placed at data page i
	for i := range order {
		order[i] = i
	}
	switch opts.Layout {
	case LayoutShuffled:
		r := rng.New(opts.Seed ^ 0xD0C5EED)
		r.Shuffle(n, func(i, j int) { order[i], order[j] = order[j], order[i] })
	case LayoutReverse:
		for i, j := 0, n-1; i < j; i, j = i+1, j-1 {
			order[i], order[j] = order[j], order[i]
		}
	case LayoutNatural:
		// Displace a fraction of positions by permuting them among
		// themselves; the rest keep creation order.
		r := rng.New(opts.Seed ^ 0xFA6)
		var moved []int
		for i := 0; i < n; i++ {
			if r.Bool(NaturalDisplacedFraction) {
				moved = append(moved, i)
			}
		}
		perm := r.Perm(len(moved))
		orig := make([]int, len(moved))
		for i, pos := range moved {
			orig[i] = order[pos]
		}
		for i, pos := range moved {
			order[pos] = orig[perm[i]]
		}
	}
	// pageOf[clusterID] = physical data page.
	const firstData = 1 // page 0 is the meta page
	pageOf := make([]vdisk.PageID, n)
	for pos, cid := range order {
		pageOf[cid] = vdisk.PageID(firstData + pos)
	}

	// Patch proxy companion NodeIDs.
	for _, l := range im.links {
		im.clusters[l.ca].recs[l.sa].target = MakeNodeID(pageOf[l.cb], l.sb)
		im.clusters[l.cb].recs[l.sb].target = MakeNodeID(pageOf[l.ca], l.sa)
	}

	// Write pages: meta placeholder, data, dictionary, then the real meta.
	meta := disk.Alloc()
	for i := 0; i < n; i++ {
		if got := disk.Alloc(); got != vdisk.PageID(firstData+i) {
			return nil, fmt.Errorf("storage: unexpected page allocation %d", got)
		}
	}
	for pos, cid := range order {
		if err := im.clusters[cid].write(disk, vdisk.PageID(firstData+pos), im.syn); err != nil {
			return nil, err
		}
	}
	dictStart, dictCount := writeDictionary(disk, dict)
	roots := make([]NodeID, len(rootRefs))
	for i, rr := range rootRefs {
		roots[i] = MakeNodeID(pageOf[rr.cluster], rr.slot)
	}
	writeMeta(disk, meta, metaInfo{
		roots:     roots,
		firstData: firstData,
		nData:     uint32(n),
		dictStart: dictStart,
		dictCount: dictCount,
	})

	// Loading is free: the evaluation clock starts at zero.
	disk.Ledger().Reset()
	disk.ResetClockState()

	return newStore(disk, dict, roots, firstData, uint32(n), im.syn), nil
}

// The partitioner streams the document in DFS order into a single active
// cluster, opening a fresh one whenever the active cluster fills — the
// classic bulk-load cut that keeps pages densely packed. Each open element
// carries an *attach point*: the (cluster, slot) its next child physically
// hangs from. When the active cluster has moved on since the element last
// placed a child, a proxy pair re-anchors it: a ProxyChild at the old
// attach point and a ProxyParent fragment root in the active cluster.
// Every open element holds proxyReserve headroom in its attach cluster so
// the re-anchoring proxy always fits.
type attachPoint struct {
	c    *draftCluster
	slot uint16
}

// advance opens a fresh active cluster.
func (im *importer) advance() {
	im.cur = im.newCluster()
}

// walkChildren places every child of logical node n, whose record sits at
// the given attach point (which the children mutate as the stream moves
// on).
func (im *importer) walkChildren(n *xmltree.Node, attach *attachPoint, ord ordpath.Key) error {
	childIdx := 0
	for _, ch := range n.Children {
		recs, err := im.draftRecs(ch, ord, &childIdx)
		if err != nil {
			return err
		}
		for _, dr := range recs {
			if err := im.placeChild(attach, dr.r, dr.node); err != nil {
				return err
			}
		}
	}
	return nil
}

// placeChild stores one record as a child of *attach, advancing the active
// cluster and re-anchoring as needed, then recurses into element children.
func (im *importer) placeChild(attach *attachPoint, r rec, node *xmltree.Node) error {
	needsReserve := 0
	if r.kind == RecElem {
		needsReserve = proxyReserve
	}
	charge := clusterCharge(&r)
	advanced := false
	for {
		// Below its element the record's key is relative; below a
		// re-anchoring ProxyParent it is stored whole.
		extra, chargeExtra, sz := 0, 0, encodedSize(&r, &attach.c.recs[attach.slot])
		if attach.c != im.cur {
			// Re-anchoring adds a ProxyParent plus the migrated reserve.
			pp := &rec{kind: RecProxyParent, parent: noParent}
			extra = encodedSize(pp, nil) + 2 + proxyReserve
			chargeExtra = clusterCharge(pp) + 2 + proxyReserve
			sz = encodedSize(&r, nil)
		}
		c := im.cur
		if c.used+c.reserved+sz+2+needsReserve+extra <= c.cap &&
			c.charged+c.reserved+charge+2+needsReserve+chargeExtra <= c.cap {
			break
		}
		if advanced {
			return ErrRecordTooLarge
		}
		im.advance()
		advanced = true
	}
	if attach.c != im.cur {
		// Re-anchor: the element's reserve in the old cluster pays for the
		// ProxyChild; the reserve migrates to the active cluster.
		attach.c.reserved -= proxyReserve
		pcSlot := attach.c.add(rec{kind: RecProxyChild, parent: int(attach.slot), ord: r.ord})
		ppSlot := im.cur.add(rec{kind: RecProxyParent, parent: noParent})
		im.linkProxies(attach.c.id, pcSlot, im.cur.id, ppSlot)
		im.cur.reserved += proxyReserve
		attach.c, attach.slot = im.cur, ppSlot
	}
	r.parent = int(attach.slot)
	slot := im.cur.add(r)
	im.placed(im.cur)
	if r.kind == RecElem {
		im.cur.reserved += proxyReserve
		childAttach := attachPoint{c: im.cur, slot: slot}
		im.open = append(im.open, openElem{tag: r.tag, cluster: -1})
		if err := im.walkChildren(node, &childAttach, r.ord); err != nil {
			return err
		}
		im.open = im.open[:len(im.open)-1]
		childAttach.c.reserved -= proxyReserve
	}
	return nil
}

// draftRec pairs a prepared record with its logical node (nil for the
// synthetic continuation pieces of split text).
type draftRec struct {
	r    rec
	node *xmltree.Node
}

// draftRecs converts one logical child into one or more records (long text
// is split so every record fits a page).
func (im *importer) draftRecs(ch *xmltree.Node, parentOrd ordpath.Key, childIdx *int) ([]draftRec, error) {
	mk := func() ordpath.Key {
		k := parentOrd.BulkChild(*childIdx)
		*childIdx++
		return k
	}
	switch ch.Kind {
	case xmltree.Element:
		r := rec{kind: RecElem, tag: ch.Tag, ord: mk()}
		for _, a := range ch.Attrs {
			r.attrs = append(r.attrs, attrRec{tag: a.Tag, val: a.Text})
		}
		if encodedSize(&r, nil)+2+2*proxyReserve+pageHeaderSize+encodedSize(&rec{kind: RecProxyChild, parent: 0, ord: r.ord}, nil)+16 > usable(im.opts.PageSize) {
			return nil, fmt.Errorf("%w: element with %d attributes", ErrRecordTooLarge, len(ch.Attrs))
		}
		return []draftRec{{r: r, node: ch}}, nil
	case xmltree.Text, xmltree.Comment, xmltree.ProcInst:
		kind := map[xmltree.Kind]RecKind{
			xmltree.Text:     RecText,
			xmltree.Comment:  RecComment,
			xmltree.ProcInst: RecPI,
		}[ch.Kind]
		text := ch.Text
		var out []draftRec
		for first := true; first || len(text) > 0; first = false {
			chunk := text
			if len(chunk) > im.opts.MaxTextRecord {
				chunk = chunk[:im.opts.MaxTextRecord]
			}
			text = text[len(chunk):]
			out = append(out, draftRec{r: rec{kind: kind, text: chunk, ord: mk()}})
			if kind != RecText {
				break // only text is split; comments/PIs are capped by parse
			}
		}
		return out, nil
	case xmltree.Attribute:
		return nil, errors.New("storage: attribute in child list")
	default:
		return nil, fmt.Errorf("storage: cannot store %v node", ch.Kind)
	}
}
