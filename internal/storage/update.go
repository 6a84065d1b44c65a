package storage

import (
	"errors"
	"fmt"

	"pathdb/internal/ordpath"
	"pathdb/internal/stats"
	"pathdb/internal/vdisk"
	"pathdb/internal/xmltree"
)

// This file implements incremental updates — the capability the paper
// holds against scan-order storage formats (Sec. 2: preorder numbering
// and enforced physical order "are difficult to maintain during
// updates"). Our format needs neither: document order lives in
// ORDPATH-style keys with insertion gaps, and clusters may sit anywhere
// on disk, so an insert touches only the affected page (plus fresh pages
// for overflow) and never relabels or moves existing nodes.
//
// Updates deliberately create the fragmentation the paper's introduction
// describes: overflow clusters are appended at the end of the volume, far
// from their logical neighbours — exactly the situation in which
// cost-sensitive reordering beats encounter-order navigation.

// Update errors.
var (
	ErrNotElement = errors.New("storage: target is not an element or document node")
	ErrNotChild   = errors.New("storage: 'before' node is not a child of the parent")
	ErrIsRoot     = errors.New("storage: cannot delete the document node or root element anchor")
	ErrGone       = errors.New("storage: target node was deleted")
)

// swizzleTarget resolves a caller-supplied handle for an update: a slot
// that an earlier delete emptied or compacted away means the handle is
// merely stale, so it reports ErrGone instead of the panic Swizzle reserves
// for genuinely impossible ids.
func (s *Store) swizzleTarget(id NodeID) (Cursor, error) {
	stats.Inc(&s.led.Swizzles)
	s.led.AdvanceCPU(s.model.CPUSwizzle)
	img := s.image(id.Page())
	p, ok := img.posOf(id.Slot())
	if !ok {
		return Cursor{}, ErrGone
	}
	attr := -1
	if i, ok := id.AttrIndex(); ok {
		attr = i
	}
	return img.cursor(s, p, attr), nil
}

// insertSubtreeWith stages the insert of the logical fragment (an element,
// text, comment or PI node, with its subtree) as a new child of parent into
// u, and returns the NodeID of the new node. With before == InvalidNodeID
// the fragment is appended after the last child; otherwise it is inserted
// immediately before that child. Reads go through s, a snapshot view with
// the transaction's staging overlay (see writetxn.go).
func (s *Store) insertSubtreeWith(u *updater, parent NodeID, before NodeID, frag *xmltree.Node) (NodeID, error) {
	if _, isAttr := parent.AttrIndex(); isAttr {
		return InvalidNodeID, ErrNotElement
	}
	pc, err := s.swizzleTarget(parent)
	if err != nil {
		return InvalidNodeID, err
	}
	if k := pc.kind; k != RecElem && k != RecDoc {
		return InvalidNodeID, ErrNotElement
	}
	ord, err := s.insertionOrd(pc, before)
	if err != nil {
		return InvalidNodeID, err
	}

	// Physical placement: under `before`'s physical parent when given
	// (keeps the record next to its siblings), else under the parent
	// record itself. The ord key alone determines logical position.
	place := pc
	if before != InvalidNodeID {
		bc, err := s.swizzleTarget(before)
		if err != nil {
			return InvalidNodeID, err
		}
		place = bc.at(bc.img.parent(int(bc.pos)))
	}
	return u.placeSubtree(s.Swizzle(place.ID()), frag, ord)
}

// deleteSubtreeWith stages the removal of the node and its entire subtree,
// across clusters, into u. Deleting the document node or the root element
// is rejected.
func (s *Store) deleteSubtreeWith(u *updater, id NodeID) error {
	c, err := s.swizzleTarget(id)
	if err != nil {
		return err
	}
	if k := c.kind; k == RecDoc || k.IsProxy() {
		return ErrIsRoot
	}
	lp := u.live(c.page)
	slot := c.slot()
	parent := lp.img.recs[slot].parent
	u.deleteRec(lp, slot)
	// If the physical parent was a ProxyParent that just lost its only
	// fragment, collapse the whole proxy pair.
	u.collapseAnchors(lp, uint16(parent))
	return nil
}

// insertionOrd computes the document-order key for the new node: strictly
// between its logical neighbours, never relabeling anything.
func (s *Store) insertionOrd(parent Cursor, before NodeID) (ordpath.Key, error) {
	if before == InvalidNodeID {
		// Append: after the last logical child, which may live across a
		// chain of proxies.
		last, ok := parent.lastChild()
		if !ok {
			return parent.OrdKey().BulkChild(0), nil
		}
		return ordpath.After(s.lastOrdUnder(last)), nil
	}

	bc := s.Swizzle(before)
	right := bc.OrdKey()
	if len(right) == 0 {
		return nil, ErrNotChild
	}
	left, err := s.logicalLeftOrd(bc)
	if err != nil {
		return nil, err
	}
	if left == nil {
		left = parent.OrdKey() // first child: a new one below the parent, before right
	}
	return ordpath.Between(left, right), nil
}

// lastOrdUnder resolves the ord key of the last logical node in sibling
// order reachable from child entry c: for a ProxyChild, the far fragment's
// last member; for core records, the record itself.
func (s *Store) lastOrdUnder(c Cursor) ordpath.Key {
	for c.kind == RecProxyChild {
		last, ok := s.Swizzle(c.Target()).lastChild() // below the ProxyParent anchor
		if !ok {
			return c.OrdKey() // degenerate empty fragment
		}
		c = last
	}
	return c.OrdKey()
}

// lastChild returns the last physical child of c, false if it has none.
func (c Cursor) lastChild() (Cursor, bool) {
	last := -1
	for k, e := int(c.pos)+1, c.img.end(int(c.pos)); k < e; k = c.img.end(k) {
		last = k
	}
	if last < 0 {
		return Cursor{}, false
	}
	return c.at(last), true
}

// logicalLeftOrd finds the ord key of the node immediately preceding c in
// its parent's child order, following proxy chains; nil if c is the first
// child.
func (s *Store) logicalLeftOrd(c Cursor) (ordpath.Key, error) {
	for {
		img, p := c.img, int(c.pos)
		par := img.parent(p)
		if par == noParent {
			return nil, ErrNotChild
		}
		left := -1
		for k := par + 1; k < p; k = img.end(k) {
			left = k
		}
		if left >= 0 {
			return c.st.lastOrdUnder(c.at(left)), nil
		}
		// First in this physical segment: if anchored by a ProxyParent,
		// the logical predecessor lives before the companion ProxyChild.
		if img.kind(par) != RecProxyParent {
			return nil, nil // genuinely the first child
		}
		c = c.st.Swizzle(img.target(par))
	}
}

// --- updater ----------------------------------------------------------------

// updater batches the page mutations of one transaction; stage hands the
// dirty pages to the commit as a write set.
type updater struct {
	st    *Store
	pages map[vdisk.PageID]*livePage
	fresh []vdisk.PageID
}

type livePage struct {
	page     vdisk.PageID
	img      *recPage
	used     int
	reserved int // spill headroom claimed by open elements (importer protocol)
	dirty    bool
	isNew    bool
}

func newUpdater(s *Store) *updater {
	return &updater{st: s, pages: map[vdisk.PageID]*livePage{}}
}

// live returns the mutable view of page p: the page image expanded into
// private fat records.
func (u *updater) live(p vdisk.PageID) *livePage {
	if lp, ok := u.pages[p]; ok {
		return lp
	}
	cp := u.st.image(p).expand()
	lp := &livePage{page: p, img: cp, used: pageUsage(cp)}
	u.pages[p] = lp
	return lp
}

// freshPage allocates a new, empty data page at the end of the volume.
func (u *updater) freshPage() *livePage {
	p := u.st.disk.Alloc()
	lp := &livePage{
		page:  p,
		img:   &recPage{page: p},
		used:  pageHeaderSize,
		dirty: true,
		isNew: true,
	}
	u.pages[p] = lp
	u.fresh = append(u.fresh, p)
	return lp
}

// fits reports whether a record of sz bytes (plus slot entry) fits beside
// the claimed headroom, within the page's usable (checksummed) region.
func (lp *livePage) fits(sz int, pageSize int) bool {
	return lp.used+lp.reserved+sz+2 <= usable(pageSize)
}

// addRec stores r, reusing a dead slot when possible.
func (u *updater) addRec(lp *livePage, r rec) uint16 {
	sz := encodedSize(&r, lp.img.parentOf(&r))
	for i := range lp.img.recs {
		if lp.img.recs[i].dead {
			lp.img.recs[i] = r
			lp.used += sz // slot entry already accounted
			lp.dirty = true
			u.linkChild(lp, uint16(i), r.parent)
			return uint16(i)
		}
	}
	lp.img.recs = append(lp.img.recs, r)
	lp.used += sz + 2
	lp.dirty = true
	slot := uint16(len(lp.img.recs) - 1)
	u.linkChild(lp, slot, r.parent)
	return slot
}

// linkChild inserts slot into its parent's children list, ord-ordered.
func (u *updater) linkChild(lp *livePage, slot uint16, parent int) {
	if parent == noParent {
		return
	}
	p := &lp.img.recs[parent]
	ord := lp.img.recs[slot].ord
	pos := len(p.children)
	for i, k := range p.children {
		if ordpath.Compare(ord, lp.img.recs[k].ord) < 0 {
			pos = i
			break
		}
	}
	p.children = append(p.children, 0)
	copy(p.children[pos+1:], p.children[pos:])
	p.children[pos] = slot
}

// placeSubtree stores the logical fragment with root ord `ord` as a child
// of the record at parent, overflowing to fresh pages through proxy pairs.
// It follows the importer's reserve protocol so every open element can
// always afford a continuation proxy.
func (u *updater) placeSubtree(parent Cursor, frag *xmltree.Node, ord ordpath.Key) (NodeID, error) {
	r, err := draftRecFor(frag, ord)
	if err != nil {
		return InvalidNodeID, err
	}
	// Placement must follow the same route enumeration takes: if the new
	// key falls after a ProxyChild entry, it belongs inside that entry's
	// fragment, not beside it — otherwise fragment key ranges would
	// overlap and streamed sibling order would break.
	lp, parentSlot := u.descendToFragment(parent, ord)
	cur, slot, err := u.placeRec(lp, parentSlot, r)
	if err != nil {
		return InvalidNodeID, err
	}
	id := MakeNodeID(cur.page, slot)
	if frag.Kind == xmltree.Element {
		cur.reserved += proxyReserve
		final, err := u.placeChildren(cur, slot, frag.Children, ord)
		if err != nil {
			return InvalidNodeID, err
		}
		final.reserved -= proxyReserve
	}
	return id, nil
}

// descendToFragment follows ProxyChild entries whose key range covers ord,
// returning the page and parent slot the new record must physically join.
// The hops only read, so they walk the view's compact images — which show
// this transaction's earlier edits, the overlay being refreshed after every
// operation — and only the page the record lands in is made live: a
// representation change is paid for the cluster one works in (Sec. 3.6),
// not for every continuation page of a long child list on the way to it.
func (u *updater) descendToFragment(parent Cursor, ord ordpath.Key) (*livePage, uint16) {
	img, p := parent.img, int(parent.pos)
	for {
		prev := -1
		for k, e := p+1, img.end(p); k < e; k = img.end(k) {
			if ordpath.Compare(img.key(k), ord) >= 0 {
				break
			}
			prev = k
		}
		if prev < 0 || img.kind(prev) != RecProxyChild {
			return u.live(img.page), img.slotOf(p)
		}
		target := img.target(prev)
		img = u.st.image(target.Page())
		p, _ = img.posOf(target.Slot())
	}
}

// placeChildren stores the children of an open element whose record lives
// at (c, ps), switching to continuation pages on overflow (the spill case
// consumes and re-establishes the element's reserve). It returns the page
// holding the element's reserve at the end.
func (u *updater) placeChildren(c *livePage, ps uint16, children []*xmltree.Node, ord ordpath.Key) (*livePage, error) {
	cur, curPS := c, ps
	for i, ch := range children {
		r, err := draftRecFor(ch, ord.BulkChild(i))
		if err != nil {
			return cur, err
		}
		next, slot, err := u.placeRecSpilling(&cur, &curPS, r)
		if err != nil {
			return cur, err
		}
		if ch.Kind == xmltree.Element {
			next.reserved += proxyReserve
			final, err := u.placeChildren(next, slot, ch.Children, r.ord)
			if err != nil {
				return cur, err
			}
			final.reserved -= proxyReserve
		}
	}
	return cur, nil
}

// placeRec stores r under (lp, parentSlot), using a dedicated proxy pair
// to a fresh page when it does not fit. It returns the page and slot the
// record landed in.
func (u *updater) placeRec(lp *livePage, parentSlot uint16, r rec) (*livePage, uint16, error) {
	ps := u.st.disk.PageSize()
	needsReserve := 0
	if r.kind == RecElem {
		needsReserve = proxyReserve
	}
	parent := &lp.img.recs[parentSlot]
	if lp.fits(encodedSize(&r, parent)+needsReserve, ps) {
		r.parent = int(parentSlot)
		return lp, u.addRec(lp, r), nil
	}
	proxySz := encodedSize(&rec{kind: RecProxyChild, parent: int(parentSlot), ord: r.ord}, parent)
	if !lp.fits(proxySz, ps) && !u.makeRoom(lp, proxySz, parentSlot) {
		return nil, 0, fmt.Errorf("%w: page %d full", ErrRecordTooLarge, lp.page)
	}
	// Below the far page's ProxyParent the key is stored whole.
	sz := encodedSize(&r, nil) + needsReserve
	far, ppSlot := u.proxyPair(lp, parentSlot, r.ord, sz)
	if !far.fits(sz, ps) {
		return nil, 0, ErrRecordTooLarge
	}
	r.parent = int(ppSlot)
	return far, u.addRec(far, r), nil
}

// placeRecSpilling is placeRec for a sibling sequence: when not even a
// dedicated proxy fits, the open element's reserve pays for a continuation
// proxy and all following siblings move to the fresh page (*cur/*curPS are
// redirected).
func (u *updater) placeRecSpilling(cur **livePage, curPS *uint16, r rec) (*livePage, uint16, error) {
	ps := u.st.disk.PageSize()
	lp := *cur
	needsReserve := 0
	if r.kind == RecElem {
		needsReserve = proxyReserve
	}
	parent := &lp.img.recs[*curPS]
	proxySz := encodedSize(&rec{kind: RecProxyChild, parent: int(*curPS), ord: r.ord}, parent)
	sz := encodedSize(&r, nil) // the size on a far page, below its ProxyParent
	switch {
	case lp.fits(encodedSize(&r, parent)+needsReserve, ps):
		r.parent = int(*curPS)
		return lp, u.addRec(lp, r), nil
	case lp.fits(proxySz, ps):
		// Dedicated proxy: later siblings retry the current page.
		far, ppSlot := u.proxyPair(lp, *curPS, r.ord, sz+needsReserve)
		if !far.fits(sz+needsReserve, ps) {
			return nil, 0, ErrRecordTooLarge
		}
		r.parent = int(ppSlot)
		return far, u.addRec(far, r), nil
	default:
		// Spill: the open element's reserve funds the continuation.
		lp.reserved -= proxyReserve
		far, ppSlot := u.proxyPair(lp, *curPS, r.ord, sz+needsReserve+proxyReserve)
		far.reserved += proxyReserve
		*cur, *curPS = far, ppSlot
		if !far.fits(sz+needsReserve, ps) {
			return nil, 0, ErrRecordTooLarge
		}
		r.parent = int(ppSlot)
		return far, u.addRec(far, r), nil
	}
}

// makeRoom frees at least `need` bytes in lp by moving local subtrees to
// overflow pages behind proxy pairs — the slotted-page equivalent of a
// page split. Two candidate shapes are tried: whole subtrees (cheapest
// proxy per byte freed), and, when every subtree contains the protected
// slot, the tail of some record's child list behind a single continuation
// proxy (which handles pages saturated with proxies). Moved nodes get new
// NodeIDs; their old position holds the proxy, so navigation stays
// correct. Subtrees containing avoid are never moved (it anchors the
// in-flight insertion). Reports whether enough space was freed.
func (u *updater) makeRoom(lp *livePage, need int, avoid uint16) bool {
	ps := u.st.disk.PageSize()
	maxMove := usable(ps) - pageHeaderSize - 64 // must fit one overflow page
	for !lp.fits(need, ps) {
		if u.moveBestSubtree(lp, avoid, maxMove) {
			continue
		}
		if u.splitTail(lp, avoid, maxMove) {
			continue
		}
		return false
	}
	return true
}

// localSubtree collects the slots of the page-local subtree rooted at
// slot, in preorder, plus its total record bytes once moved: the root's
// key stored whole, below a ProxyParent. ok is false when the subtree
// contains the avoid slot (pass noPos for "no avoid").
func localSubtree(img *recPage, slot, avoid uint16) (members []uint16, bytes int, ok bool) {
	stack := []uint16{slot}
	for len(stack) > 0 {
		s := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if s == avoid {
			return nil, 0, false
		}
		members = append(members, s)
		if s == slot {
			bytes += encodedSize(&img.recs[s], nil)
		} else {
			bytes += encodedSize(&img.recs[s], img.parentOf(&img.recs[s]))
		}
		kids := img.recs[s].children
		for i := len(kids) - 1; i >= 0; i-- {
			stack = append(stack, kids[i])
		}
	}
	return members, bytes, true
}

// moveBestSubtree relocates the single local subtree with the best
// bytes-freed-per-proxy ratio; false if no candidate frees space.
func (u *updater) moveBestSubtree(lp *livePage, avoid uint16, maxMove int) bool {
	best, bestGain := -1, 0
	for i := range lp.img.recs {
		r := &lp.img.recs[i]
		if r.dead || r.kind == RecDoc || r.kind == RecProxyParent || r.parent == noParent {
			continue
		}
		members, bytes, ok := localSubtree(lp.img, uint16(i), avoid)
		if !ok || bytes+2*len(members) > maxMove {
			continue
		}
		// The page frees the subtree as stored here, its root's key relative
		// to the parent's where it was, and gains the proxy child left
		// behind: a lone proxy child frees nothing.
		parent := lp.img.parentOf(r)
		freed := bytes - encodedSize(r, nil) + encodedSize(r, parent)
		pcSz := encodedSize(&rec{kind: RecProxyChild, parent: r.parent, ord: r.ord}, parent)
		if g := freed - pcSz; g > bestGain {
			best, bestGain = i, g
		}
	}
	if best < 0 {
		return false
	}
	root := uint16(best)
	u.moveFragment(lp, uint16(lp.img.recs[root].parent), []uint16{root})
	return true
}

// splitTail moves the tail of the child list of the record with the most
// local children behind one continuation proxy — the update-time
// equivalent of the importer's spill. It tolerates avoid among the kept
// head but never moves it.
func (u *updater) splitTail(lp *livePage, avoid uint16, maxMove int) bool {
	bestParent, bestKids := -1, 3 // need at least 4 children to split
	for i := range lp.img.recs {
		r := &lp.img.recs[i]
		if r.dead {
			continue
		}
		if len(r.children) > bestKids {
			bestParent, bestKids = i, len(r.children)
		}
	}
	if bestParent < 0 {
		return false
	}
	kids := lp.img.recs[bestParent].children
	// Accumulate a tail, newest-first, that fits one overflow page.
	cut := len(kids)
	bytes, slots := 0, 0
	for idx := len(kids) - 1; idx >= len(kids)/2; idx-- {
		m, b, ok := localSubtree(lp.img, kids[idx], avoid)
		if !ok {
			break
		}
		if bytes+b+2*(slots+len(m)) > maxMove {
			break
		}
		bytes += b
		slots += len(m)
		cut = idx
	}
	if len(kids)-cut < 2 {
		return false
	}
	tail := append([]uint16(nil), kids[cut:]...)
	u.moveFragment(lp, uint16(bestParent), tail)
	return true
}

// moveFragment moves the local subtrees rooted at roots (all children of
// parentSlot, in child order) to an overflow page behind a single proxy
// pair. The ProxyChild inherits the first root's ord key, so the sibling
// order is preserved.
func (u *updater) moveFragment(lp *livePage, parentSlot uint16, roots []uint16) {
	total := 0
	var perRoot [][]uint16
	for _, root := range roots {
		m, b, ok := localSubtree(lp.img, root, noPos) // no avoid here
		if !ok {
			panic("storage: moveFragment over protected slot")
		}
		perRoot = append(perRoot, m)
		total += b + 2*len(m)
	}
	far := u.overflowPage(total + encodedSize(&rec{kind: RecProxyParent}, nil) + 4)
	ppSlot := u.addRec(far, rec{kind: RecProxyParent, parent: noParent})
	firstOrd := lp.img.recs[roots[0]].ord

	for ri, members := range perRoot {
		newSlot := map[uint16]uint16{}
		for _, s := range members {
			moved := lp.img.recs[s] // copy
			moved.children = nil
			if s == roots[ri] {
				moved.parent = int(ppSlot)
			} else {
				moved.parent = int(newSlot[uint16(lp.img.recs[s].parent)])
			}
			ns := u.addRec(far, moved)
			newSlot[s] = ns
			if moved.kind == RecProxyChild {
				comp := u.live(moved.target.Page())
				comp.img.recs[moved.target.Slot()].target = MakeNodeID(far.page, ns)
				comp.dirty = true
			}
		}
	}
	for _, members := range perRoot {
		for _, s := range members {
			u.tombstone(lp, s)
		}
	}
	// The replacement proxy takes the first root's (now dead) slot, so a
	// stale NodeID for that root degrades to the border that leads to it.
	pcSlot := roots[0]
	pc := rec{kind: RecProxyChild, parent: int(parentSlot), ord: firstOrd,
		target: MakeNodeID(far.page, ppSlot)}
	lp.img.recs[pcSlot] = pc
	lp.used += encodedSize(&pc, lp.img.parentOf(&pc))
	u.linkChild(lp, pcSlot, int(parentSlot))
	far.img.recs[ppSlot].target = MakeNodeID(lp.page, pcSlot)
}

// overflowPage returns an extension page with at least `need` bytes free:
// first the pages this update already touched, then the newest extension
// page from earlier updates, then a freshly allocated one. Reuse keeps the
// extension directory small.
func (u *updater) overflowPage(need int) *livePage {
	ps := u.st.disk.PageSize()
	if len(u.fresh) > 0 {
		lp := u.pages[u.fresh[len(u.fresh)-1]]
		if lp.fits(need, ps) {
			return lp
		}
	}
	if extras := u.st.version().Extras(); len(extras) > 0 {
		lp := u.live(extras[len(extras)-1])
		if lp.fits(need, ps) {
			return lp
		}
	}
	return u.freshPage()
}

// proxyPair creates a linked ProxyChild (under lp/parentSlot, carrying
// ord) and ProxyParent in an extension page with room for `need` more
// bytes, returning the far page and the anchor slot.
func (u *updater) proxyPair(lp *livePage, parentSlot uint16, ord ordpath.Key, need int) (*livePage, uint16) {
	far := u.overflowPage(need + encodedSize(&rec{kind: RecProxyParent}, nil) + 4)
	ppSlot := u.addRec(far, rec{kind: RecProxyParent, parent: noParent})
	pcSlot := u.addRec(lp, rec{kind: RecProxyChild, parent: int(parentSlot), ord: ord,
		target: MakeNodeID(far.page, ppSlot)})
	far.img.recs[ppSlot].target = MakeNodeID(lp.page, pcSlot)
	return far, ppSlot
}

// draftRecFor converts one logical node into a record (attributes inline).
func draftRecFor(n *xmltree.Node, ord ordpath.Key) (rec, error) {
	switch n.Kind {
	case xmltree.Element:
		r := rec{kind: RecElem, tag: n.Tag, ord: ord}
		for _, a := range n.Attrs {
			r.attrs = append(r.attrs, attrRec{tag: a.Tag, val: a.Text})
		}
		return r, nil
	case xmltree.Text:
		return rec{kind: RecText, text: n.Text, ord: ord}, nil
	case xmltree.Comment:
		return rec{kind: RecComment, text: n.Text, ord: ord}, nil
	case xmltree.ProcInst:
		return rec{kind: RecPI, text: n.Text, ord: ord}, nil
	default:
		return rec{}, fmt.Errorf("storage: cannot insert %v node", n.Kind)
	}
}

// deleteRec tombstones the record at (lp, slot) and its whole physical
// subtree, following proxies into other clusters.
func (u *updater) deleteRec(lp *livePage, slot uint16) {
	r := &lp.img.recs[slot]
	if r.dead {
		return
	}
	// Children tombstones unlink themselves from r.children; iterate a
	// snapshot so the shifting slice does not skip entries.
	kids := append([]uint16(nil), r.children...)
	for _, ch := range kids {
		u.deleteRec(lp, ch)
	}
	if r.kind == RecProxyChild {
		far := u.live(r.target.Page())
		u.deleteRec(far, r.target.Slot()) // the ProxyParent + fragment
	}
	u.tombstone(lp, slot)
}

// tombstone marks one record dead and unlinks it from its parent.
func (u *updater) tombstone(lp *livePage, slot uint16) {
	r := &lp.img.recs[slot]
	if r.parent != noParent {
		p := &lp.img.recs[r.parent]
		for i, k := range p.children {
			if k == slot {
				p.children = append(p.children[:i], p.children[i+1:]...)
				break
			}
		}
	}
	lp.used -= encodedSize(r, lp.img.parentOf(r))
	r.dead = true
	r.children = nil
	lp.dirty = true
}

// collapseAnchors removes a ProxyParent that lost all children, together
// with its companion ProxyChild (recursively, should that empty another
// anchor).
func (u *updater) collapseAnchors(lp *livePage, slot uint16) {
	r := &lp.img.recs[slot]
	if r.dead || r.kind != RecProxyParent || len(r.children) > 0 {
		return
	}
	companion := r.target
	u.tombstone(lp, slot)
	far := u.live(companion.Page())
	fr := &far.img.recs[companion.Slot()]
	parent := fr.parent
	u.tombstone(far, companion.Slot())
	if parent != noParent {
		u.collapseAnchors(far, uint16(parent))
	}
}

// stage encodes every dirty page of the update: the write set a
// transactional commit relocates to copy-on-write targets. Keys are
// logical page ids; payloads are unfinalized (no checksum trailer yet).
func (u *updater) stage() (map[vdisk.PageID][]byte, error) {
	images := map[vdisk.PageID][]byte{}
	for _, lp := range u.pages {
		if !lp.dirty {
			continue
		}
		raw, err := encodePage(lp.img, u.st.disk.PageSize())
		if err != nil {
			return nil, err
		}
		images[lp.page] = raw
	}
	return images, nil
}
