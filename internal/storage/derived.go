package storage

import (
	"maps"
	"slices"
	"sync"

	"pathdb/internal/ordpath"
	"pathdb/internal/stats"
	"pathdb/internal/vdisk"
	"pathdb/internal/xmltree"
	"pathdb/internal/xpath"
)

// maxDerivedEntries bounds the derived cache; when a generation fills up,
// further inserts are dropped, and the next commit drops the generation.
const maxDerivedEntries = 256

// DerivedCache memoizes document-only artifacts derived from a volume's
// content — the structural join's node-test levels and the filter sets
// computed from levels alone (internal/core.XJoin). It holds one
// generation: what was computed at the highest version epoch seen so far.
// The first read at a newer epoch advances it (AdvanceDerived); the commit
// path does no work. Views pinned to an older snapshot simply miss (and
// their results are not admitted), so MVCC readers can never observe
// entries from a version other than their own.
type DerivedCache struct {
	mu    sync.Mutex
	epoch uint64
	m     map[string]any
	met   DerivedMetrics
	adv   levelAdvance
}

// DerivedMetrics are the derived cache's lifetime counters.
type DerivedMetrics struct {
	Hits, Misses       uint64 // Get lookups that found their entry, and the rest
	LevelBuilds        uint64 // levels admitted under a key the generation lacked
	LevelAdvances      uint64 // levels carried to a newer epoch
	PagesAdvanced      uint64 // written pages the advances read
	GenerationsDropped uint64 // full, failed to advance, reset, or replaced by a later Put
}

func newDerivedCache() *DerivedCache {
	return &DerivedCache{m: make(map[string]any)}
}

// drop replaces the generation by an empty one at epoch. Caller holds c.mu.
func (c *DerivedCache) drop(epoch uint64) {
	if len(c.m) > 0 {
		c.met.GenerationsDropped++
	}
	c.epoch, c.m = epoch, make(map[string]any)
}

// reaches reports whether a view at epoch may use the generation: at its
// epoch, or at a later one the view's next read advances it to. An empty
// generation moves there at once; a full one is dropped, so a wide workload
// cannot pin a full cache for good. Caller holds c.mu.
func (c *DerivedCache) reaches(epoch uint64) bool {
	switch {
	case epoch <= c.epoch:
	case len(c.m) == 0:
		c.epoch = epoch
	case len(c.m) >= maxDerivedEntries:
		c.drop(epoch)
	}
	return epoch >= c.epoch
}

// Get returns the entry for key computed at exactly the given epoch.
func (c *DerivedCache) Get(epoch uint64, key string) (any, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if epoch != c.epoch {
		c.met.Misses++
		return nil, false
	}
	v, ok := c.m[key]
	if ok {
		c.met.Hits++
	} else {
		c.met.Misses++
	}
	return v, ok
}

// Put admits an entry computed at the given epoch, replacing one already
// resident under the key; a full generation refuses new keys. An entry of
// a later epoch than the generation (which nobody advanced) replaces it
// wholesale; an older one is refused.
func (c *DerivedCache) Put(epoch uint64, key string, v any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if epoch > c.epoch {
		c.drop(epoch)
	}
	if epoch != c.epoch {
		return
	}
	_, had := c.m[key]
	if !had && len(c.m) >= maxDerivedEntries {
		return
	}
	if _, ok := v.(*Level); ok && !had {
		c.met.LevelBuilds++
	}
	c.m[key] = v
}

// Room reports whether a view at the given epoch may use the generation
// (see reaches) and it can admit n more keys: what a view cannot admit,
// every later query would build again.
func (c *DerivedCache) Room(epoch uint64, n int) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.reaches(epoch) && len(c.m)+n <= maxDerivedEntries
}

// Contains reports whether key is resident for a view at the given epoch
// (see reaches), without touching the lookup counters: cost-model probes
// are not lookups.
func (c *DerivedCache) Contains(epoch uint64, key string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.reaches(epoch) {
		return false
	}
	_, ok := c.m[key]
	return ok
}

// Stats returns the lifetime hit/miss counters.
func (c *DerivedCache) Stats() (hits, misses uint64) {
	m := c.Metrics()
	return m.Hits, m.Misses
}

// Metrics returns the lifetime counters (for tests and /v1/metrics).
func (c *DerivedCache) Metrics() DerivedMetrics {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.met
}

// reset drops every entry but keeps the generation epoch, so the next
// queries repopulate from scratch (measured runs start cold).
func (c *DerivedCache) reset() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.drop(c.epoch)
}

// Derived returns this view's derived-artifact cache together with the
// version epoch its entries must be keyed by, or ok=false when the view
// must not use it — a write transaction reading through its page overlay
// sees staged images the epoch does not name yet.
func (s *Store) Derived() (*DerivedCache, uint64, bool) {
	if s.derived == nil || s.overlay != nil {
		return nil, 0, false
	}
	return s.derived, s.VersionEpoch(), true
}

// AdvanceDerived is Derived for a view about to read the cache: a generation
// older than the view is first advanced to its epoch (AdvanceLevels) on its
// ledger. Filter sets survive if no level moved. An advance
// that is cancelled or faults publishes nothing and drops the generation.
func (s *Store) AdvanceDerived(cancelled func() bool) (*DerivedCache, uint64, bool) {
	c, epoch, ok := s.Derived()
	if !ok {
		return c, epoch, ok
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.reaches(epoch) || epoch == c.epoch {
		return c, epoch, ok
	}
	published := false
	defer func() {
		if !published {
			c.drop(epoch)
		}
	}()
	// In place: what does not publish is dropped whole.
	levels, pages, moved := c.adv.run(s, c.epoch, c.m)
	if cancelled() {
		return c, epoch, ok
	}
	maps.DeleteFunc(c.m, func(_ string, v any) bool {
		_, isLevel := v.(*Level)
		return moved && !isLevel
	})
	c.met.LevelAdvances += uint64(levels)
	c.met.PagesAdvanced += uint64(pages)
	c.epoch, published = epoch, true
	return c, epoch, ok
}

// AdvanceLevels replaces every level in m, built at epoch since, by its
// successor at the view's version, and reports how many levels and written
// pages that took and whether a level changed.
// Each page is read once for all levels, charged a node visit per live
// record; a level that changes is charged a set operation per entry.
func AdvanceLevels(view *Store, since uint64, m map[string]any) (levels, pages int, moved bool) {
	var a levelAdvance
	return a.run(view, since, m)
}

// levelAdvance is the working memory of AdvanceLevels. The derived cache
// keeps one and reuses it under its lock, so that an advance in which no
// level moves allocates nothing once it is warm.
type levelAdvance struct {
	keys    []string
	written []vdisk.PageID
	fresh   [][]levelEntry // per key: its matches on the written pages
	roots   []ordpath.Key  // the keys of the written pages' fragment roots
}

func (a *levelAdvance) run(view *Store, since uint64, m map[string]any) (levels, pages int, moved bool) {
	a.keys, a.written, a.roots = a.keys[:0], a.written[:0], a.roots[:0]
	for k, v := range m {
		if _, isLevel := v.(*Level); isLevel {
			a.keys = append(a.keys, k)
		}
	}
	if len(a.keys) > 0 {
		view.WrittenSince(since, func(p vdisk.PageID, _ uint64) { a.written = append(a.written, p) })
	}
	slices.Sort(a.keys) // with the pages: the reads, and their costs, repeat exactly
	slices.Sort(a.written)
	a.fresh = slices.Grow(a.fresh[:0], len(a.keys))[:len(a.keys)]
	for i := range a.fresh {
		a.fresh[i] = a.fresh[i][:0]
	}
	for _, p := range a.written {
		img := view.image(p)
		for i, k := range a.keys {
			a.fresh[i] = img.levelMatches(m[k].(*Level), a.fresh[i])
		}
		for q := 0; q < img.n; q++ {
			if par := img.parent(q); par == noParent || img.kind(par) == RecProxyParent {
				if k := img.key(q); k != nil {
					a.roots = append(a.roots, k)
				}
			}
		}
		stats.Add(&view.led.NodesVisited, int64(img.n))
		view.led.AdvanceCPU(stats.Ticks(img.n) * view.model.CPUNodeVisit)
	}
	slices.SortFunc(a.roots, ordpath.Compare)
	for i, k := range a.keys {
		lv, touched := m[k].(*Level).advance(view, a.written, a.fresh[i], a.roots)
		m[k], moved = lv, moved || touched
	}
	return len(a.keys), len(a.written), moved
}

// Level is one node test's share of the document: every node matching the
// test, in document order — the tag-partitioned identifier list of a
// path-partitioned store, built by internal/core. A published level is
// immutable.
type Level struct {
	Test xpath.NodeTest
	Attr bool          // the entries are the attributes passing Test
	Ords []ordpath.Key // in one private backing array: no page image is pinned
	IDs  []NodeID      // IDs[k] is the node of Ords[k]
	// The nodes' string values back to back, entry k ending at Ends[k]; nil
	// until a literal was first compared against the level.
	Vals []byte
	Ends []uint32
}

// NewLevel returns the level of the given document-ordered entries,
// copying the keys, in place, into one private backing array.
func NewLevel(test xpath.NodeTest, attr bool, ords []ordpath.Key, ids []NodeID) *Level {
	n := 0
	for _, k := range ords {
		n += len(k)
	}
	buf := make([]byte, 0, n)
	for i, k := range ords {
		buf = append(buf, k...)
		ords[i] = ordpath.Key(buf[len(buf)-len(k):])
	}
	return &Level{Test: test, Attr: attr, Ords: ords, IDs: ids}
}

// levelEntry is an entry of a level being advanced, with its old string
// value unless it is re-read.
type levelEntry struct {
	ord    ordpath.Key
	id     NodeID
	val    []byte
	reread bool
}

// levelMatches appends to fresh the page's records (or attributes) matching
// the level, in position order.
func (img *pageImage) levelMatches(lv *Level, fresh []levelEntry) []levelEntry {
	for p := 0; p < img.n; p++ {
		k := img.kind(p)
		if k.IsProxy() || lv.Attr && k != RecElem {
			continue
		}
		if !lv.Attr {
			if lv.Test.Matches(k.LogicalKind(), img.tag(p)) {
				fresh = append(fresh, levelEntry{ord: img.key(p), id: MakeNodeID(img.page, img.slotOf(p)), reread: true})
			}
			continue
		}
		id, ord := MakeNodeID(img.page, img.slotOf(p)), img.key(p)
		b := img.body(p)
		for a := 0; len(b) > 0; a++ {
			var tag xmltree.TagID
			tag, _, b = nextAttr(b)
			if lv.Test.Matches(xmltree.Attribute, tag) {
				fresh = append(fresh, levelEntry{ord: ord, id: id.WithAttr(a), reread: true})
			}
		}
	}
	return fresh
}

// advance returns the level at the view's version, given the written pages,
// its matches on them (fresh) and their fragment-root keys (roots,
// sorted), and whether it changed. String values are re-read for fresh
// entries and for kept ones that are an ancestor of a root: an entry off a
// page contains a record of it exactly when it contains one of its fragment
// roots, and a delete leaves such a witness too, since the pages it writes
// run up its proxy chain to one that keeps a record under the deleted
// node's parent. A level is returned as it is, decided before anything is
// allocated, when it had and has no entry on the written pages, or — without
// string values — when its entries there are the fresh matches, key for key
// and node for node (a commit that rewrote their page but moved none).
func (lv *Level) advance(view *Store, written []vdisk.PageID, fresh []levelEntry, roots []ordpath.Key) (*Level, bool) {
	onWritten := func(id NodeID) bool { // few pages: the commits' since the generation
		for _, p := range written {
			if p == id.Page() {
				return true
			}
		}
		return false
	}
	// rereads reports whether entry k, called in document order, is an
	// ancestor of a root: the first root after it is in its subtree if any
	// is.
	r := 0
	rereads := func(k int) bool {
		if lv.Ends == nil {
			return false
		}
		for r < len(roots) && ordpath.Compare(roots[r], lv.Ords[k]) <= 0 {
			r++
		}
		return r < len(roots) && lv.Ords[k].IsAncestorOf(roots[r])
	}
	slices.SortStableFunc(fresh, func(a, b levelEntry) int { return ordpath.Compare(a.ord, b.ord) })
	same, stale, kept, j := lv.Ends == nil, false, 0, 0
	for k, id := range lv.IDs {
		if !onWritten(id) {
			kept++
			stale = rereads(k) || stale
			continue
		}
		same = same && j < len(fresh) && fresh[j].id == id && ordpath.Compare(fresh[j].ord, lv.Ords[k]) == 0
		j++
	}
	moved := j > 0 || len(fresh) > 0
	if !stale && (!moved || same && j == len(fresh)) {
		return lv, false
	}
	// The kept entries are in level order: merge the fresh ones in, first
	// on a tie.
	all := make([]levelEntry, 0, len(fresh)+kept)
	var start uint32
	r, f := 0, 0
	for k, id := range lv.IDs {
		e := levelEntry{ord: lv.Ords[k], id: id}
		if lv.Ends != nil {
			e.val, start = lv.Vals[start:lv.Ends[k]], lv.Ends[k]
		}
		if !onWritten(id) {
			e.reread = rereads(k)
			for ; f < len(fresh) && ordpath.Compare(fresh[f].ord, e.ord) <= 0; f++ {
				all = append(all, fresh[f])
			}
			all = append(all, e)
		}
	}
	all = append(all, fresh[f:]...)
	ords, ids := make([]ordpath.Key, len(all)), make([]NodeID, len(all))
	for k, e := range all {
		ords[k], ids[k] = e.ord, e.id
	}
	next := NewLevel(lv.Test, lv.Attr, ords, ids)
	if lv.Ends != nil {
		next.Ends = make([]uint32, len(all))
		for k, e := range all {
			if e.reread {
				next.Vals = view.AppendStringValue(next.Vals, e.id)
			} else {
				next.Vals = append(next.Vals, e.val...)
			}
			next.Ends[k] = uint32(len(next.Vals))
		}
	}
	view.led.AdvanceCPU(stats.Ticks(len(all)) * view.model.CPUSetOp)
	return next, moved
}
