package storage

import (
	"slices"
	"sync"

	"pathdb/internal/vdisk"
	"pathdb/internal/xmltree"
	"pathdb/internal/xpath"
)

// PageSynopsis summarizes one cluster for whole-cluster decisions: which
// record kinds and tags occur (and how often), and whether the cluster has
// outgoing downward borders. It is counted off the page's entries the first
// time a version of the page is loaded and registered under the page's write
// epoch, so a consumer can tell whether a summary still describes the bytes
// its version would read. Its slices are allocations of its own — a synopsis
// outlives eviction and must not pin a page — and callers must not mutate
// them.
type PageSynopsis struct {
	Epoch         uint64
	Tags          []xmltree.TagID // sorted distinct record tags (NoTag bucket included)
	TagCounts     []int32         // live records per Tags[i]
	Elems         int32
	Texts         int32
	Comments      int32
	PIs           int32
	ProxyChildren int32 // outgoing downward borders
	Borders       int32 // all proxy records
	Live          int32 // all live records
}

// TagCount returns the number of live records tagged t.
func (sy *PageSynopsis) TagCount(t xmltree.TagID) int32 {
	lo, hi := 0, len(sy.Tags)
	for lo < hi {
		mid := (lo + hi) / 2
		if sy.Tags[mid] < t {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(sy.Tags) && sy.Tags[lo] == t {
		return sy.TagCounts[lo]
	}
	return 0
}

// CanMatch reports whether any core record of the cluster could satisfy
// test. Conservative: false only when the synopsis proves zero matches.
func (sy *PageSynopsis) CanMatch(test xpath.NodeTest) bool {
	var kindTotal int32
	switch test.Kind {
	case xpath.KindAny:
		kindTotal = sy.Live - sy.Borders
	case xpath.KindElement:
		kindTotal = sy.Elems
	case xpath.KindText:
		kindTotal = sy.Texts
	case xpath.KindComment:
		kindTotal = sy.Comments
	case xpath.KindPI:
		kindTotal = sy.PIs
	default:
		return true
	}
	if kindTotal == 0 {
		return false
	}
	if test.AnyName {
		return true
	}
	for _, t := range test.Tags {
		if sy.TagCount(t) > 0 {
			return true
		}
	}
	return false
}

// synTable is the persistent synopsis registry, shared (by pointer) across
// a base store and every view. Unlike the swizzle cache it survives buffer
// eviction: summaries are tiny, so keeping them lets XSchedule skip
// clusters that were loaded once in any earlier query.
type synTable struct {
	mu sync.RWMutex
	m  map[vdisk.PageID]*PageSynopsis
}

func newSynTable() *synTable {
	return &synTable{m: make(map[vdisk.PageID]*PageSynopsis)}
}

func (t *synTable) get(p vdisk.PageID) *PageSynopsis {
	t.mu.RLock()
	sy := t.m[p]
	t.mu.RUnlock()
	return sy
}

// publish registers sy for p unless a newer-epoch summary is already
// present (a lagging snapshot must not clobber the current one; its stale
// summary would fail the reader-side epoch check anyway).
func (t *synTable) publish(p vdisk.PageID, sy *PageSynopsis) {
	t.mu.Lock()
	if cur, ok := t.m[p]; !ok || sy.Epoch >= cur.Epoch {
		t.m[p] = sy
	}
	t.mu.Unlock()
}

func (t *synTable) reset() {
	t.mu.Lock()
	t.m = make(map[vdisk.PageID]*PageSynopsis)
	t.mu.Unlock()
}

// synopsisOf counts the registry entry off an image's entries: tags below
// directTags in a table, the rest sorted.
func synopsisOf(img *pageImage, epoch uint64) *PageSynopsis {
	const directTags = 512
	sy := &PageSynopsis{Epoch: epoch, Borders: int32(len(img.borderIDs)), Live: int32(img.n)}
	var direct [directTags]int32
	var noTag int32 // non-element core records: the NoTag bucket
	var big []xmltree.TagID
	distinct := 0
	for p := 0; p < img.n; p++ {
		switch img.kind(p) {
		case RecProxyChild:
			sy.ProxyChildren++
		case RecElem:
			sy.Elems++
			if t := img.tag(p); t < directTags {
				if direct[t]++; direct[t] == 1 {
					distinct++
				}
			} else {
				big = append(big, t)
			}
			continue
		case RecText:
			sy.Texts++
		case RecComment:
			sy.Comments++
		case RecPI:
			sy.PIs++
		}
		if k := img.kind(p); !k.IsProxy() {
			noTag++
		}
	}
	slices.Sort(big)
	for i := range big {
		if i == 0 || big[i] != big[i-1] {
			distinct++
		}
	}
	if noTag > 0 {
		distinct++
	}
	sy.Tags, sy.TagCounts = make([]xmltree.TagID, 0, distinct), make([]int32, 0, distinct)
	add := func(t xmltree.TagID, n int32) {
		sy.Tags, sy.TagCounts = append(sy.Tags, t), append(sy.TagCounts, n)
	}
	if noTag > 0 {
		add(xmltree.NoTag, noTag)
	}
	for t, n := range direct {
		if n > 0 {
			add(xmltree.TagID(t), n)
		}
	}
	for i, t := range big {
		if i == 0 || t != big[i-1] {
			add(t, 0)
		}
		sy.TagCounts[len(sy.TagCounts)-1]++
	}
	return sy
}

// Synopsis returns the registered summary of cluster p as of this view's
// version, or ok=false when the cluster has not been loaded at the
// version's write epoch yet (the summary on file, if any, describes other
// bytes).
func (s *Store) Synopsis(p vdisk.PageID) (*PageSynopsis, bool) {
	sy := s.syn.get(p)
	if sy == nil || sy.Epoch != s.pageEpoch(p) {
		return nil, false
	}
	return sy, true
}

// EnsureSynopsis loads cluster p if needed and returns its summary at this
// view's version. Used by the plan chooser's incremental refresh; the load
// charges this view's ledger.
func (s *Store) EnsureSynopsis(p vdisk.PageID) *PageSynopsis {
	if sy, ok := s.Synopsis(p); ok {
		return sy
	}
	img := s.image(p)
	return synopsisOf(img, s.pageEpoch(p))
}

// RefreshSynopses validates the after-images of a commit and registers their
// summaries at the commit epoch. The txn manager calls this right after
// publishing the successor version, so the registry tracks commits eagerly:
// skip decisions stay deterministic (a current-version reader always finds
// a current-epoch summary for every page that ever had one) instead of
// depending on which queries happened to load which clusters first.
// Payloads are unfinalized page images (as produced by WriteTxn.WriteSet);
// invalid ones are skipped — the read path will fault on them properly.
func (s *Store) RefreshSynopses(epoch uint64, images map[vdisk.PageID][]byte) {
	ps := s.disk.PageSize()
	var img pageImage
	for p, raw := range images {
		if decodePage(&img, p, finalizePage(raw, ps), ps) != nil {
			continue
		}
		s.syn.publish(p, synopsisOf(&img, epoch))
	}
}

// SkippableCluster reports whether pooling cluster p for a pending
// downward step (axis, test) is provably useless: the summary is current
// for this view's version, the cluster has no outgoing downward borders
// (so the enumeration cannot continue elsewhere), and no record can match
// the test. Downward axes only — the enumeration of child/descendant steps
// arriving over a border emits exclusively core records of the cluster
// plus its ProxyChild borders, so an empty test mask and a zero ProxyChild
// count together prove the continuation is dead. False means "load it and
// look", never "skip".
func (s *Store) SkippableCluster(p vdisk.PageID, axis xpath.Axis, test xpath.NodeTest) bool {
	switch axis {
	case xpath.Child, xpath.Descendant, xpath.DescendantOrSelf:
	default:
		return false
	}
	sy, ok := s.Synopsis(p)
	if !ok || sy.ProxyChildren > 0 {
		return false
	}
	return !sy.CanMatch(test)
}
