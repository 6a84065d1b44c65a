package storage

import (
	"slices"
	"sync"

	"pathdb/internal/vdisk"
	"pathdb/internal/xmltree"
)

// PageSynopsis summarizes one cluster for the plan chooser's statistics:
// which tags occur and how often, how many proxy records and live records
// the cluster holds. It is counted off the page's entries the first time a
// version of the page is loaded and registered under the page's write
// epoch, so a consumer can tell whether a summary still describes the bytes
// its version would read. Its slices are allocations of its own — a synopsis
// outlives eviction and must not pin a page — and callers must not mutate
// them.
type PageSynopsis struct {
	Epoch     uint64
	Tags      []xmltree.TagID // sorted distinct record tags (NoTag bucket included)
	TagCounts []int32         // live records per Tags[i]
	Borders   int32           // all proxy records
	Live      int32           // all live records
}

// synTable is the persistent synopsis registry, shared (by pointer) across
// a base store and every view. Unlike the swizzle cache it survives buffer
// eviction: summaries are tiny, so keeping them lets the chooser's refresh
// read a rewritten cluster's statistics without loading the cluster.
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
		switch k := img.kind(p); {
		case k == RecElem:
			if t := img.tag(p); t < directTags {
				if direct[t]++; direct[t] == 1 {
					distinct++
				}
			} else {
				big = append(big, t)
			}
		case !k.IsProxy():
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

// EnsureSynopsis returns the summary of cluster p at this view's version:
// the registered one when it describes the bytes this version reads (its
// epoch is the page's write epoch), else one counted off a load of the
// cluster, charged to this view's ledger. Used by the plan chooser.
func (s *Store) EnsureSynopsis(p vdisk.PageID) *PageSynopsis {
	if sy := s.syn.get(p); sy != nil && sy.Epoch == s.pageEpoch(p) {
		return sy
	}
	img := s.image(p)
	return synopsisOf(img, s.pageEpoch(p))
}

// RefreshSynopses validates the after-images of a commit and registers their
// summaries at the commit epoch. The txn manager calls this right after
// publishing the successor version, so the registry tracks commits eagerly:
// a current-version reader finds a current-epoch summary for every page the
// commit wrote, and the chooser's Refresh loads no page to fold them in.
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
