package storage

import (
	"slices"
	"sync"

	"pathdb/internal/vdisk"
	"pathdb/internal/xmltree"
)

// PageSynopsis summarizes one cluster for the plan chooser's statistics:
// which tags occur and how often, how many proxy records and live records
// the cluster holds, and below which element tags its records lie. Whoever
// writes a version of the page counts its synopsis — the importers and the
// commit path — and registers it under the page's write epoch, so a consumer
// can tell whether a summary still describes the bytes its version would
// read. Its slices are allocations of its own — a synopsis outlives eviction
// and must not pin a page — and callers must not mutate them.
type PageSynopsis struct {
	Epoch     uint64
	Tags      []xmltree.TagID // sorted distinct record tags (NoTag bucket included)
	TagCounts []int32         // live records per Tags[i]
	Borders   int32           // all proxy records
	Live      int32           // all live records

	// Below lists, sorted, the tags of the elements that have a live
	// non-proxy record of this cluster in their subtree: the cluster's
	// share of every tag's subtree footprint. An importer sees every
	// ancestor and records it exactly; a rewrite keeps the previous
	// version's list and adds the in-page parents (rewrittenSynopsis).
	Below []xmltree.TagID
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

// rewrittenSynopsis counts the synopsis of a rewritten page version. Its
// Below is prev's (the page's previous registered synopsis, nil for none)
// plus the tags of the in-page parent elements of its non-proxy records:
// the elements above the page's fragment roots are out of its sight, so it
// keeps what the previous version knew of them, and a deletion never takes
// a tag out.
func rewrittenSynopsis(img *pageImage, epoch uint64, prev *PageSynopsis) *PageSynopsis {
	sy := synopsisOf(img, epoch)
	// An in-page parent's tag is one of the page's, so the parents are
	// marked by their tag's index in sy.Tags.
	var marks [64]bool
	parent := marks[:]
	if len(sy.Tags) > len(marks) {
		parent = make([]bool, len(sy.Tags))
	}
	for p := 0; p < img.n; p++ {
		if q := img.parent(p); q != noParent && !img.kind(p).IsProxy() && img.kind(q) == RecElem {
			i, _ := slices.BinarySearch(sy.Tags, img.tag(q))
			parent[i] = true
		}
	}
	// Merge the marked tags into prev's sorted Below.
	var old []xmltree.TagID
	if prev != nil {
		old = prev.Below
	}
	below := make([]xmltree.TagID, 0, len(old)+len(sy.Tags))
	for i, t := range sy.Tags {
		if !parent[i] {
			continue
		}
		for len(old) > 0 && old[0] < t {
			below, old = append(below, old[0]), old[1:]
		}
		if len(old) > 0 && old[0] == t {
			old = old[1:]
		}
		below = append(below, t)
	}
	sy.Below = append(below, old...)
	return sy
}

// EnsureSynopsis returns the summary of cluster p at this view's version:
// the registered one when it describes the bytes this version reads (its
// epoch is the page's write epoch), else one counted off a load of the
// cluster, charged to this view's ledger, by the rule a commit applies. The
// load covers volumes Open recovered, whose pages nobody registered, and a
// view that reads a version before the commit path has registered it. A
// page with no synopsis at all has no previous Below to keep: the elements
// above its fragments are found by following each anchor up to the root
// (tagsAbove), and the result is registered, so a later commit of the page
// keeps it. Used by the plan chooser.
func (s *Store) EnsureSynopsis(p vdisk.PageID) *PageSynopsis {
	sy := s.syn.get(p)
	if epoch := s.pageEpoch(p); sy == nil {
		img := s.image(p)
		sy = rewrittenSynopsis(img, epoch, &PageSynopsis{Below: s.tagsAbove(img)})
		s.syn.publish(p, sy)
	} else if sy.Epoch != epoch {
		sy = rewrittenSynopsis(s.image(p), epoch, sy)
	}
	return sy
}

// tagsAbove returns, sorted and distinct, the tags of the elements above
// img's fragment anchors whose fragment holds a non-proxy record: each
// anchor's companion is followed up its cluster's parent chain, and on
// through the anchor there, to the document root. Pages on the way are
// loaded through this view.
func (s *Store) tagsAbove(img *pageImage) []xmltree.TagID {
	var tags []xmltree.TagID
	for a := 0; a < img.n; a++ {
		if img.kind(a) != RecProxyParent || !holdsCore(img, a) {
			continue
		}
		for t := img.target(a); t != InvalidNodeID; {
			up := s.image(t.Page())
			q, ok := up.posOf(t.Slot())
			t = InvalidNodeID
			for ok && q != noParent {
				switch up.kind(q) {
				case RecElem:
					tags = append(tags, up.tag(q))
				case RecProxyParent:
					t = up.target(q)
				}
				q = up.parent(q)
			}
		}
	}
	slices.Sort(tags)
	return slices.Compact(tags)
}

// holdsCore reports whether the fragment below anchor a holds a non-proxy
// record.
func holdsCore(img *pageImage, a int) bool {
	for p := a + 1; p < img.end(a); p++ {
		if !img.kind(p).IsProxy() {
			return true
		}
	}
	return false
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
		s.syn.publish(p, rewrittenSynopsis(&img, epoch, s.syn.get(p)))
	}
}
