package storage

import (
	"pathdb/internal/vdisk"
	"pathdb/internal/xmltree"
)

// Export reconstructs the logical document tree from storage, crossing
// cluster borders with synchronous loads. It is used by round-trip tests
// and by the document-export extension (paper Sec. 7 outlook): exporting is
// a traversal whose "path instance" is the whole subtree. For collections
// it exports the first document; see ExportDocument.
func (s *Store) Export() *xmltree.Node {
	return s.ExportDocument(0)
}

// ExportDocument reconstructs the i-th document of the collection.
func (s *Store) ExportDocument(i int) *xmltree.Node {
	root := s.Swizzle(s.roots[i])
	doc := xmltree.NewDocument()
	s.exportChildren(root, doc)
	return doc
}

// ExportSubtree reconstructs the subtree rooted at id (which must be a core
// element).
func (s *Store) ExportSubtree(id NodeID) *xmltree.Node {
	return s.exportNode(s.Swizzle(id))
}

func (s *Store) exportNode(c Cursor) *xmltree.Node {
	img, p := c.img, int(c.pos)
	switch k := img.kind(p); k {
	case RecElem:
		n := xmltree.NewElement(img.tag(p))
		for b := img.body(p); len(b) > 0; {
			var tag xmltree.TagID
			var val string
			tag, val, b = nextAttr(b)
			n.SetAttr(tag, val)
		}
		s.exportChildren(c, n)
		return n
	case RecText:
		return xmltree.NewText(img.text(p))
	case RecComment:
		return &xmltree.Node{Kind: xmltree.Comment, Tag: xmltree.NoTag, Text: img.text(p)}
	case RecPI:
		return &xmltree.Node{Kind: xmltree.ProcInst, Tag: xmltree.NoTag, Text: img.text(p)}
	default:
		panic("storage: exportNode on " + k.String())
	}
}

// exportChildren appends the logical children of c (a doc, element or
// proxy-parent record) to out, following proxy chains transparently.
func (s *Store) exportChildren(c Cursor, out *xmltree.Node) {
	for k, e := int(c.pos)+1, c.img.end(int(c.pos)); k < e; k = c.img.end(k) {
		if c.img.kind(k) == RecProxyChild {
			far := s.Swizzle(c.img.target(k)) // the ProxyParent anchor
			s.exportChildren(far, out)
			continue
		}
		out.AppendChild(s.exportNode(c.at(k)))
	}
}

// TagStats summarises the physical footprint of one tag: how many element
// records carry it, how many distinct clusters contain at least one, and
// how many clusters hold any node *inside the subtrees* of such elements.
// The cost-based plan chooser uses the subtree footprint to estimate how
// much of the document a recursive step must traverse.
type TagStats struct {
	Count        int64 // element records with this tag
	Pages        int   // clusters containing at least one such element
	SubtreePages int   // clusters containing any node below one
}

// DocStats is the offline statistics bundle for the plan chooser.
type DocStats struct {
	Pages   int
	Borders int
	Tags    map[xmltree.TagID]TagStats
}

// CollectDocStats walks the whole document once (synchronously, offline)
// and gathers per-tag footprints plus the total border count. Reset the
// ledger afterwards when measuring queries; a live system would maintain
// these statistics incrementally.
func (s *Store) CollectDocStats() *DocStats {
	n := s.NumDataPages()
	ds := &DocStats{Pages: n, Tags: make(map[xmltree.TagID]TagStats)}
	for i := 0; i < n; i++ {
		ds.Borders += len(s.image(s.DataPage(i)).borderIDs)
	}

	ownPages := map[xmltree.TagID]map[vdisk.PageID]bool{}
	subPages := map[xmltree.TagID]map[vdisk.PageID]bool{}
	mark := func(m map[xmltree.TagID]map[vdisk.PageID]bool, t xmltree.TagID, p vdisk.PageID) {
		set := m[t]
		if set == nil {
			set = map[vdisk.PageID]bool{}
			m[t] = set
		}
		set[p] = true
	}

	active := map[xmltree.TagID]int{}
	var walk func(c Cursor)
	walk = func(c Cursor) {
		img, p := c.img, int(c.pos)
		kind, tag := img.kind(p), img.tag(p)
		if kind == RecProxyChild {
			walk(s.Swizzle(img.target(p)))
			return
		}
		if kind == RecElem {
			ts := ds.Tags[tag]
			ts.Count++
			ds.Tags[tag] = ts
			mark(ownPages, tag, c.page)
		}
		if kind != RecProxyParent {
			for t, depth := range active {
				if depth > 0 {
					mark(subPages, t, c.page)
				}
			}
		}
		if kind == RecElem {
			active[tag]++
		}
		for k, e := p+1, img.end(p); k < e; k = img.end(k) {
			walk(c.at(k))
		}
		if kind == RecElem {
			active[tag]--
		}
	}
	for _, root := range s.roots {
		walk(s.Swizzle(root))
	}

	for t, ts := range ds.Tags {
		ts.Pages = len(ownPages[t])
		ts.SubtreePages = len(subPages[t])
		ds.Tags[t] = ts
	}
	return ds
}

// VolumeStats summarises physical storage for reporting and tests.
type VolumeStats struct {
	DataPages   int
	Records     int // slots, dead ones included
	CoreNodes   int
	BorderNodes int
	UsedBytes   int // bytes the page encodings take: header, entries, slot table, heap
}

// PageUtilization returns a histogram of per-page space utilisation with
// the given number of buckets (bucket i counts pages filled between
// i/buckets and (i+1)/buckets of their capacity).
func (s *Store) PageUtilization(buckets int) []int {
	hist := make([]int, buckets)
	ps := s.disk.PageSize()
	n := s.NumDataPages()
	for i := 0; i < n; i++ {
		used := s.image(s.DataPage(i)).heapEnd
		b := used * buckets / (ps + 1)
		if b >= buckets {
			b = buckets - 1
		}
		hist[b]++
	}
	return hist
}

// Stats scans all data pages (synchronously) and reports volume totals.
// It is intended for offline inspection; reset the ledger afterwards when
// measuring queries.
func (s *Store) Stats() VolumeStats {
	var vs VolumeStats
	n := s.NumDataPages()
	vs.DataPages = n
	for i := 0; i < n; i++ {
		img := s.image(s.DataPage(i))
		vs.Records += img.nslots
		vs.BorderNodes += len(img.borderIDs)
		vs.CoreNodes += img.n - len(img.borderIDs)
		vs.UsedBytes += img.heapEnd
	}
	return vs
}
