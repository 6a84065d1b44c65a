package storage

import (
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
