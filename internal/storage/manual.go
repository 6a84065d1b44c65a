package storage

import (
	"errors"
	"fmt"

	"pathdb/internal/ordpath"
	"pathdb/internal/vdisk"
	"pathdb/internal/xmltree"
)

// ImportManual stores doc with an explicit cluster assignment: assign maps
// every element/text/comment/PI node to a cluster number (0-based,
// contiguous). The document record lives in the cluster of the root
// element. Proxy pairs are created wherever a child's cluster differs from
// its parent's, exactly as in Fig. 3 of the paper.
//
// Cluster k is placed on data page 1+k (no layout permutation), so tests
// can reason about physical positions. It returns an error if any cluster
// overflows a page.
func ImportManual(disk *vdisk.Disk, dict *xmltree.Dictionary, doc *xmltree.Node, assign func(*xmltree.Node) int, opts ImportOptions) (*Store, error) {
	if doc.Kind != xmltree.Document {
		return nil, errors.New("storage: ImportManual requires a document node")
	}
	if disk.NumPages() != 0 {
		return nil, errors.New("storage: ImportManual requires an empty disk")
	}
	opts = opts.withDefaults()
	if opts.PageSize != disk.PageSize() {
		return nil, fmt.Errorf("storage: option page size %d != disk page size %d", opts.PageSize, disk.PageSize())
	}
	if opts.PageSize > MaxPageSize {
		return nil, fmt.Errorf("storage: page size %d exceeds the maximum of %d", opts.PageSize, MaxPageSize)
	}
	if len(doc.Children) == 0 {
		return nil, errors.New("storage: empty document")
	}

	im := &importer{opts: opts, syn: newSynTable()}
	m := &manualImporter{im: im, assign: assign, byID: map[int]*draftCluster{}}

	rootCluster := m.cluster(assign(doc.Children[0]))
	docSlot := rootCluster.add(rec{kind: RecDoc, parent: noParent})
	if err := m.walk(doc, rootCluster, docSlot, ordpath.Root()); err != nil {
		return nil, err
	}

	// Verify fit and write pages in cluster order.
	const firstData = 1
	n := len(im.clusters)
	for _, c := range im.clusters {
		if c.used > c.cap {
			return nil, fmt.Errorf("%w: manual cluster %d needs %d bytes", ErrRecordTooLarge, c.id, c.used)
		}
	}
	for _, l := range im.links {
		im.clusters[l.ca].recs[l.sa].target = MakeNodeID(vdisk.PageID(firstData+l.cb), l.sb)
		im.clusters[l.cb].recs[l.sb].target = MakeNodeID(vdisk.PageID(firstData+l.ca), l.sa)
	}
	disk.Alloc() // meta
	for i := 0; i < n; i++ {
		disk.Alloc()
	}
	for i, c := range im.clusters {
		if err := c.write(disk, vdisk.PageID(firstData+i), im.syn); err != nil {
			return nil, err
		}
	}
	dictStart, dictCount := writeDictionary(disk, dict)
	rootID := MakeNodeID(vdisk.PageID(firstData+rootCluster.id), docSlot)
	writeMeta(disk, 0, metaInfo{
		roots:     []NodeID{rootID},
		firstData: firstData,
		nData:     uint32(n),
		dictStart: dictStart,
		dictCount: dictCount,
	})
	disk.Ledger().Reset()
	disk.ResetClockState()
	return newStore(disk, dict, []NodeID{rootID}, firstData, uint32(n), im.syn), nil
}

type manualImporter struct {
	im     *importer
	assign func(*xmltree.Node) int
	byID   map[int]*draftCluster
}

// cluster returns the draft cluster with the given user id, creating
// intermediate ids as needed so numbering stays contiguous.
func (m *manualImporter) cluster(id int) *draftCluster {
	if id < 0 {
		panic("storage: negative manual cluster id")
	}
	for len(m.im.clusters) <= id {
		m.im.newCluster()
	}
	if c, ok := m.byID[id]; ok {
		return c
	}
	c := m.im.clusters[id]
	m.byID[id] = c
	return c
}

// walk places the children of logical node n, whose record lives at
// (c, ps), honouring the manual assignment.
func (m *manualImporter) walk(n *xmltree.Node, c *draftCluster, ps uint16, ord ordpath.Key) error {
	childIdx := 0
	for _, ch := range n.Children {
		recs, err := m.im.draftRecs(ch, ord, &childIdx)
		if err != nil {
			return err
		}
		target := m.cluster(m.assign(ch))
		for _, dr := range recs {
			placeIn, placePS := c, ps
			if target != c {
				pcSlot := c.add(rec{kind: RecProxyChild, parent: int(ps), ord: dr.r.ord})
				ppSlot := target.add(rec{kind: RecProxyParent, parent: noParent})
				m.im.linkProxies(c.id, pcSlot, target.id, ppSlot)
				placeIn, placePS = target, ppSlot
			}
			dr.r.parent = int(placePS)
			slot := placeIn.add(dr.r)
			m.im.placed(placeIn)
			if dr.r.kind == RecElem {
				m.im.open = append(m.im.open, openElem{tag: dr.r.tag, cluster: -1})
				if err := m.walk(dr.node, placeIn, slot, dr.r.ord); err != nil {
					return err
				}
				m.im.open = m.im.open[:len(m.im.open)-1]
			}
		}
	}
	return nil
}
