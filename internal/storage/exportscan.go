package storage

import (
	"fmt"
	"io"
	"strings"

	"pathdb/internal/stats"
	"pathdb/internal/xmltree"
	"pathdb/internal/xmlwrite"
)

// This file implements scan-based document export — the second outlook
// item of the paper's Sec. 7: "we want to investigate how our method can
// be used to speed up document export, where our 'path instance' becomes
// the textual representation of a whole document (or subtree)".
//
// The naive Export() walks the tree in document order, paying a random
// cluster load at every border crossing. ExportScanXML instead reads the
// volume once, sequentially, serializing every cluster's fragments into
// text pieces with placeholders where edges leave the cluster — the exact
// analogue of a left-incomplete path instance: "if this fragment's anchor
// is reached, this is its serialization". A final in-memory stitch
// resolves the placeholders. One sequential pass replaces a random walk.

// piece is the partially serialized form of one fragment: literal XML text
// interleaved with references to other fragments' anchors.
type piece struct {
	segs []seg
}

type seg struct {
	text string
	ref  NodeID // anchor (ProxyParent) of the fragment to splice; 0 = text
}

// ExportScanXML serializes the (first) document using one sequential scan.
func (s *Store) ExportScanXML(w io.Writer) error {
	return s.ExportScanDocumentXML(w, 0)
}

// ExportScanDocumentXML serializes the i-th collection member using one
// sequential scan of the whole volume. Page faults raised by the scan's
// loads surface as the typed *PageError instead of a panic.
func (s *Store) ExportScanDocumentXML(w io.Writer, doc int) (err error) {
	defer func() {
		if r := recover(); r != nil {
			if pe, ok := AsPageFault(r); ok {
				err = pe
				return
			}
			panic(r)
		}
	}()
	pieces := make(map[NodeID]*piece)
	n := s.NumDataPages()
	for i := 0; i < n; i++ {
		page := s.DataPage(i)
		s.LoadCluster(page) // sequential
		img := s.image(page)
		for p := 0; p < img.n; p = img.end(p) {
			// A fragment root: the document record itself or a
			// ProxyParent anchor.
			pieces[MakeNodeID(page, img.slotOf(p))] = s.buildPiece(img, p)
		}
	}
	root := s.roots[doc]
	return stitch(w, root, pieces)
}

// buildPiece serializes the fragment anchored at position p into text
// segments, leaving a placeholder wherever an edge crosses out of the
// cluster.
func (s *Store) buildPiece(img *pageImage, p int) *piece {
	pc := &piece{}
	var sb strings.Builder
	flush := func() {
		if sb.Len() > 0 {
			pc.segs = append(pc.segs, seg{text: sb.String()})
			sb.Reset()
		}
	}
	var emit func(p int)
	children := func(p int) {
		for k, e := p+1, img.end(p); k < e; k = img.end(k) {
			emit(k)
		}
	}
	emit = func(p int) {
		stats.Inc(&s.led.NodesVisited)
		s.led.AdvanceCPU(s.model.CPUNodeVisit)
		switch img.kind(p) {
		case RecDoc, RecProxyParent:
			children(p)
		case RecProxyChild:
			flush()
			pc.segs = append(pc.segs, seg{ref: img.target(p)})
		case RecElem:
			name := s.dict.Name(img.tag(p))
			sb.WriteByte('<')
			sb.WriteString(name)
			for b := img.body(p); len(b) > 0; {
				var tag xmltree.TagID
				var val string
				tag, val, b = nextAttr(b)
				sb.WriteByte(' ')
				sb.WriteString(s.dict.Name(tag))
				sb.WriteString(`="`)
				sb.WriteString(xmlwrite.EscapeAttr(val))
				sb.WriteByte('"')
			}
			if img.end(p) == p+1 {
				sb.WriteString("/>")
				return
			}
			sb.WriteByte('>')
			children(p)
			sb.WriteString("</")
			sb.WriteString(name)
			sb.WriteByte('>')
		case RecText:
			sb.WriteString(xmlwrite.EscapeText(img.text(p)))
		case RecComment:
			sb.WriteString("<!--")
			sb.WriteString(img.text(p))
			sb.WriteString("-->")
		case RecPI:
			sb.WriteString("<?")
			sb.WriteString(img.text(p))
			sb.WriteString("?>")
		}
	}
	emit(p)
	flush()
	return pc
}

// stitch writes the piece anchored at id, splicing referenced pieces
// depth-first. Every anchor is consumed exactly once.
func stitch(w io.Writer, id NodeID, pieces map[NodeID]*piece) error {
	p, ok := pieces[id]
	if !ok {
		return fmt.Errorf("storage: export scan missing fragment %v", id)
	}
	for _, sg := range p.segs {
		if sg.ref != 0 {
			if err := stitch(w, sg.ref, pieces); err != nil {
				return err
			}
			continue
		}
		if _, err := io.WriteString(w, sg.text); err != nil {
			return err
		}
	}
	return nil
}
