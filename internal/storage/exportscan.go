package storage

import (
	"fmt"
	"io"
	"strings"

	"pathdb/internal/stats"

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
		for slot := range img.recs {
			r := &img.recs[slot]
			if r.dead || r.parent != noParent {
				continue
			}
			// A fragment root: the document record itself or a
			// ProxyParent anchor.
			pieces[MakeNodeID(page, uint16(slot))] = s.buildPiece(img, uint16(slot))
		}
	}
	root := s.roots[doc]
	return stitch(w, root, pieces)
}

// buildPiece serializes the fragment anchored at slot into text segments,
// leaving a placeholder wherever an edge crosses out of the cluster.
func (s *Store) buildPiece(img *pageImage, slot uint16) *piece {
	p := &piece{}
	var sb strings.Builder
	flush := func() {
		if sb.Len() > 0 {
			p.segs = append(p.segs, seg{text: sb.String()})
			sb.Reset()
		}
	}
	var emit func(slot uint16)
	emit = func(slot uint16) {
		r := &img.recs[slot]
		stats.Inc(&s.led.NodesVisited)
		s.led.AdvanceCPU(s.model.CPUNodeVisit)
		switch r.kind {
		case RecDoc, RecProxyParent:
			for _, ch := range img.kids(r) {
				emit(ch)
			}
		case RecProxyChild:
			flush()
			p.segs = append(p.segs, seg{ref: r.target})
		case RecElem:
			sb.WriteByte('<')
			sb.WriteString(s.dict.Name(r.tag))
			for _, a := range img.attrsOf(r) {
				sb.WriteByte(' ')
				sb.WriteString(s.dict.Name(a.tag))
				sb.WriteString(`="`)
				sb.WriteString(xmlwrite.EscapeAttr(img.val(a)))
				sb.WriteByte('"')
			}
			if r.kidLen == 0 {
				sb.WriteString("/>")
				return
			}
			sb.WriteByte('>')
			for _, ch := range img.kids(r) {
				emit(ch)
			}
			sb.WriteString("</")
			sb.WriteString(s.dict.Name(r.tag))
			sb.WriteByte('>')
		case RecText:
			sb.WriteString(xmlwrite.EscapeText(img.text(r)))
		case RecComment:
			sb.WriteString("<!--")
			sb.WriteString(img.text(r))
			sb.WriteString("-->")
		case RecPI:
			sb.WriteString("<?")
			sb.WriteString(img.text(r))
			sb.WriteString("?>")
		}
	}
	emit(slot)
	flush()
	return p
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
