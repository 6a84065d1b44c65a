// Package xmlparse implements a small, fast, non-validating XML parser that
// produces xmltree documents.
//
// It supports the subset of XML that the XMark benchmark documents (and
// typical database-stored XML) use: elements, attributes (single- or
// double-quoted), character data, CDATA sections, comments, processing
// instructions, the XML declaration, a DOCTYPE declaration (skipped), and
// the five predefined entities plus decimal/hex character references.
// Namespaces are treated lexically: a qualified name is interned verbatim.
//
// The parser checks well-formedness (tag balance, attribute quoting, name
// syntax) and reports errors with line/column positions.
package xmlparse

import (
	"fmt"
	"strings"

	"pathdb/internal/xmltree"
)

// SyntaxError describes a well-formedness violation.
type SyntaxError struct {
	Line, Col int
	Msg       string
}

func (e *SyntaxError) Error() string {
	return fmt.Sprintf("xml: line %d, col %d: %s", e.Line, e.Col, e.Msg)
}

// Parse parses the document in src, interning names into dict.
func Parse(dict *xmltree.Dictionary, src []byte) (*xmltree.Node, error) {
	p := &parser{dict: dict, src: src, line: 1, col: 1}
	return p.parseDocument()
}

// ParseString is Parse over a string.
func ParseString(dict *xmltree.Dictionary, src string) (*xmltree.Node, error) {
	return Parse(dict, []byte(src))
}

type parser struct {
	dict *xmltree.Dictionary
	src  []byte
	pos  int
	line int
	col  int
}

func (p *parser) errf(format string, args ...any) error {
	return &SyntaxError{Line: p.line, Col: p.col, Msg: fmt.Sprintf(format, args...)}
}

func (p *parser) eof() bool { return p.pos >= len(p.src) }

func (p *parser) peek() byte {
	if p.eof() {
		return 0
	}
	return p.src[p.pos]
}

func (p *parser) advance() byte {
	c := p.src[p.pos]
	p.pos++
	if c == '\n' {
		p.line++
		p.col = 1
	} else {
		p.col++
	}
	return c
}

func (p *parser) skipWS() {
	for !p.eof() {
		switch p.peek() {
		case ' ', '\t', '\r', '\n':
			p.advance()
		default:
			return
		}
	}
}

func (p *parser) hasPrefix(s string) bool {
	return p.pos+len(s) <= len(p.src) && string(p.src[p.pos:p.pos+len(s)]) == s
}

func (p *parser) consume(s string) bool {
	if !p.hasPrefix(s) {
		return false
	}
	for range s {
		p.advance()
	}
	return true
}

// readUntil returns the bytes before the first occurrence of s and consumes
// the delimiter.
func (p *parser) readUntil(s string) (string, bool) {
	start := p.pos
	for !p.eof() {
		if p.hasPrefix(s) {
			out := string(p.src[start:p.pos])
			p.consume(s)
			return out, true
		}
		p.advance()
	}
	return "", false
}

func isNameStart(c byte) bool {
	return c == '_' || c == ':' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c >= 0x80
}

func isNameChar(c byte) bool {
	return isNameStart(c) || c == '-' || c == '.' || (c >= '0' && c <= '9')
}

func (p *parser) readName() (string, error) {
	if p.eof() || !isNameStart(p.peek()) {
		return "", p.errf("expected name")
	}
	start := p.pos
	for !p.eof() && isNameChar(p.peek()) {
		p.advance()
	}
	return string(p.src[start:p.pos]), nil
}

func (p *parser) parseDocument() (*xmltree.Node, error) {
	doc := xmltree.NewDocument()
	sawRoot := false
	for {
		p.skipWS()
		if p.eof() {
			break
		}
		if p.peek() != '<' {
			return nil, p.errf("content outside root element")
		}
		switch {
		case p.hasPrefix("<?"):
			if err := p.parseProcInst(doc); err != nil {
				return nil, err
			}
		case p.hasPrefix("<!--"):
			if err := p.parseComment(doc); err != nil {
				return nil, err
			}
		case p.hasPrefix("<!DOCTYPE"):
			if err := p.skipDoctype(); err != nil {
				return nil, err
			}
		case p.hasPrefix("<!"):
			return nil, p.errf("unexpected markup declaration")
		default:
			if sawRoot {
				return nil, p.errf("multiple root elements")
			}
			if err := p.parseElement(doc); err != nil {
				return nil, err
			}
			sawRoot = true
		}
	}
	if !sawRoot {
		return nil, p.errf("document has no root element")
	}
	return doc, nil
}

func (p *parser) skipDoctype() error {
	p.consume("<!DOCTYPE")
	depth := 1
	for !p.eof() {
		switch p.advance() {
		case '<':
			depth++
		case '>':
			depth--
			if depth == 0 {
				return nil
			}
		}
	}
	return p.errf("unterminated DOCTYPE")
}

func (p *parser) parseProcInst(parent *xmltree.Node) error {
	p.consume("<?")
	body, ok := p.readUntil("?>")
	if !ok {
		return p.errf("unterminated processing instruction")
	}
	// The XML declaration is recognised and dropped; other PIs are kept.
	if strings.HasPrefix(body, "xml") && (len(body) == 3 || body[3] == ' ' || body[3] == '\t') {
		return nil
	}
	parent.AppendChild(&xmltree.Node{Kind: xmltree.ProcInst, Tag: xmltree.NoTag, Text: body})
	return nil
}

func (p *parser) parseComment(parent *xmltree.Node) error {
	p.consume("<!--")
	body, ok := p.readUntil("-->")
	if !ok {
		return p.errf("unterminated comment")
	}
	parent.AppendChild(&xmltree.Node{Kind: xmltree.Comment, Tag: xmltree.NoTag, Text: body})
	return nil
}

func (p *parser) parseElement(parent *xmltree.Node) error {
	if !p.consume("<") {
		return p.errf("expected '<'")
	}
	name, err := p.readName()
	if err != nil {
		return err
	}
	elem := xmltree.NewElement(p.dict.Intern(name))
	parent.AppendChild(elem)

	// Attributes.
	for {
		p.skipWS()
		if p.eof() {
			return p.errf("unterminated start tag <%s", name)
		}
		c := p.peek()
		if c == '>' || c == '/' {
			break
		}
		aname, err := p.readName()
		if err != nil {
			return p.errf("bad attribute name in <%s>", name)
		}
		p.skipWS()
		if !p.consume("=") {
			return p.errf("attribute %s in <%s> missing '='", aname, name)
		}
		p.skipWS()
		quote := p.peek()
		if quote != '"' && quote != '\'' {
			return p.errf("attribute %s in <%s> not quoted", aname, name)
		}
		p.advance()
		raw, ok := p.readUntil(string(quote))
		if !ok {
			return p.errf("unterminated attribute value for %s", aname)
		}
		val, err := p.expandEntities(raw)
		if err != nil {
			return err
		}
		elem.SetAttr(p.dict.Intern(aname), val)
	}

	if p.consume("/>") {
		return nil
	}
	if !p.consume(">") {
		return p.errf("malformed start tag <%s", name)
	}
	return p.parseContent(elem, name)
}

func (p *parser) parseContent(elem *xmltree.Node, name string) error {
	var textBuf strings.Builder
	flushText := func() error {
		if textBuf.Len() == 0 {
			return nil
		}
		s, err := p.expandEntities(textBuf.String())
		if err != nil {
			return err
		}
		elem.AppendChild(xmltree.NewText(s))
		textBuf.Reset()
		return nil
	}
	for {
		if p.eof() {
			return p.errf("unterminated element <%s>", name)
		}
		if p.peek() != '<' {
			textBuf.WriteByte(p.advance())
			continue
		}
		switch {
		case p.hasPrefix("</"):
			if err := flushText(); err != nil {
				return err
			}
			p.consume("</")
			end, err := p.readName()
			if err != nil {
				return err
			}
			if end != name {
				return p.errf("mismatched end tag </%s>, open element is <%s>", end, name)
			}
			p.skipWS()
			if !p.consume(">") {
				return p.errf("malformed end tag </%s", end)
			}
			return nil
		case p.hasPrefix("<!--"):
			if err := flushText(); err != nil {
				return err
			}
			if err := p.parseComment(elem); err != nil {
				return err
			}
		case p.hasPrefix("<![CDATA["):
			p.consume("<![CDATA[")
			body, ok := p.readUntil("]]>")
			if !ok {
				return p.errf("unterminated CDATA section")
			}
			// CDATA is literal text; bypass entity expansion.
			if err := flushText(); err != nil {
				return err
			}
			elem.AppendChild(xmltree.NewText(body))
		case p.hasPrefix("<?"):
			if err := flushText(); err != nil {
				return err
			}
			if err := p.parseProcInst(elem); err != nil {
				return err
			}
		case p.hasPrefix("<!"):
			return p.errf("unexpected markup declaration in content")
		default:
			if err := flushText(); err != nil {
				return err
			}
			if err := p.parseElement(elem); err != nil {
				return err
			}
		}
	}
}

// expandEntities resolves the predefined entities and character references.
func (p *parser) expandEntities(s string) (string, error) {
	if !strings.ContainsRune(s, '&') {
		return s, nil
	}
	var b strings.Builder
	b.Grow(len(s))
	for i := 0; i < len(s); {
		c := s[i]
		if c != '&' {
			b.WriteByte(c)
			i++
			continue
		}
		semi := strings.IndexByte(s[i:], ';')
		if semi < 0 {
			return "", p.errf("unterminated entity reference")
		}
		ent := s[i+1 : i+semi]
		switch {
		case ent == "lt":
			b.WriteByte('<')
		case ent == "gt":
			b.WriteByte('>')
		case ent == "amp":
			b.WriteByte('&')
		case ent == "apos":
			b.WriteByte('\'')
		case ent == "quot":
			b.WriteByte('"')
		case strings.HasPrefix(ent, "#x") || strings.HasPrefix(ent, "#X"):
			r, err := parseUint(ent[2:], 16)
			if err != nil {
				return "", p.errf("bad character reference &%s;", ent)
			}
			b.WriteRune(rune(r))
		case strings.HasPrefix(ent, "#"):
			r, err := parseUint(ent[1:], 10)
			if err != nil {
				return "", p.errf("bad character reference &%s;", ent)
			}
			b.WriteRune(rune(r))
		default:
			return "", p.errf("unknown entity &%s;", ent)
		}
		i += semi + 1
	}
	return b.String(), nil
}

func parseUint(s string, base uint32) (uint32, error) {
	if s == "" {
		return 0, fmt.Errorf("empty")
	}
	var v uint32
	for i := 0; i < len(s); i++ {
		c := s[i]
		var d uint32
		switch {
		case c >= '0' && c <= '9':
			d = uint32(c - '0')
		case c >= 'a' && c <= 'f':
			d = uint32(c-'a') + 10
		case c >= 'A' && c <= 'F':
			d = uint32(c-'A') + 10
		default:
			return 0, fmt.Errorf("bad digit %q", c)
		}
		if d >= base {
			return 0, fmt.Errorf("digit %q out of base", c)
		}
		v = v*base + d
		if v > 0x10FFFF {
			return 0, fmt.Errorf("rune out of range")
		}
	}
	return v, nil
}
