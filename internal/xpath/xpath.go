// Package xpath models XPath location paths: axes, node tests, steps, and
// a parser for the abbreviated and verbose syntaxes.
//
// As in Sec. 4.1 of the paper, node tests are sets of allowed tags (plus a
// kind constraint); this covers the location-path fragment the physical
// algebra evaluates. Predicates and other XPath constructs are out of
// scope, exactly as in the paper ("our physical algebra expressions can be
// incorporated into a more expressive algebra").
package xpath

import (
	"fmt"
	"strings"

	"pathdb/internal/xmltree"
)

// Axis enumerates the supported XPath axes.
type Axis uint8

// Supported axes. Following and preceding (full document-order axes) are
// not implemented; the paper's evaluation needs child and
// descendant(-or-self) only.
const (
	Self Axis = iota
	Child
	Descendant
	DescendantOrSelf
	Parent
	Ancestor
	AncestorOrSelf
	FollowingSibling
	PrecedingSibling
	AttributeAxis
)

var axisNames = map[Axis]string{
	Self:             "self",
	Child:            "child",
	Descendant:       "descendant",
	DescendantOrSelf: "descendant-or-self",
	Parent:           "parent",
	Ancestor:         "ancestor",
	AncestorOrSelf:   "ancestor-or-self",
	FollowingSibling: "following-sibling",
	PrecedingSibling: "preceding-sibling",
	AttributeAxis:    "attribute",
}

// String returns the XPath name of the axis.
func (a Axis) String() string {
	if s, ok := axisNames[a]; ok {
		return s
	}
	return fmt.Sprintf("axis(%d)", uint8(a))
}

// Reverse reports whether the axis runs against document order.
func (a Axis) Reverse() bool {
	switch a {
	case Parent, Ancestor, AncestorOrSelf, PrecedingSibling:
		return true
	}
	return false
}

// KindTest constrains the node kind a test accepts.
type KindTest uint8

// Kind tests.
const (
	KindAny     KindTest = iota // node()
	KindElement                 // name tests and *
	KindText                    // text()
	KindComment                 // comment()
	KindPI                      // processing-instruction()
)

// NodeTest is the paper's node test: a kind constraint plus a tag subset of
// the alphabet Σ. The zero value matches nothing; construct via the helper
// functions.
type NodeTest struct {
	Kind    KindTest
	AnyName bool            // ignore the tag (for *, node(), text(), …)
	Tags    []xmltree.TagID // allowed tags when !AnyName; small sorted set
}

// NameTest matches elements with exactly the given tag.
func NameTest(tag xmltree.TagID) NodeTest {
	return NodeTest{Kind: KindElement, Tags: []xmltree.TagID{tag}}
}

// NameSetTest matches elements with any of the given tags — the general
// "subset of Σ" form of the paper's model.
func NameSetTest(tags ...xmltree.TagID) NodeTest {
	out := NodeTest{Kind: KindElement, Tags: append([]xmltree.TagID(nil), tags...)}
	for i := 1; i < len(out.Tags); i++ {
		for j := i; j > 0 && out.Tags[j-1] > out.Tags[j]; j-- {
			out.Tags[j-1], out.Tags[j] = out.Tags[j], out.Tags[j-1]
		}
	}
	return out
}

// Wildcard matches every element (*).
func Wildcard() NodeTest { return NodeTest{Kind: KindElement, AnyName: true} }

// AnyNode matches every node (node()).
func AnyNode() NodeTest { return NodeTest{Kind: KindAny, AnyName: true} }

// TextTest matches text nodes (text()).
func TextTest() NodeTest { return NodeTest{Kind: KindText, AnyName: true} }

// CommentTest matches comment nodes (comment()).
func CommentTest() NodeTest { return NodeTest{Kind: KindComment, AnyName: true} }

// PITest matches processing instructions.
func PITest() NodeTest { return NodeTest{Kind: KindPI, AnyName: true} }

// Matches reports whether a node of the given kind and tag passes the test.
func (nt NodeTest) Matches(kind xmltree.Kind, tag xmltree.TagID) bool {
	switch nt.Kind {
	case KindAny:
		// node() matches everything except attributes on non-attribute axes;
		// axis semantics handle that, the test itself accepts all kinds.
	case KindElement:
		if kind != xmltree.Element && kind != xmltree.Attribute {
			return false
		}
	case KindText:
		return kind == xmltree.Text
	case KindComment:
		return kind == xmltree.Comment
	case KindPI:
		return kind == xmltree.ProcInst
	}
	if nt.AnyName {
		return true
	}
	for _, t := range nt.Tags {
		if t == tag {
			return true
		}
	}
	return false
}

// String renders the test in XPath syntax given the dictionary.
func (nt NodeTest) Render(dict *xmltree.Dictionary) string {
	switch nt.Kind {
	case KindAny:
		return "node()"
	case KindText:
		return "text()"
	case KindComment:
		return "comment()"
	case KindPI:
		return "processing-instruction()"
	}
	if nt.AnyName {
		return "*"
	}
	if len(nt.Tags) == 1 {
		return dict.Name(nt.Tags[0])
	}
	parts := make([]string, len(nt.Tags))
	for i, t := range nt.Tags {
		parts[i] = dict.Name(t)
	}
	return strings.Join(parts, "|")
}

// Predicate is an existence predicate on a step: a union of nested
// relative location paths, optionally compared against a string literal
// (true when any branch yields a node whose string-value matches). This is
// the "nested paths in predicates" case of the paper's outlook (Sec. 7);
// see core.PredFilter for how it is evaluated physically.
type Predicate struct {
	Paths   []*Path // union branches (at least one)
	Literal string  // comparison value when HasLit
	HasLit  bool
}

// Render writes the predicate in XPath syntax. Literals are quoted raw
// (XPath 1.0 has no escape sequences); the delimiter is chosen to avoid
// the literal's own quote character — a parsed literal can never contain
// both kinds.
func (p Predicate) Render(dict *xmltree.Dictionary) string {
	parts := make([]string, len(p.Paths))
	for i, b := range p.Paths {
		parts[i] = b.Render(dict)
	}
	s := strings.Join(parts, "|")
	if p.HasLit {
		q := `"`
		if strings.Contains(p.Literal, `"`) {
			q = "'"
		}
		s += "=" + q + p.Literal + q
	}
	return s
}

// Step is one location step: axis plus node test plus predicates.
type Step struct {
	Axis       Axis
	Test       NodeTest
	Predicates []Predicate
}

// Render writes the step in verbose XPath syntax.
func (s Step) Render(dict *xmltree.Dictionary) string {
	out := s.Axis.String() + "::" + s.Test.Render(dict)
	for _, p := range s.Predicates {
		out += "[" + p.Render(dict) + "]"
	}
	return out
}

// Path is a location path. Absolute paths start at the document root;
// relative paths start at an externally supplied context node sequence.
type Path struct {
	Absolute bool
	Steps    []Step

	// simplified marks the result of Simplify, nested predicate branches
	// included, so simplifying again is free.
	simplified bool
}

// Len returns |π|, the number of location steps.
func (p *Path) Len() int { return len(p.Steps) }

// Render writes the path in verbose XPath syntax.
func (p *Path) Render(dict *xmltree.Dictionary) string {
	var b strings.Builder
	if p.Absolute {
		b.WriteString("/")
	}
	for i, s := range p.Steps {
		if i > 0 {
			b.WriteString("/")
		}
		b.WriteString(s.Render(dict))
	}
	return b.String()
}

// Simplify applies the classic logical rewrite
// descendant-or-self::node()/child::T  =>  descendant::T,
// which shortens '//'-style paths by one step without changing results.
// It returns a new Path and leaves the receiver unchanged — unless the
// receiver is itself a result of Simplify, which is returned as it is (the
// rewrite is idempotent, and the operators ask again for every predicate
// branch they compile). This is the kind of orthogonal logical optimization
// the paper's requirement 4 asks the physical layer to interoperate with.
func (p *Path) Simplify() *Path {
	if p.simplified {
		return p
	}
	return &Path{Absolute: p.Absolute, Steps: simplifySteps(p.Steps), simplified: true}
}

func simplifySteps(steps []Step) []Step {
	var out []Step
	for i := 0; i < len(steps); i++ {
		s := steps[i]
		if s.Axis == DescendantOrSelf && s.Test.Kind == KindAny && len(s.Predicates) == 0 &&
			i+1 < len(steps) && steps[i+1].Axis == Child {
			out = append(out, Step{
				Axis:       Descendant,
				Test:       steps[i+1].Test,
				Predicates: simplifyPredicates(steps[i+1].Predicates),
			})
			i++
			continue
		}
		s.Predicates = simplifyPredicates(s.Predicates)
		out = append(out, s)
	}
	return out
}

// simplifyPredicates applies the rewrite inside predicate branches — the
// [.//a]-style recursion the parser accepts desugars to descendant steps
// the same way top-level '//' does. Returns fresh slices; the input is
// never mutated.
func simplifyPredicates(preds []Predicate) []Predicate {
	if len(preds) == 0 {
		return nil
	}
	out := make([]Predicate, len(preds))
	for i, pr := range preds {
		np := Predicate{Literal: pr.Literal, HasLit: pr.HasLit}
		np.Paths = make([]*Path, len(pr.Paths))
		for j, b := range pr.Paths {
			np.Paths[j] = b.Simplify()
		}
		out[i] = np
	}
	return out
}
