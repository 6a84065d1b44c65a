package core

import (
	"fmt"
	"strings"

	"pathdb/internal/xmltree"
)

// Describe renders the physical operator tree of the plan, one operator
// per line, producer-first — the EXPLAIN output of this engine — and then
// the order the plan delivers. Example:
//
//	XAssembly(|π|=2, feedback→XSchedule)
//	  XStep₂(descendant::item)
//	    XStep₁(child::regions)
//	      XSchedule(k=100, speculative=false)
//	        Context(1 node)
//	order: none
func (p *Plan) Describe(dict *xmltree.Dictionary) string {
	var b strings.Builder
	describeOp(&b, p.root, dict, 0)
	_, sorted := p.root.(*SortByDocumentOrder)
	switch {
	case sorted:
		b.WriteString("order: sorted\n")
	case p.Ordered:
		b.WriteString("order: document (no sort)\n")
	default:
		b.WriteString("order: none\n")
	}
	return b.String()
}

func describeOp(b *strings.Builder, op Operator, dict *xmltree.Dictionary, depth int) {
	indent := strings.Repeat("  ", depth)
	switch o := op.(type) {
	case *SortByDocumentOrder:
		fmt.Fprintf(b, "%sSortByDocumentOrder\n", indent)
		describeOp(b, o.input, dict, depth+1)
	case *Distinct:
		fmt.Fprintf(b, "%sDistinct\n", indent)
		describeOp(b, o.input, dict, depth+1)
	case *XAssembly:
		feedback := "none (scan plan)"
		if o.sched != nil {
			feedback = "XSchedule queue"
		}
		extra := ""
		if o.FirstStepAll {
			extra = ", //-optimisation"
		}
		fmt.Fprintf(b, "%sXAssembly(|π|=%d, feedback→%s%s)\n", indent, o.pathLen, feedback, extra)
		describeOp(b, o.input, dict, depth+1)
	case *PredFilter:
		fmt.Fprintf(b, "%sPredFilter(step %d, %d predicates)\n", indent, o.i, len(o.probes.preds))
		describeOp(b, o.input, dict, depth+1)
	case *XJoin:
		fmt.Fprintf(b, "%sXJoin(step %d, %d predicates, structural semi-join)\n", indent, o.i, len(o.preds))
		describeOp(b, o.input, dict, depth+1)
	case *XStep:
		mode := ""
		if o.CrossBorders {
			mode = ", unnest-map"
		}
		fmt.Fprintf(b, "%sXStep%s(%s%s)\n", indent, subscript(o.i), o.step.Render(dict), mode)
		describeOp(b, o.input, dict, depth+1)
	case *XSchedule:
		fmt.Fprintf(b, "%sXSchedule(k=%d, speculative=%v)\n", indent, o.K, o.Speculative)
		describeOp(b, o.producer, dict, depth+1)
	case *XScan:
		fmt.Fprintf(b, "%sXScan(%d clusters, sequential)\n", indent, o.n)
		describeOp(b, o.producer, dict, depth+1)
	case *ContextOp:
		fmt.Fprintf(b, "%sContext(%d nodes)\n", indent, len(o.ids))
	default:
		fmt.Fprintf(b, "%s%T\n", indent, op)
	}
}

// subscript renders a step number with Unicode subscript digits.
func subscript(i int) string {
	const digits = "₀₁₂₃₄₅₆₇₈₉"
	if i == 0 {
		return "₀"
	}
	var out []rune
	for i > 0 {
		d := i % 10
		out = append([]rune{[]rune(digits)[d]}, out...)
		i /= 10
	}
	return string(out)
}
