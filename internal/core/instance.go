// Package core implements the paper's contribution: the physical path
// algebra over partial path instances.
//
// A partial path instance (Sec. 4.3) represents an incomplete evaluation of
// a location path π: a consecutive range of steps [l, r] mapped to nodes,
// where either end may be a border node standing for an un-traversed
// inter-cluster edge. Following Sec. 4.4, instances are represented as
// 4-attribute tuples (S_L, N_L, S_R, N_R); right-incomplete instances carry
// S_R = r-1 ("the final step has not been fully evaluated").
//
// The operators — XStep, XAssembly(R), XSchedule(R), XScan (Sec. 5) — are
// iterators in the classic Open/Next/Close style. A plan is a chain
//
//	context → I/O operator (XSchedule | XScan) → XStep₁ … XStepₙ → XAssembly
//
// in which the single I/O operator performs every cluster load for the
// path, enabling asynchronous reordering or a single sequential scan, while
// the XStep operators perform only intra-cluster navigation. The Simple
// baseline (Sec. 5.1) is the same XStep chain with border crossing enabled
// (nested-loop Unnest-Map behaviour), which is also the fallback mode of
// Sec. 5.4.6.
package core

import (
	"fmt"

	"pathdb/internal/ordpath"
	"pathdb/internal/storage"
)

// Instance is a partial path instance in its 4-attribute tuple form.
//
// Invariants: 0 ≤ SL ≤ SR; NL/NR name nodes (core or border per the flags).
// When NRBorder is set, the instance is right-incomplete and SR is r-1.
// When NLBorder is set, the instance is left-incomplete (speculative).
type Instance struct {
	SL int
	NL storage.NodeID
	SR int
	NR storage.NodeID

	// Path tags the location path this instance belongs to when several
	// paths share one I/O-performing operator (the multi-query extension
	// of Sec. 7); single-path plans leave it 0.
	Path int

	NLBorder bool
	NRBorder bool

	// TargetR caches target(N_R) for right-incomplete instances, resolved
	// by XStep while the border's cluster was loaded (the companion NodeID
	// is stored inside the border record, Sec. 3.4). XAssembly reads it
	// without any further I/O. Zero when not applicable.
	TargetR storage.NodeID

	// Ord is the document-order key of NR, captured while its cluster was
	// loaded, so a final sort needs no further I/O (Sec. 5.5). Only set on
	// right-complete instances.
	Ord ordpath.Key

	// cur caches the swizzled representation of NR while the instance
	// flows between XStep operators (Sec. 5.3.2.3); operators that park
	// instances in memory structures drop it (unswizzle).
	cur    storage.Cursor
	curSet bool
}

// ContextInstance returns the instance representing a context node n:
// non-full, complete, with S_L = S_R = 0 (Sec. 5.1).
func ContextInstance(n storage.NodeID) Instance {
	return Instance{SL: 0, NL: n, SR: 0, NR: n}
}

// LeftComplete reports whether the left end is a core node.
func (p Instance) LeftComplete() bool { return !p.NLBorder }

// RightComplete reports whether the right end is a core node.
func (p Instance) RightComplete() bool { return !p.NRBorder }

// Complete reports whether both ends are core nodes.
func (p Instance) Complete() bool { return !p.NLBorder && !p.NRBorder }

// Full reports whether the instance is a full path instance for a path of
// the given length: complete with l = 0 and r = |π| (Sec. 4.2).
func (p Instance) Full(pathLen int) bool {
	return p.Complete() && p.SL == 0 && p.SR == pathLen
}

// EndL returns the left end (step, node) pair.
func (p Instance) EndL() End { return End{Step: p.SL, Node: p.NL} }

// dropCur strips the swizzled cache (used when parking the instance in a
// memory structure).
func (p Instance) dropCur() Instance {
	p.cur = storage.Cursor{}
	p.curSet = false
	return p
}

// String renders the tuple for debugging.
func (p Instance) String() string {
	lb, rb := "", ""
	if p.NLBorder {
		lb = "*"
	}
	if p.NRBorder {
		rb = "*"
	}
	return fmt.Sprintf("[%d:%v%s … %d:%v%s]", p.SL, p.NL, lb, p.SR, p.NR, rb)
}

// End identifies one end of a path instance: a (step, node) pair. Ends are
// the keys of the R and S structures in XAssembly.
type End struct {
	Step int
	Node storage.NodeID
}

// String renders the end pair.
func (e End) String() string { return fmt.Sprintf("(%d,%v)", e.Step, e.Node) }

// Operator is the iterator interface (Sec. 5.2) shared by all physical
// operators. Next returns ok=false when the sequence is exhausted. Open
// must be called before Next; Close releases state and may be called once
// after processing.
//
// Data corruption in the storage layer surfaces as a panic rather than an
// error return: the operators evaluate over an immutable, freshly imported
// volume, so I/O-level failures are programming errors in this codebase.
type Operator interface {
	Open()
	Next() (Instance, bool)
	Close()
}
