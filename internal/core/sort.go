package core

import (
	"pathdb/internal/ordpath"
	"pathdb/internal/stats"
	"pathdb/internal/storage"
)

// Distinct eliminates duplicate result nodes by their NodeID. A Simple plan
// needs it to honour XPath node-set semantics (Sec. 5.1) where its path
// shape admits duplicates (PathShape); XSchedule/XScan plans get duplicate
// elimination from XAssembly's R for free (Sec. 5.3.3.3).
type Distinct struct {
	es    *EvalState
	input Operator
	seen  map[storage.NodeID]bool
}

// NewDistinct wraps input with duplicate elimination.
func NewDistinct(es *EvalState, input Operator) *Distinct {
	return &Distinct{es: es, input: input}
}

// Open opens the producer and resets the seen set (borrowed from the arena
// when the plan has one).
func (d *Distinct) Open() {
	d.input.Open()
	d.seen = d.es.Arena.takeNodeSet()
}

// Close returns the seen set to the arena.
func (d *Distinct) Close() {
	d.input.Close()
	d.es.Arena.putNodeSet(d.seen)
	d.seen = nil
}

// Next returns the next previously unseen instance.
func (d *Distinct) Next() (Instance, bool) {
	for {
		in, ok := d.input.Next()
		if !ok {
			return Instance{}, false
		}
		d.es.chargeSetOp(1)
		stats.Inc(&d.es.ledger().SetLookups)
		if d.seen[in.NR] {
			continue
		}
		d.es.chargeSetOp(1)
		stats.Inc(&d.es.ledger().SetInserts)
		d.seen[in.NR] = true
		return in, true
	}
}

// SortByDocumentOrder materializes its input and emits it in document
// order using the ORDPATH-style keys captured on each instance — the
// final sort of Sec. 5.5, always required after cost-based reordering.
// It is the only pipeline breaker in a plan.
type SortByDocumentOrder struct {
	es    *EvalState
	input Operator
	buf   []Instance
	pos   int
	done  bool
}

// NewSortByDocumentOrder wraps input with the final sort.
func NewSortByDocumentOrder(es *EvalState, input Operator) *SortByDocumentOrder {
	return &SortByDocumentOrder{es: es, input: input}
}

// Open opens the producer and borrows the buffer from the arena;
// materialization is lazy on first Next.
func (s *SortByDocumentOrder) Open() {
	s.input.Open()
	s.buf = s.es.Arena.takeSorted()
	s.pos = 0
	s.done = false
}

// Close returns the buffer to the arena.
func (s *SortByDocumentOrder) Close() {
	s.input.Close()
	clear(s.buf) // the order keys alias decoded cluster images
	s.es.Arena.putSorted(s.buf)
	s.buf = nil
}

// Next drains the producer on first call, sorts, then emits in order.
func (s *SortByDocumentOrder) Next() (Instance, bool) {
	if !s.done {
		for {
			in, ok := s.input.Next()
			if !ok {
				break
			}
			s.buf = append(s.buf, in.dropCur())
		}
		// n log n comparisons, each charged as a set operation.
		if len(s.buf) > 1 {
			s.es.chargeSetOp(ordpath.SortStable(s.buf, func(in *Instance) ordpath.Key { return in.Ord }))
		}
		s.done = true
	}
	if s.pos >= len(s.buf) {
		return Instance{}, false
	}
	out := s.buf[s.pos]
	s.pos++
	return out, true
}

// SortResults sorts rs into document order by the keys the operators
// captured and returns the number of comparisons made, for the caller to
// charge (see ordpath.SortStable).
func SortResults(rs []Result) int {
	return ordpath.SortStable(rs, func(r *Result) ordpath.Key { return r.Ord })
}
