package storage

import (
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"

	"pathdb/internal/stats"
	"pathdb/internal/xmltree"
	"pathdb/internal/xpath"
)

// liveIters counts StepIters checked out by Step and not yet Released. A
// query that ends — normally, by cancellation, or by a fault-plane panic
// unwinding through the operator chain — must restore the count, so tests
// can assert no navigation iterator leaks from any exit path.
var liveIters atomic.Int64

// LiveStepIters returns the number of navigation iterators currently
// checked out of the pool (leak detection in tests).
func LiveStepIters() int64 { return liveIters.Load() }

// StepIter enumerates, one node at a time, the result of applying a single
// location step to a context cursor using intra-cluster navigation only —
// the navigational primitive of Sec. 3.5. Core nodes are filtered through
// the step's node test; border nodes encountered during the enumeration
// are returned as-is (the caller defers the crossing), implementing the
// two cases of the XStep algorithm (Sec. 5.3.2.2).
//
// The context may itself be a border node, in which case the iterator
// performs the *continuation* of an interrupted enumeration on the far
// side of the border. The continuation semantics dispatch on the border
// kind: a ProxyParent continues a downward crossing (child/descendant/
// sibling arrival), a ProxyChild continues an upward crossing (parent/
// ancestor/sibling departure).
//
// Records sit on the page in pre-order, so children are p+1, then each
// child's subtree end, up to p's own end, and descendants are the range
// [p+1, end): nothing is looked up but the entries.
//
// Iterators come from a pool: callers that finish with one should Release
// it so the next Step reuses the struct and its scratch instead of
// allocating — Step is the hottest allocation site. Releasing is optional
// (unreleased iterators are ordinary garbage) but using an iterator after
// Release is a use-after-free.
type StepIter struct {
	st  *Store
	img *pageImage

	axis xpath.Axis
	test xpath.NodeTest
	m    entryTest

	mode     iterMode
	ctx      int      // context position
	pos      int      // next candidate (kids, bits, single and up modes; noParent ends the last two)
	end      int      // kids mode: the parent's subtree end; bits mode: the range end
	extra    int      // kids mode: a final candidate after the walk, or noParent
	list     []uint16 // list mode: the candidates in visiting order, in scratch
	attrs    []byte   // attribute mode: the attributes not yet visited
	attr     int      // attribute mode: index of the next one; attribute context: its index
	selfAttr bool     // emit the context attribute itself first

	bits    []uint64 // bits mode: the test's matches and the borders, by position
	scratch []uint16
}

type iterMode uint8

const (
	modeDone iterMode = iota
	modeSingle
	modeKids
	modeList
	modeUp
	modeAttrs
	modeBits
)

// stepIterPool recycles released StepIters (with their scratch) so
// steady-state navigation does not allocate per step.
var stepIterPool = sync.Pool{New: func() any { return new(StepIter) }}

// Release returns the iterator to the pool, keeping its scratch for reuse.
// The iterator must not be used afterwards. Safe on a nil iterator.
func (it *StepIter) Release() {
	if it == nil {
		return
	}
	liveIters.Add(-1)
	*it = StepIter{scratch: it.scratch[:0]}
	stepIterPool.Put(it)
}

// chargeMask bills a name-test mask over the cluster: one set operation per
// bitset word, whether or not a mask is built for the step.
func (it *StepIter) chargeMask() {
	it.st.led.AdvanceCPU(stats.Ticks((it.img.n+63)/64) * it.st.model.CPUSetOp)
}

// bitRange enumerates the positions [lo, hi) through the test's mask — the
// batched form of a depth-first subtree enumeration.
func (it *StepIter) bitRange(lo, hi int) {
	it.mode, it.pos, it.end = modeBits, lo, hi
	it.bits = it.img.mask(it.test)
	it.chargeMask()
}

// kids walks the children of p.
func (it *StepIter) kids(p int) {
	it.mode, it.pos, it.end = modeKids, p+1, it.img.end(p)
	it.chargeMask()
}

func (it *StepIter) single(p int) {
	it.mode, it.pos = modeSingle, p
	if p == noParent {
		it.mode = modeDone
	}
}

func (it *StepIter) up(p int) { it.mode, it.pos = modeUp, p }

// Step starts the enumeration of one location step from ctx.
func (s *Store) Step(ctx Cursor, axis xpath.Axis, test xpath.NodeTest) *StepIter {
	it := stepIterPool.Get().(*StepIter)
	liveIters.Add(1)
	img, p := ctx.img, int(ctx.pos)
	*it = StepIter{st: s, img: img, axis: axis, test: test, m: compileTest(test), ctx: p, extra: noParent, scratch: it.scratch[:0]}

	if ctx.attr >= 0 {
		// From an attribute node only self, parent and the ancestor axes
		// are meaningful (attributes have no children or siblings in the
		// XPath data model).
		switch axis {
		case xpath.Self:
			it.selfAttr, it.attr = true, ctx.attr
		case xpath.AncestorOrSelf:
			it.selfAttr, it.attr = true, ctx.attr
			it.up(p)
		case xpath.Parent:
			it.single(p)
		case xpath.Ancestor:
			it.up(p)
		}
		return it
	}

	switch ctx.kind {
	case RecProxyParent:
		// Downward continuation: everything below this anchor belongs to
		// the interrupted enumeration.
		switch axis {
		case xpath.Child, xpath.FollowingSibling:
			it.kids(p)
		case xpath.PrecedingSibling:
			it.reversed(p+1, img.end(p), noParent)
		case xpath.Descendant, xpath.DescendantOrSelf:
			it.bitRange(p+1, img.end(p))
		}
	case RecProxyChild:
		// Upward continuation.
		switch axis {
		case xpath.Parent:
			it.single(img.parent(p))
		case xpath.Ancestor, xpath.AncestorOrSelf:
			it.up(img.parent(p))
		case xpath.FollowingSibling, xpath.PrecedingSibling:
			it.siblings(p)
		}
	default: // core node
		switch axis {
		case xpath.Self:
			it.single(p)
		case xpath.Child:
			it.kids(p)
		case xpath.Descendant:
			it.bitRange(p+1, img.end(p))
		case xpath.DescendantOrSelf:
			it.bitRange(p, img.end(p))
		case xpath.Parent:
			it.single(img.parent(p))
		case xpath.Ancestor:
			it.up(img.parent(p))
		case xpath.AncestorOrSelf:
			it.up(p)
		case xpath.FollowingSibling, xpath.PrecedingSibling:
			it.siblings(p)
		case xpath.AttributeAxis:
			if ctx.kind == RecElem {
				it.mode, it.attrs = modeAttrs, img.body(p)
			}
		default:
			panic(fmt.Sprintf("storage: unsupported axis %v", axis))
		}
	}
	return it
}

// siblings prepares sibling iteration for the record at p: the parent's
// other children after p (or before it, nearest first). A fragment root's
// remaining siblings live across the border: its physical parent is the
// ProxyParent anchor, which the walk will not surface by itself — the
// anchor *is* the border to emit, so it comes as the final candidate.
func (it *StepIter) siblings(p int) {
	img := it.img
	par := img.parent(p)
	if par == noParent {
		return
	}
	anchor := noParent
	if img.kind(par) == RecProxyParent {
		anchor = par
	}
	if it.axis == xpath.FollowingSibling {
		it.mode, it.pos, it.end, it.extra = modeKids, img.end(p), img.end(par), anchor
		it.chargeMask()
		return
	}
	it.reversed(par+1, p, anchor)
}

// reversed lists the siblings from first up to (not including) stop, nearest
// to stop first, then last if it is a position.
func (it *StepIter) reversed(first, stop, last int) {
	list := it.scratch[:0]
	for c := first; c < stop; c = it.img.end(c) {
		list = append(list, uint16(c))
	}
	for i, j := 0, len(list)-1; i < j; i, j = i+1, j-1 {
		list[i], list[j] = list[j], list[i]
	}
	if last != noParent {
		list = append(list, uint16(last))
	}
	it.mode, it.list, it.scratch = modeList, list, list
	it.chargeMask()
}

// Next returns the next step result. Border nodes are returned untested;
// core nodes are filtered through the node test. ok is false at the end.
func (it *StepIter) Next() (Cursor, bool) {
	led, img := it.st.led, it.img
	visit := it.st.model.CPUNodeVisit
	if it.selfAttr {
		it.selfAttr = false
		stats.Inc(&led.NodesVisited)
		led.AdvanceCPU(visit)
		if tag, _ := img.attr(it.ctx, it.attr); it.test.Matches(xmltree.Attribute, tag) {
			return img.cursor(it.st, it.ctx, it.attr), true
		}
	}
	for {
		var p int
		switch it.mode {
		case modeDone:
			return Cursor{}, false

		case modeSingle:
			p, it.mode = it.pos, modeDone

		case modeKids:
			switch {
			case it.pos < it.end:
				p, it.pos = it.pos, img.end(it.pos)
			case it.extra != noParent:
				p, it.extra = it.extra, noParent
			default:
				return Cursor{}, false
			}

		case modeList:
			if len(it.list) == 0 {
				return Cursor{}, false
			}
			p, it.list = int(it.list[0]), it.list[1:]

		case modeUp:
			if it.pos == noParent {
				return Cursor{}, false
			}
			p, it.pos = it.pos, img.parent(it.pos)
			if img.kind(p) == RecProxyParent {
				it.pos = noParent // border ends the intra-cluster chain
			}

		case modeAttrs:
			if len(it.attrs) == 0 {
				return Cursor{}, false
			}
			stats.Inc(&led.NodesVisited)
			led.AdvanceCPU(visit)
			a := it.attr
			var tag xmltree.TagID
			tag, _, it.attrs = nextAttr(it.attrs)
			it.attr++
			if !it.test.Matches(xmltree.Attribute, tag) {
				continue
			}
			return img.cursor(it.st, it.ctx, a), true

		case modeBits:
			// Batched enumeration: scan the (test ∪ border) mask words over
			// the subtree's range. The virtual clock still charges one node
			// visit per record passed over — the cost model describes the
			// paper's node-at-a-time system, not this implementation's
			// word-level scan — accrued at the same per-Next granularity as
			// a per-node walk would.
			from := it.pos
			for it.pos < it.end {
				w := it.pos >> 6
				word := it.bits[w] & (^uint64(0) << uint(it.pos&63))
				if w == it.end>>6 {
					word &= uint64(1)<<uint(it.end&63) - 1
				}
				if word == 0 {
					it.pos = min((w+1)<<6, it.end)
					continue
				}
				q := w<<6 + bits.TrailingZeros64(word)
				it.pos = q + 1
				it.charge(it.pos - from)
				return img.cursor(it.st, q, -1), true
			}
			if it.pos > from {
				it.charge(it.pos - from)
			}
			return Cursor{}, false
		}

		stats.Inc(&led.NodesVisited)
		led.AdvanceCPU(visit)
		w0 := img.word(p, 0)
		if k := RecKind(w0 & 7); k.IsProxy() || it.m.matches(&it.test, img, p, w0) {
			return Cursor{st: it.st, img: img, page: img.page, pos: uint16(p), kind: k, attr: -1}, true
		}
	}
}

// charge bills a node visit for each of n records the batched scan passed
// over — the records a node-at-a-time DFS would have visited and rejected.
func (it *StepIter) charge(n int) {
	stats.Add(&it.st.led.NodesVisited, int64(n))
	it.st.led.AdvanceCPU(stats.Ticks(n) * it.st.model.CPUNodeVisit)
}

// entryTest is a node test compiled against the first word of an entry:
// the record kinds it accepts, by bit, and the one element tag it names
// (anyTag: any). A test beyond that shape is asked itself (slow).
type entryTest struct {
	kinds uint8
	tag   int
	slow  bool
}

const anyTag = -1

func compileTest(test xpath.NodeTest) entryTest {
	var kinds uint8
	switch test.Kind {
	case xpath.KindAny:
		kinds = 1<<RecDoc | 1<<RecElem | 1<<RecText | 1<<RecComment | 1<<RecPI
	case xpath.KindElement:
		kinds = 1 << RecElem
	case xpath.KindText:
		kinds = 1 << RecText
	case xpath.KindComment:
		kinds = 1 << RecComment
	case xpath.KindPI:
		kinds = 1 << RecPI
	}
	switch {
	case test.AnyName:
		return entryTest{kinds: kinds, tag: anyTag}
	case test.Kind == xpath.KindElement && len(test.Tags) == 1 && test.Tags[0] >= 0 && test.Tags[0] < tagEscape:
		return entryTest{kinds: kinds, tag: int(test.Tags[0])}
	}
	return entryTest{slow: true}
}

// matches reports whether the core record at p, whose entry begins with w0,
// passes test, which m was compiled from.
func (m *entryTest) matches(test *xpath.NodeTest, img *pageImage, p, w0 int) bool {
	if m.slow {
		return test.Matches(RecKind(w0&7).LogicalKind(), img.tag(p))
	}
	return m.kinds>>(w0&7)&1 != 0 && (m.tag == anyTag || w0>>tagShift == m.tag)
}
