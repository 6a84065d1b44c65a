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
// Iterators come from a pool: callers that finish with one should Release
// it so the next Step on the same worker reuses the struct and its slot
// scratch instead of allocating — Step is the hottest allocation site and
// its cost multiplies under parallel gangs. Releasing is optional
// (unreleased iterators are ordinary garbage) but using an iterator after
// Release is a use-after-free.
type StepIter struct {
	st  *Store
	img *pageImage

	axis xpath.Axis
	test xpath.NodeTest

	mode     iterMode
	slots    []uint16 // list mode candidates / DFS stack
	pos      int      // list mode position
	rev      bool     // list mode: iterate in reverse
	up       int      // up mode: next slot, -1 when done
	attrs    int      // attr mode position / context attribute index
	slot     uint16   // context slot (attr modes)
	selfAttr bool     // emit the context attribute itself first
	done     bool

	// Bitmap-batched state (modeBits, and bit-filtered list modes): the
	// name-test occupancy mask over the cluster's pre-order positions.
	// bits may be nil (test matches no core record — only borders emit);
	// it aliases either an immutable nav-owned bitset or maskBuf.
	bits    []uint64
	bitPos  int // next pre-order position to probe (modeBits)
	bitEnd  int // exclusive end of the pre-order range (modeBits)
	useBits bool

	owned   bool     // slots is iterator-owned scratch, not a page alias
	scratch []uint16 // retained backing array for owned slots
	maskBuf []uint64 // retained scratch for combined test masks
}

type iterMode uint8

const (
	modeDone iterMode = iota
	modeSingle
	modeList
	modeUp
	modeAttrs
	modeBits
)

// stepIterPool recycles released StepIters (with their slot scratch) so
// steady-state navigation does not allocate per step.
var stepIterPool = sync.Pool{New: func() any { return new(StepIter) }}

// Release returns the iterator to the pool, keeping the larger of its
// scratch and an iterator-owned slots array for reuse. The iterator must
// not be used afterwards. Safe on a nil iterator.
func (it *StepIter) Release() {
	if it == nil {
		return
	}
	liveIters.Add(-1)
	scratch := it.scratch
	if it.owned && cap(it.slots) > cap(scratch) {
		scratch = it.slots
	}
	maskBuf := it.maskBuf
	*it = StepIter{scratch: scratch[:0], maskBuf: maskBuf[:0]}
	stepIterPool.Put(it)
}

// initMask materializes the test's occupancy mask for the cluster and
// enables bit-filtered emission. The mask build costs one set operation
// per bitset word, charged here; every emitted node still pays its visit.
func (it *StepIter) initMask(nav *pageNav) {
	if cap(it.maskBuf) < nav.words {
		it.maskBuf = make([]uint64, nav.words)
	}
	it.bits = nav.testMask(it.test, it.maskBuf[:nav.words])
	it.useBits = true
	it.st.led.AdvanceCPU(stats.Ticks(nav.words) * it.st.model.CPUSetOp)
}

// initBitRange switches the iterator to modeBits over the pre-order range
// [lo, hi) — the batched form of a depth-first subtree enumeration.
func (it *StepIter) initBitRange(nav *pageNav, lo, hi int) {
	it.mode = modeBits
	it.bitPos, it.bitEnd = lo, hi
	it.initMask(nav)
}

// own makes slots a single iterator-owned candidate.
func (it *StepIter) own(v uint16) {
	it.slots = append(it.scratch[:0], v)
	it.owned = true
}

// Step starts the enumeration of one location step from ctx.
func (s *Store) Step(ctx Cursor, axis xpath.Axis, test xpath.NodeTest) *StepIter {
	it := stepIterPool.Get().(*StepIter)
	liveIters.Add(1)
	scratch := it.scratch
	maskBuf := it.maskBuf
	*it = StepIter{st: s, img: ctx.img, axis: axis, test: test, slot: ctx.slot, scratch: scratch[:0], maskBuf: maskBuf[:0]}
	r := ctx.rec()

	if ctx.attr >= 0 {
		// From an attribute node only self, parent and the ancestor axes
		// are meaningful (attributes have no children or siblings in the
		// XPath data model).
		switch axis {
		case xpath.Self:
			it.selfAttr = true
			it.attrs = ctx.attr
			it.mode = modeDone
		case xpath.AncestorOrSelf:
			it.selfAttr = true
			it.attrs = ctx.attr
			it.mode = modeUp
			it.up = int(ctx.slot)
		case xpath.Parent:
			it.mode = modeSingle
			it.own(ctx.slot)
		case xpath.Ancestor:
			it.mode = modeUp
			it.up = int(ctx.slot)
		default:
			it.mode = modeDone
		}
		return it
	}

	img, nav := ctx.img, &ctx.img.nav

	switch r.kind {
	case RecProxyParent:
		// Downward continuation: everything below this anchor belongs to
		// the interrupted enumeration.
		switch axis {
		case xpath.Child, xpath.FollowingSibling, xpath.PrecedingSibling:
			it.mode = modeList
			it.slots = img.kids(r)
			it.rev = axis == xpath.PrecedingSibling
			it.initMask(nav)
		case xpath.Descendant, xpath.DescendantOrSelf:
			it.initBitRange(nav, int(nav.pre[ctx.slot])+1, int(nav.subEnd[ctx.slot]))
		default:
			it.mode = modeDone
		}
	case RecProxyChild:
		// Upward continuation.
		switch axis {
		case xpath.Parent:
			it.mode = modeSingle
			if r.parent == noParent {
				it.mode = modeDone
			} else {
				it.own(uint16(r.parent))
			}
		case xpath.Ancestor, xpath.AncestorOrSelf:
			it.mode = modeUp
			it.up = int(r.parent)
		case xpath.FollowingSibling, xpath.PrecedingSibling:
			it.initSiblings(r)
		default:
			it.mode = modeDone
		}
	default: // core node
		switch axis {
		case xpath.Self:
			it.mode = modeSingle
			it.own(ctx.slot)
		case xpath.Child:
			it.mode = modeList
			it.slots = img.kids(r)
			it.initMask(nav)
		case xpath.Descendant:
			it.initBitRange(nav, int(nav.pre[ctx.slot])+1, int(nav.subEnd[ctx.slot]))
		case xpath.DescendantOrSelf:
			it.initBitRange(nav, int(nav.pre[ctx.slot]), int(nav.subEnd[ctx.slot]))
		case xpath.Parent:
			it.mode = modeSingle
			if r.parent == noParent {
				it.mode = modeDone
			} else {
				it.own(uint16(r.parent))
			}
		case xpath.Ancestor:
			it.mode = modeUp
			it.up = int(r.parent)
		case xpath.AncestorOrSelf:
			it.mode = modeUp
			it.up = int(ctx.slot)
		case xpath.FollowingSibling, xpath.PrecedingSibling:
			it.initSiblings(r)
		case xpath.AttributeAxis:
			if r.kind == RecElem && r.attrLen > 0 {
				it.mode = modeAttrs
			} else {
				it.mode = modeDone
			}
		default:
			panic(fmt.Sprintf("storage: unsupported axis %v", axis))
		}
	}
	return it
}

// initSiblings prepares sibling iteration for the record r at it.slot:
// the candidates are the parent's other children after (or before,
// reversed) r's own position, filtered through the test's mask.
func (it *StepIter) initSiblings(r *imgRec) {
	if r.parent == noParent {
		it.mode = modeDone
		return
	}
	sibs := it.img.kids(&it.img.recs[r.parent])
	idx := -1
	for i, s := range sibs {
		if s == it.slot {
			idx = i
			break
		}
	}
	if idx < 0 {
		panic("storage: node missing from its parent's child list")
	}
	it.mode = modeList
	if it.axis == xpath.FollowingSibling {
		it.slots = sibs[idx+1:]
	} else {
		it.slots = sibs[:idx]
		it.rev = true
	}
	// A fragment root's remaining siblings live across the border: its
	// physical parent is the ProxyParent anchor, which the list walk will
	// not surface by itself — the anchor *is* the border to emit, so
	// append it as a final candidate (into iterator-owned scratch; the
	// page's child list must stay untouched).
	if it.img.recs[r.parent].kind == RecProxyParent {
		appended := it.scratch[:0]
		if it.rev {
			// Reverse iteration visits it last if placed first.
			appended = append(appended, uint16(r.parent))
			appended = append(appended, it.slots...)
		} else {
			appended = append(appended, it.slots...)
			appended = append(appended, uint16(r.parent))
		}
		it.slots = appended
		it.owned = true
	}
	it.initMask(&it.img.nav)
}

// Next returns the next step result. Border nodes are returned untested;
// core nodes are filtered through the node test. ok is false at the end.
func (it *StepIter) Next() (Cursor, bool) {
	led := it.st.led
	visit := it.st.model.CPUNodeVisit
	if it.selfAttr {
		it.selfAttr = false
		stats.Inc(&led.NodesVisited)
		led.AdvanceCPU(visit)
		if it.test.Matches(xmltree.Attribute, it.img.attrsOf(&it.img.recs[it.slot])[it.attrs].tag) {
			return Cursor{st: it.st, img: it.img, page: it.img.page, slot: it.slot, attr: it.attrs}, true
		}
	}
	for {
		var slot int
		switch it.mode {
		case modeDone:
			return Cursor{}, false

		case modeSingle:
			if it.done {
				return Cursor{}, false
			}
			it.done = true
			slot = int(it.slots[0])

		case modeList:
			if it.pos >= len(it.slots) {
				return Cursor{}, false
			}
			if it.rev {
				slot = int(it.slots[len(it.slots)-1-it.pos])
			} else {
				slot = int(it.slots[it.pos])
			}
			it.pos++

		case modeUp:
			if it.up == noParent {
				return Cursor{}, false
			}
			slot = it.up
			it.up = int(it.img.recs[slot].parent)
			if it.img.recs[slot].kind == RecProxyParent {
				it.up = noParent // border ends the intra-cluster chain
			}

		case modeAttrs:
			attrs := it.img.attrsOf(&it.img.recs[it.slot])
			if it.attrs >= len(attrs) {
				return Cursor{}, false
			}
			stats.Inc(&led.NodesVisited)
			led.AdvanceCPU(visit)
			a := it.attrs
			it.attrs++
			if !it.test.Matches(xmltree.Attribute, attrs[a].tag) {
				continue
			}
			return Cursor{st: it.st, img: it.img, page: it.img.page, slot: it.slot, attr: a}, true

		case modeBits:
			// Batched enumeration: scan the (test ∪ border) occupancy
			// words over the subtree's pre-order range. The virtual clock
			// still charges one node visit per live record passed over —
			// the cost model describes the paper's node-at-a-time system,
			// not this implementation's word-level scan — accrued at the
			// same per-Next granularity as a per-node walk would.
			nav := &it.img.nav
			for it.bitPos < it.bitEnd {
				w := it.bitPos >> 6
				word := nav.proxy[w]
				if it.bits != nil {
					word |= it.bits[w]
				}
				word &= ^uint64(0) << uint(it.bitPos&63)
				if w == it.bitEnd>>6 {
					word &= uint64(1)<<uint(it.bitEnd&63) - 1
				}
				if word == 0 {
					it.chargeLive(w, it.bitPos, it.bitEnd)
					it.bitPos = (w + 1) << 6
					continue
				}
				pos := w<<6 + bits.TrailingZeros64(word)
				it.chargeLive(w, it.bitPos, pos+1)
				it.bitPos = pos + 1
				return it.cursor(nav.byPre[pos]), true
			}
			return Cursor{}, false
		}

		stats.Inc(&led.NodesVisited)
		led.AdvanceCPU(visit)
		r := &it.img.recs[slot]
		if r.kind.IsProxy() {
			return it.cursor(uint16(slot)), true
		}
		if it.useBits {
			// List candidates filter through the precomputed mask: one
			// word probe instead of a record inspection.
			if it.bits != nil && hasBit(it.bits, it.img.nav.pre[slot]) {
				return it.cursor(uint16(slot)), true
			}
			continue
		}
		if it.test.Matches(r.kind.LogicalKind(), r.tag) {
			return it.cursor(uint16(slot)), true
		}
	}
}

// chargeLive bills a node visit for every live record (core or border)
// whose pre-order position falls in [lo, min(hi, end of word w)) — the
// records a node-at-a-time DFS would have visited and rejected where the
// batched scan skips whole words.
func (it *StepIter) chargeLive(w, lo, hi int) {
	nav := &it.img.nav
	live := nav.core[w] | nav.proxy[w]
	live &= ^uint64(0) << uint(lo&63)
	if hi>>6 == w {
		live &= uint64(1)<<uint(hi&63) - 1
	}
	if n := bits.OnesCount64(live); n > 0 {
		stats.Add(&it.st.led.NodesVisited, int64(n))
		it.st.led.AdvanceCPU(stats.Ticks(n) * it.st.model.CPUNodeVisit)
	}
}

func (it *StepIter) cursor(slot uint16) Cursor {
	return Cursor{st: it.st, img: it.img, page: it.img.page, slot: slot, attr: -1}
}
