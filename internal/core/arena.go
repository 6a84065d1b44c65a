package core

import (
	"sync"

	"pathdb/internal/storage"
	"pathdb/internal/vdisk"
)

// Arena pools the per-query evaluation scratch of one plan's operators:
// XAssembly's R and S structures, Distinct's seen set, XSchedule's cluster
// queue and visited set, XScan's pending buffer, XStep's navigation stacks,
// a level read's prefix sets and merge stack, the final sort's buffer, and
// a freelist of instance slices used as map values. A steady-state query evaluated with a warm
// arena allocates O(results) instead of rebuilding every structure.
//
// An arena serves one running plan at a time — operators borrow structures
// at Open and return them at Close, and nothing inside is synchronized.
// Callers that evaluate queries concurrently keep one arena per goroutine
// (GetArena/PutArena wrap a shared pool) and pass it via PlanOptions.Arena.
// A nil arena is always valid and falls back to fresh allocations.
type Arena struct {
	r       map[End]bool
	s       map[End][]Instance
	seen    map[storage.NodeID]bool
	q       map[vdisk.PageID][]Instance
	visited map[vdisk.PageID]bool
	ready   []Instance
	spec    []Instance
	pending []Instance
	sorted  []Instance
	free    [][]Instance
	iters   [][]*storage.StepIter
	levels  *levelScratch
}

// NewArena returns an empty arena. Structures are created lazily by the
// first query that borrows them.
func NewArena() *Arena { return &Arena{} }

// arenaPool recycles arenas across queries and goroutines.
var arenaPool = sync.Pool{New: func() any { return NewArena() }}

// GetArena takes a (possibly warm) arena from the shared pool.
func GetArena() *Arena { return arenaPool.Get().(*Arena) }

// PutArena returns an arena to the shared pool once no plan uses it.
func PutArena(a *Arena) {
	if a != nil {
		arenaPool.Put(a)
	}
}

// takeEndSet borrows the reachable-ends map.
func (a *Arena) takeEndSet() map[End]bool {
	if a != nil && a.r != nil {
		m := a.r
		a.r = nil
		return m
	}
	return make(map[End]bool)
}

func (a *Arena) putEndSet(m map[End]bool) {
	if a == nil || m == nil {
		return
	}
	clear(m)
	if a.r == nil {
		a.r = m
	}
}

// takeNodeSet borrows Distinct's seen set.
func (a *Arena) takeNodeSet() map[storage.NodeID]bool {
	if a != nil && a.seen != nil {
		m := a.seen
		a.seen = nil
		return m
	}
	return make(map[storage.NodeID]bool)
}

func (a *Arena) putNodeSet(m map[storage.NodeID]bool) {
	if a == nil || m == nil {
		return
	}
	clear(m)
	if a.seen == nil {
		a.seen = m
	}
}

// takeEndInsts borrows the speculative-instance map (S).
func (a *Arena) takeEndInsts() map[End][]Instance {
	if a != nil && a.s != nil {
		m := a.s
		a.s = nil
		return m
	}
	return make(map[End][]Instance)
}

// putEndInsts harvests the map's value slices into the freelist and
// returns the cleared map to the arena.
func (a *Arena) putEndInsts(m map[End][]Instance) {
	if a == nil || m == nil {
		return
	}
	for _, v := range m {
		a.putInsts(v)
	}
	clear(m)
	if a.s == nil {
		a.s = m
	}
}

// takeClusterQueue borrows XSchedule's per-cluster instance queue.
func (a *Arena) takeClusterQueue() map[vdisk.PageID][]Instance {
	if a != nil && a.q != nil {
		m := a.q
		a.q = nil
		return m
	}
	return make(map[vdisk.PageID][]Instance)
}

func (a *Arena) putClusterQueue(m map[vdisk.PageID][]Instance) {
	if a == nil || m == nil {
		return
	}
	for _, v := range m {
		a.putInsts(v)
	}
	clear(m)
	if a.q == nil {
		a.q = m
	}
}

// takeClusterSet borrows XSchedule's visited set.
func (a *Arena) takeClusterSet() map[vdisk.PageID]bool {
	if a != nil && a.visited != nil {
		m := a.visited
		a.visited = nil
		return m
	}
	return make(map[vdisk.PageID]bool)
}

func (a *Arena) putClusterSet(m map[vdisk.PageID]bool) {
	if a == nil || m == nil {
		return
	}
	clear(m)
	if a.visited == nil {
		a.visited = m
	}
}

// takeReady / takeSpec / takePending / takeSorted borrow the named instance buffers
// (each used by exactly one operator per plan; a second borrower gets a
// fresh slice).
func (a *Arena) takeReady() []Instance {
	if a != nil {
		s := a.ready
		a.ready = nil
		return s[:0]
	}
	return nil
}

func (a *Arena) putReady(s []Instance) {
	if a != nil && a.ready == nil && cap(s) > 0 {
		a.ready = s[:0]
	}
}

func (a *Arena) takeSpec() []Instance {
	if a != nil {
		s := a.spec
		a.spec = nil
		return s[:0]
	}
	return nil
}

func (a *Arena) putSpec(s []Instance) {
	if a != nil && a.spec == nil && cap(s) > 0 {
		a.spec = s[:0]
	}
}

func (a *Arena) takePending() []Instance {
	if a != nil {
		s := a.pending
		a.pending = nil
		return s[:0]
	}
	return nil
}

func (a *Arena) putPending(s []Instance) {
	if a != nil && a.pending == nil && cap(s) > 0 {
		a.pending = s[:0]
	}
}

func (a *Arena) takeSorted() []Instance {
	if a != nil {
		s := a.sorted
		a.sorted = nil
		return s[:0]
	}
	return nil
}

func (a *Arena) putSorted(s []Instance) {
	if a != nil && a.sorted == nil && cap(s) > 0 {
		a.sorted = s[:0]
	}
}

// takeInsts returns an empty instance slice with retained capacity from the
// freelist (nil when the freelist is dry — append grows it as usual).
func (a *Arena) takeInsts() []Instance {
	if a == nil {
		return nil
	}
	if n := len(a.free); n > 0 {
		s := a.free[n-1]
		a.free = a.free[:n-1]
		return s
	}
	return nil
}

// putInsts recycles an instance slice's backing array.
func (a *Arena) putInsts(s []Instance) {
	if a != nil && cap(s) > 0 {
		a.free = append(a.free, s[:0])
	}
}

// takeIters returns an empty XStep navigation stack with retained capacity
// (nil when none is pooled — append grows it as usual).
func (a *Arena) takeIters() []*storage.StepIter {
	if a == nil {
		return nil
	}
	if n := len(a.iters); n > 0 {
		s := a.iters[n-1]
		a.iters = a.iters[:n-1]
		return s
	}
	return nil
}

// putIters recycles a navigation stack's backing array.
func (a *Arena) putIters(s []*storage.StepIter) {
	if a != nil && cap(s) > 0 {
		a.iters = append(a.iters, s[:0])
	}
}

// takeLevelScratch borrows a level read's working memory.
func (a *Arena) takeLevelScratch() *levelScratch {
	if a != nil && a.levels != nil {
		sc := a.levels
		a.levels = nil
		return sc
	}
	return &levelScratch{}
}

func (a *Arena) putLevelScratch(sc *levelScratch) {
	if a != nil && a.levels == nil {
		a.levels = sc
	}
}
