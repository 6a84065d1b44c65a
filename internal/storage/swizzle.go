package storage

import (
	"sync"
	"sync/atomic"

	"pathdb/internal/vdisk"
)

// swizShards is the number of latch shards of the swizzle cache; a power of
// two, sized like the buffer manager's page-table shards.
const swizShards = 64

// swizKey names one immutable byte image of a cluster across versions: the
// *logical* page (what NodeIDs embed) plus the epoch of the last commit
// that rewrote it in the reading view's version. Pages never written carry
// epoch 0, so every snapshot that sees the unchanged bytes shares one
// entry; a commit moves the page's epoch forward and later readers key a
// fresh entry while pinned snapshots keep hitting the old one — MVCC
// invalidation by construction, no flush required.
type swizKey struct {
	page  vdisk.PageID
	epoch uint64
}

// swizEntry is one cached page image. The mutex serializes the decode:
// losers of the publication race block until the winner has decoded, then
// share its image — decode-once semantics under contention. Unlike a
// sync.Once, a failed load (the fault plane's terminal errors) publishes
// nothing, so the next access retries instead of inheriting a nil image.
type swizEntry struct {
	mu  sync.Mutex
	img atomic.Pointer[pageImage]
}

// swizCache is the sharded, double-checked cache of decoded (swizzled) page
// images, shared by a base Store and all its Reader views. The shard latch
// covers only the map probe and insert; the buffer Fix and the decode run
// outside it (under the entry's mutex), so a slow decode never blocks
// lookups of other pages in the same shard and the lock order stays
// buffer-manager locks → swizzle shard (the eviction handler calls drop
// while holding manager locks; the decode path never holds a shard latch
// while calling into the pool).
//
// Entries are keyed by swizKey; the phys index maps the *physical* page a
// decoded image came from back to its key, because the two invalidation
// callers — buffer eviction and the version reclaimer (DropVersion) —
// identify frames physically. The version map is injective, so at any
// moment one physical page backs at most one key.
type swizCache struct {
	shards [swizShards]struct {
		mu      sync.RWMutex
		entries map[swizKey]*swizEntry
	}
	physMu sync.Mutex
	phys   map[vdisk.PageID]swizKey
}

func newSwizCache() *swizCache {
	c := &swizCache{phys: make(map[vdisk.PageID]swizKey)}
	for i := range c.shards {
		c.shards[i].entries = make(map[swizKey]*swizEntry)
	}
	return c
}

func (c *swizCache) shard(k swizKey) *struct {
	mu      sync.RWMutex
	entries map[swizKey]*swizEntry
} {
	return &c.shards[uint32(k.page)&(swizShards-1)]
}

// entry returns the cache entry for k, creating it if absent.
func (c *swizCache) entry(k swizKey) *swizEntry {
	sh := c.shard(k)
	sh.mu.RLock()
	e := sh.entries[k]
	sh.mu.RUnlock()
	if e != nil {
		return e
	}
	sh.mu.Lock()
	if e = sh.entries[k]; e == nil {
		e = &swizEntry{}
		sh.entries[k] = e
	}
	sh.mu.Unlock()
	return e
}

// track records that the image published under k was decoded from physical
// page phys, so physically-addressed invalidation can find it.
func (c *swizCache) track(phys vdisk.PageID, k swizKey) {
	c.physMu.Lock()
	c.phys[phys] = k
	c.physMu.Unlock()
}

// drop discards the cached image decoded from physical page p (buffer
// eviction, version reclamation). Readers already
// holding the image keep using it — images are immutable and
// self-contained — while the next access re-decodes.
func (c *swizCache) drop(p vdisk.PageID) {
	c.physMu.Lock()
	k, ok := c.phys[p]
	if ok {
		delete(c.phys, p)
	}
	c.physMu.Unlock()
	if !ok {
		// Nothing was published from this frame (decode raced an eviction,
		// or the frame held a non-data page).
		return
	}
	sh := c.shard(k)
	sh.mu.Lock()
	delete(sh.entries, k)
	sh.mu.Unlock()
}

// reset empties every shard in place (keeping the cache's identity, which
// Reader views share by pointer).
func (c *swizCache) reset() {
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		sh.entries = make(map[swizKey]*swizEntry)
		sh.mu.Unlock()
	}
	c.physMu.Lock()
	c.phys = make(map[vdisk.PageID]swizKey)
	c.physMu.Unlock()
}
