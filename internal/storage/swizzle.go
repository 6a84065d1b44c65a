package storage

import (
	"sync"
	"sync/atomic"

	"pathdb/internal/vdisk"
)

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

// swizEntry is one cached page image, held in place so a load allocates no
// image of its own. The mutex serializes the load, so an image is validated,
// and its CPU charged, once: a second reader blocks until the first has
// loaded, then shares its image. A failed load (the fault plane's terminal
// errors, a corrupt page) leaves ready unset, so the next access retries
// instead of inheriting a half-built image. Cursors point into the entry
// and keep it, and the frame its image aliases, reachable after drop.
type swizEntry struct {
	mu    sync.Mutex
	ready atomic.Bool
	img   pageImage
}

// swizCache is the cache of loaded (swizzled) page images, shared by a
// base Store and all its Reader views. Its mutex covers only the map probes
// and updates; the buffer Fix and the load run outside it (under the
// entry's mutex), and the lock order is buffer-manager mutex → swizzle
// mutex (the eviction handler calls drop while holding the manager mutex;
// the load path never holds the swizzle mutex while calling into the
// pool).
//
// Entries are keyed by swizKey; the phys index maps the *physical* page a
// loaded image came from back to its key, because the two invalidation
// callers — buffer eviction and the version reclaimer (DropVersion) —
// identify frames physically. The version map is injective, so at any
// moment one physical page backs at most one key.
type swizCache struct {
	mu      sync.Mutex
	entries map[swizKey]*swizEntry
	phys    map[vdisk.PageID]swizKey
}

func newSwizCache() *swizCache {
	c := &swizCache{}
	c.reset()
	return c
}

// entry returns the cache entry for k, creating it if absent.
func (c *swizCache) entry(k swizKey) *swizEntry {
	c.mu.Lock()
	defer c.mu.Unlock()
	e := c.entries[k]
	if e == nil {
		e = &swizEntry{}
		c.entries[k] = e
	}
	return e
}

// track records that the image published under k was loaded from physical
// page phys, so physically-addressed invalidation can find it.
func (c *swizCache) track(phys vdisk.PageID, k swizKey) {
	c.mu.Lock()
	c.phys[phys] = k
	c.mu.Unlock()
}

// drop discards the cached image loaded from physical page p (buffer
// eviction, version reclamation). Readers already holding the image keep
// using it — images are immutable, and the frame they alias is never
// reused — while the next access loads the page again. Nothing happens if no image was published from p (a
// load raced an eviction, or the frame held a non-data page).
func (c *swizCache) drop(p vdisk.PageID) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if k, ok := c.phys[p]; ok {
		delete(c.phys, p)
		delete(c.entries, k)
	}
}

// reset empties the cache in place (keeping the cache's identity, which
// Reader views share by pointer).
func (c *swizCache) reset() {
	c.mu.Lock()
	c.entries = make(map[swizKey]*swizEntry)
	c.phys = make(map[vdisk.PageID]swizKey)
	c.mu.Unlock()
}
