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

// swizEntry is one cached page image. The mutex serializes the decode, so
// an image is decoded, and its CPU charged, once: a second reader blocks
// until the first has decoded, then shares its image. A failed load (the
// fault plane's terminal errors) publishes nothing, so the next access
// retries instead of inheriting a nil image.
type swizEntry struct {
	mu  sync.Mutex
	img atomic.Pointer[pageImage]
}

// swizCache is the cache of decoded (swizzled) page images, shared by a
// base Store and all its Reader views. Its mutex covers only the map probes
// and updates; the buffer Fix and the decode run outside it (under the
// entry's mutex), and the lock order is buffer-manager mutex → swizzle
// mutex (the eviction handler calls drop while holding the manager mutex;
// the decode path never holds the swizzle mutex while calling into the
// pool).
//
// Entries are keyed by swizKey; the phys index maps the *physical* page a
// decoded image came from back to its key, because the two invalidation
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

// track records that the image published under k was decoded from physical
// page phys, so physically-addressed invalidation can find it.
func (c *swizCache) track(phys vdisk.PageID, k swizKey) {
	c.mu.Lock()
	c.phys[phys] = k
	c.mu.Unlock()
}

// drop discards the cached image decoded from physical page p (buffer
// eviction, version reclamation). Readers already holding the image keep
// using it — images are immutable and self-contained — while the next
// access re-decodes. Nothing happens if no image was published from p (a
// decode raced an eviction, or the frame held a non-data page).
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
