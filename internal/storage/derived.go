package storage

import "sync"

// maxDerivedEntries bounds the derived cache; when a generation fills up,
// further inserts are dropped (the next epoch starts a fresh generation).
const maxDerivedEntries = 256

// DerivedCache memoizes document-only artifacts derived from a volume's
// content — today the structural join's node-test levels and literal-free
// filter sets (internal/core.XJoin), which depend on the document and the
// branch path but never on the candidate set — and, per key still missing,
// the credit the cost model has accrued towards building it (plan.Chooser's
// break-even rule). It holds exactly one generation: what was computed at
// the highest version epoch seen so far. A commit advances the epoch, so the
// first admission at the new epoch drops the whole generation, credits
// included — the same invalidation discipline as the epoch-keyed swizzle
// cache, at coarser (whole-volume) grain because a level can span every
// cluster.
//
// Views pinned to an older snapshot simply miss (and their results and
// credits are not admitted), so MVCC readers can never observe entries from
// a version other than their own.
type DerivedCache struct {
	mu     sync.Mutex
	epoch  uint64
	m      map[string]any
	credit map[string]float64

	hits, misses uint64
}

func newDerivedCache() *DerivedCache {
	return &DerivedCache{m: make(map[string]any), credit: make(map[string]float64)}
}

// admits reports whether the generation takes artifacts of the given epoch:
// one ahead of it replaces it wholesale, an older one (a query pinned to a
// superseded snapshot) is refused. Caller holds c.mu.
func (c *DerivedCache) admits(epoch uint64) bool {
	if epoch > c.epoch {
		c.epoch = epoch
		c.m = make(map[string]any)
		c.credit = make(map[string]float64)
	}
	return epoch == c.epoch
}

// Get returns the entry for key computed at exactly the given epoch.
func (c *DerivedCache) Get(epoch uint64, key string) (any, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if epoch != c.epoch {
		c.misses++
		return nil, false
	}
	v, ok := c.m[key]
	if ok {
		c.hits++
	} else {
		c.misses++
	}
	return v, ok
}

// Put admits an entry computed at the given epoch (see admits), replacing
// one already resident under the key; a full generation refuses new keys.
// Either way the key's credit is spent.
func (c *DerivedCache) Put(epoch uint64, key string, v any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.admits(epoch) {
		return
	}
	delete(c.credit, key)
	if _, ok := c.m[key]; !ok && len(c.m) >= maxDerivedEntries {
		return
	}
	c.m[key] = v
}

// Credit adds share to the break-even account of every key and returns the
// accounts' sum; a zero share only reads. A generation with no room left
// for the keys grants nothing: what could not be admitted is never bought.
func (c *DerivedCache) Credit(epoch uint64, keys []string, share float64) (sum float64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.admits(epoch) || len(c.m)+len(keys) > maxDerivedEntries {
		return 0
	}
	for _, k := range keys {
		// The accounts are bounded like the entries: past the bound only
		// existing ones grow.
		if share != 0 && (len(c.credit) < maxDerivedEntries || c.credit[k] != 0) {
			c.credit[k] += share
		}
		sum += c.credit[k]
	}
	return sum
}

// Contains reports whether key is resident at the given epoch, without
// touching the hit/miss counters — cost-model probes are not lookups.
func (c *DerivedCache) Contains(epoch uint64, key string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if epoch != c.epoch {
		return false
	}
	_, ok := c.m[key]
	return ok
}

// Stats returns the lifetime hit/miss counters (for tests and metrics).
func (c *DerivedCache) Stats() (hits, misses uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses
}

// reset drops every entry but keeps the generation epoch, so the next
// queries repopulate from scratch (measured runs start cold).
func (c *DerivedCache) reset() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.m = make(map[string]any)
	c.credit = make(map[string]float64)
}

// Derived returns this view's derived-artifact cache together with the
// version epoch its entries must be keyed by, or ok=false when the view
// must not use it — a write transaction reading through its page overlay
// sees staged images the epoch does not name yet.
func (s *Store) Derived() (*DerivedCache, uint64, bool) {
	if s.derived == nil || s.overlay != nil {
		return nil, 0, false
	}
	return s.derived, s.VersionEpoch(), true
}
