// Package buffer implements the page buffer manager between the storage
// engine and the virtual disk.
//
// It models the costs the paper attributes to this layer (Sec. 1, 3.6): a
// page access requires a hash-table probe (with its lock), a miss adds a
// disk read and possibly an eviction, and translating a NodeID into an
// in-memory pointer ("swizzling") is charged separately by the storage
// layer on top of Fix.
//
// The manager also fronts the asynchronous interface the XSchedule operator
// expects (Sec. 3.7): Request enqueues a cluster load without blocking, and
// WaitLoaded returns some cluster whose load has completed — already-cached
// clusters complete immediately. Each query (or shared gang group) owns a
// Waiter, which scopes Request/WaitLoaded to that query: deliveries are
// fanned out per waiter, so one query never consumes another's wakeups, and
// a page wanted by several waiters is submitted to the device once and
// delivered to each.
//
// Concurrency. The engine runs queries on one goroutine, but commits and
// the version reclaimer reach the pool from their own. One manager mutex
// guards the page table, the LRU list, misses, eviction and the async
// waiter bookkeeping; it may acquire the device mutex, never the reverse.
// Pin counts are atomic, so Unfix takes no lock.
package buffer

import (
	"fmt"
	"sync"
	"sync/atomic"

	"pathdb/internal/stats"
	"pathdb/internal/vdisk"
)

// Frame is a buffered page. Data aliases the manager's internal copy; it is
// valid while the frame is pinned (and until eviction otherwise).
type Frame struct {
	Page vdisk.PageID
	Data []byte

	pins       atomic.Int32
	prev, next *Frame // LRU list, most recent at head
}

// Pinned reports whether the frame is currently pinned.
func (f *Frame) Pinned() bool { return f.pins.Load() > 0 }

// Manager is the buffer pool. Safe for concurrent use; see the package
// comment for the locking discipline.
type Manager struct {
	disk     *vdisk.Disk
	led      *stats.Ledger
	capacity int

	mu     sync.Mutex // guards everything below
	frames map[vdisk.PageID]*Frame
	head   *Frame // MRU
	tail   *Frame // LRU

	// Async request bookkeeping, shared across waiters. submitted[p] means
	// an undelivered request or completion for p exists on the device
	// (dedup: one physical submission no matter how many waiters want p).
	// wanted[p] counts waiters with p in their pending set; when it hits
	// zero any device entry for p is withdrawn.
	submitted map[vdisk.PageID]bool
	wanted    map[vdisk.PageID]int

	// Read-failure bookkeeping. failed[p] holds the terminal error of a
	// page whose load exhausted its retries; every waiter wanting p is
	// handed that error (the frame is poisoned, not mapped). attempts[p]
	// counts async re-reads already spent on p.
	failed   map[vdisk.PageID]error
	attempts map[vdisk.PageID]int

	retry  RetryPolicy
	verify func(vdisk.PageID, []byte) error // page-image verifier (storage checksums)

	overflow int64 // frames allocated beyond capacity (all pinned)

	onEvict func(vdisk.PageID) // notifies upper layers (swizzle caches)
}

// RetryPolicy bounds the verified-read retry loop: a page read that fails
// (transient device error or checksum mismatch) is re-read up to Attempts
// times in total, backing the reader's virtual clock off by Backoff before
// the first retry and doubling it each further attempt.
type RetryPolicy struct {
	Attempts int         // total read attempts per page (>= 1)
	Backoff  stats.Ticks // initial backoff, doubling per retry
}

// DefaultRetryPolicy is the pool's initial retry policy: four attempts with
// a 200µs initial backoff (well under one device access, so retrying is
// always cheaper than surfacing a transient fault).
func DefaultRetryPolicy() RetryPolicy {
	return RetryPolicy{Attempts: 4, Backoff: 200 * stats.Microsecond}
}

// New returns a buffer pool over disk holding at most capacity pages.
func New(disk *vdisk.Disk, capacity int) *Manager {
	if capacity <= 0 {
		panic("buffer: non-positive capacity")
	}
	m := &Manager{
		disk:      disk,
		led:       disk.Ledger(),
		capacity:  capacity,
		frames:    make(map[vdisk.PageID]*Frame),
		submitted: make(map[vdisk.PageID]bool),
		wanted:    make(map[vdisk.PageID]int),
		failed:    make(map[vdisk.PageID]error),
		attempts:  make(map[vdisk.PageID]int),
		retry:     DefaultRetryPolicy(),
	}
	return m
}

// SetVerifier registers a page-image verifier run against every page read
// from the device before the frame is published (the storage layer installs
// its checksum-trailer check). A verification failure counts as a failed
// read: it is retried under the pool's RetryPolicy and escalates to the
// caller when the retries are exhausted. The verifier runs with manager
// locks held; it must not call back into the pool.
func (m *Manager) SetVerifier(f func(vdisk.PageID, []byte) error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.verify = f
}

// SetRetryPolicy replaces the pool's read-retry policy. Attempts below 1 is
// clamped to 1 (a single try, no retries).
func (m *Manager) SetRetryPolicy(p RetryPolicy) {
	if p.Attempts < 1 {
		p.Attempts = 1
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.retry = p
}

// SetEvictHandler registers f to be called whenever a page leaves the pool
// (eviction or FlushAll). The storage layer uses this to invalidate its
// swizzled in-memory representations, the "swapping out" concern of
// Sec. 5.3.2.3. The handler runs with manager locks held; it must not call
// back into the pool.
func (m *Manager) SetEvictHandler(f func(vdisk.PageID)) { m.onEvict = f }

// Capacity returns the configured page capacity.
func (m *Manager) Capacity() int { return m.capacity }

// Len returns the number of buffered pages.
func (m *Manager) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.frames)
}

// Overflow returns how many times the pool had to exceed its capacity
// because every frame was pinned.
func (m *Manager) Overflow() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.overflow
}

// Contains reports whether page p is buffered, without charging costs or
// touching the LRU order (for tests and the scheduler's bookkeeping).
func (m *Manager) Contains(p vdisk.PageID) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	_, ok := m.frames[p]
	return ok
}

// Disk exposes the underlying device (the storage layer needs its cost
// model and page size).
func (m *Manager) Disk() *vdisk.Disk { return m.disk }

// Fix returns a pinned frame for page p, reading it from disk on a miss.
// The caller must Unfix it. Each call charges one hash probe. A non-nil
// error means the page could not be read within the retry policy (the
// device error or checksum failure that exhausted the attempts).
func (m *Manager) Fix(p vdisk.PageID) (*Frame, error) { return m.FixOn(m.led, p) }

// FixOn is Fix with the probe, hit/miss statistics and any disk read billed
// to led instead of the pool's root ledger — the per-query accounting entry
// point of the engine. The frame itself is shared pool state either way.
func (m *Manager) FixOn(led *stats.Ledger, p vdisk.PageID) (*Frame, error) {
	stats.Inc(&led.HashLookups)
	led.AdvanceCPU(m.disk.Model().CPUHashLookup)
	m.mu.Lock()
	defer m.mu.Unlock()
	f := m.frames[p]
	if f != nil {
		stats.Inc(&led.BufferHits)
		m.touch(f)
	} else {
		stats.Inc(&led.BufferMisses)
		f = m.newFrame(p)
		if err := m.loadFrame(led, p, f); err != nil {
			delete(m.frames, p)
			m.unlink(f)
			return nil, err
		}
		delete(m.failed, p) // a fresh successful read supersedes older failures
		delete(m.attempts, p)
	}
	f.pins.Add(1)
	return f, nil
}

// loadFrame reads page p into f under the retry policy: transient device
// errors and checksum failures are retried with doubling virtual-clock
// backoff; the last error escalates once attempts are exhausted. Caller
// holds m.mu.
func (m *Manager) loadFrame(led *stats.Ledger, p vdisk.PageID, f *Frame) error {
	backoff := m.retry.Backoff
	var lastErr error
	for attempt := 0; attempt < m.retry.Attempts; attempt++ {
		if attempt > 0 {
			stats.Inc(&led.ReadRetries)
			led.BlockUntil(led.Total() + backoff)
			backoff *= 2
		}
		if err := m.disk.ReadSyncOn(led, p, f.Data); err != nil {
			lastErr = err
			continue
		}
		if m.verify != nil {
			if err := m.verify(p, f.Data); err != nil {
				stats.Inc(&led.ChecksumFails)
				lastErr = err
				continue
			}
		}
		return nil
	}
	return lastErr
}

// Unfix releases a pin taken by Fix.
func (m *Manager) Unfix(f *Frame) {
	if f.pins.Add(-1) < 0 {
		panic(fmt.Sprintf("buffer: unfix of unpinned page %d", f.Page))
	}
}

// Waiter scopes the asynchronous Request/WaitLoaded interface to one query
// (or one shared gang group): each waiter tracks its own pending set and is
// woken only by completions of pages it asked for. Wall-clock waits and
// completion charges go to the waiter's ledger. Waiters sharing a manager
// dedup physical submissions — a page wanted by several waiters is read
// once and delivered to each of them. A Waiter is not itself safe for
// concurrent use; one goroutine (its query's worker) drives it.
type Waiter struct {
	m       *Manager
	led     *stats.Ledger
	pending map[vdisk.PageID]bool
	order   []vdisk.PageID // FIFO of pending pages: deterministic delivery
}

// NewWaiter returns a waiter billing to led (the pool's root ledger if nil).
func (m *Manager) NewWaiter(led *stats.Ledger) *Waiter {
	if led == nil {
		led = m.led
	}
	return &Waiter{m: m, led: led, pending: make(map[vdisk.PageID]bool)}
}

// Request schedules an asynchronous load of page p for this waiter. If p is
// already buffered (or another waiter already submitted it), no device
// request is issued, but a later WaitLoaded still delivers it. Duplicate
// requests for an undelivered page are folded into one delivery.
func (w *Waiter) Request(p vdisk.PageID) {
	m := w.m
	m.mu.Lock()
	defer m.mu.Unlock()
	if w.pending[p] {
		return
	}
	w.pending[p] = true
	w.order = append(w.order, p)
	m.wanted[p]++
	if m.frames[p] == nil && !m.submitted[p] {
		m.submitted[p] = true
		m.disk.SubmitOn(w.led, p)
	}
}

// WaitLoaded blocks until some page this waiter requested is available and
// returns it. ok is false when nothing deliverable is outstanding (callers
// re-Request and retry; the buffer may have evicted a page between its load
// and this wait). Already-buffered pages are delivered first, oldest
// request first, without touching the device. A non-nil error (with ok
// true) reports a page whose load failed terminally — the read and its
// retries were exhausted or the image kept failing verification; every
// waiter wanting that page receives the same error exactly once.
func (w *Waiter) WaitLoaded() (p vdisk.PageID, ok bool, err error) {
	m := w.m
	m.mu.Lock()
	defer m.mu.Unlock()
	for {
		if p, ok := w.takeBuffered(); ok {
			return p, true, nil
		}
		// Poisoned pages: deliver the terminal error to this waiter. The
		// entry survives until every waiter wanting the page has seen it
		// (unwant clears it with the last reference).
		for _, p := range w.order {
			if ferr, bad := m.failed[p]; bad {
				w.deliverLocked(p)
				return p, true, ferr
			}
		}
		if len(w.order) == 0 {
			return vdisk.InvalidPage, false, nil
		}
		f := m.newFrame(vdisk.InvalidPage) // placeholder; page set below
		page, got, derr := m.disk.WaitMatchOn(w.led, func(p vdisk.PageID) bool { return w.pending[p] }, f.Data)
		if !got {
			// None of our pages is on the device (submissions superseded by
			// sync reads and since evicted, or withdrawn): drop the stale
			// pending set so the caller's re-request issues fresh reads.
			m.unlink(f)
			w.clearLocked()
			return vdisk.InvalidPage, false, nil
		}
		delete(m.submitted, page) // consumed the device entry
		if derr == nil && m.verify != nil {
			if verr := m.verify(page, f.Data); verr != nil {
				stats.Inc(&w.led.ChecksumFails)
				derr = verr
			}
		}
		if derr != nil {
			// Failed delivery: never publish the frame. Retry by
			// resubmitting (the device draws a fresh fault) until the
			// policy is exhausted, then poison the page for all waiters.
			m.unlink(f)
			if m.attempts[page]++; m.attempts[page] < m.retry.Attempts {
				stats.Inc(&w.led.ReadRetries)
				w.led.BlockUntil(w.led.Total() + m.retry.Backoff<<(m.attempts[page]-1))
				m.submitted[page] = true
				m.disk.SubmitOn(w.led, page)
				continue
			}
			delete(m.attempts, page)
			m.failed[page] = derr
			continue // the poisoned-page scan above delivers it
		}
		if old, exists := m.frames[page]; exists {
			// Already (re)loaded synchronously in the meantime; keep the
			// existing frame and discard the fresh buffer.
			m.unlink(f)
			m.touch(old)
		} else {
			f.Page = page
			m.frames[page] = f
		}
		w.deliverLocked(page)
		return page, true, nil
	}
}

// takeBuffered delivers the oldest pending page that is already buffered.
// Caller holds m.mu.
func (w *Waiter) takeBuffered() (vdisk.PageID, bool) {
	for _, p := range w.order {
		if w.m.frames[p] != nil {
			w.deliverLocked(p)
			return p, true
		}
	}
	return vdisk.InvalidPage, false
}

// deliverLocked removes p from the pending set and releases the shared
// wanted/submitted bookkeeping. Caller holds m.mu.
func (w *Waiter) deliverLocked(page vdisk.PageID) {
	for i, p := range w.order {
		if p == page {
			w.order = append(w.order[:i], w.order[i+1:]...)
			break
		}
	}
	delete(w.pending, page)
	w.m.unwant([]vdisk.PageID{page})
}

// clearLocked abandons every pending request of this waiter, withdrawing
// device entries no other waiter wants. Caller holds m.mu.
func (w *Waiter) clearLocked() {
	pages := w.order
	w.order = nil
	for _, p := range pages {
		delete(w.pending, p)
	}
	w.m.unwant(pages)
}

// unwant decrements the wanted count of each page and withdraws from the
// device those nobody wants anymore. Caller holds m.mu.
func (m *Manager) unwant(pages []vdisk.PageID) {
	var orphans map[vdisk.PageID]bool
	for _, p := range pages {
		if m.wanted[p]--; m.wanted[p] > 0 {
			continue
		}
		delete(m.wanted, p)
		delete(m.failed, p) // last interested waiter has seen (or dropped) it
		delete(m.attempts, p)
		if m.submitted[p] {
			delete(m.submitted, p)
			if orphans == nil {
				orphans = make(map[vdisk.PageID]bool)
			}
			orphans[p] = true
		}
	}
	if orphans != nil {
		m.disk.CancelMatch(func(p vdisk.PageID) bool { return orphans[p] })
		stats.Add(&m.led.AsyncWithdrawn, int64(len(orphans)))
	}
}

// Cancel abandons this waiter's outstanding requests. Device entries still
// wanted by other waiters stay in flight; the rest are withdrawn, so a
// cancelled query's prefetches cannot linger on the simulated device.
func (w *Waiter) Cancel() {
	w.m.mu.Lock()
	defer w.m.mu.Unlock()
	w.clearLocked()
}

// Outstanding returns the number of undelivered requests of this waiter.
func (w *Waiter) Outstanding() int {
	w.m.mu.Lock()
	defer w.m.mu.Unlock()
	return len(w.order)
}

// Discard drops page p from the pool for version reclamation, if present.
// It reports false and leaves the frame alone when the page is still
// pinned: superseded page versions are unreachable from any live snapshot,
// so a pin is at worst a transient read finishing up, and the reclaimer
// retries on the next pass.
func (m *Manager) Discard(p vdisk.PageID) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	f, ok := m.frames[p]
	if !ok {
		return true
	}
	if f.Pinned() {
		return false
	}
	delete(m.frames, p)
	m.unlink(f)
	if m.onEvict != nil {
		m.onEvict(p)
	}
	return true
}

// FlushAll drops every unpinned frame (used between benchmark runs to
// start cold) and resets the async bookkeeping. It panics if any frame is
// still pinned. Waiters must be cancelled before FlushAll; surviving ones
// hold stale pending sets.
func (m *Manager) FlushAll() {
	m.mu.Lock()
	defer m.mu.Unlock()
	for p, f := range m.frames {
		if f.Pinned() {
			panic(fmt.Sprintf("buffer: FlushAll with pinned page %d", p))
		}
		if m.onEvict != nil {
			m.onEvict(p)
		}
	}
	m.frames = make(map[vdisk.PageID]*Frame)
	m.head, m.tail = nil, nil
	m.submitted = make(map[vdisk.PageID]bool)
	m.wanted = make(map[vdisk.PageID]int)
	m.failed = make(map[vdisk.PageID]error)
	m.attempts = make(map[vdisk.PageID]int)
}

// newFrame allocates (or steals via eviction) a frame, links it at MRU and
// registers it under page p (unless p is InvalidPage, for placeholders).
// Caller holds m.mu.
func (m *Manager) newFrame(p vdisk.PageID) *Frame {
	if len(m.frames) >= m.capacity {
		if !m.evictOne() {
			m.overflow++
		}
	}
	f := &Frame{Page: p, Data: make([]byte, m.disk.PageSize())}
	m.linkFront(f)
	if p != vdisk.InvalidPage {
		m.frames[p] = f
	}
	return f
}

// evictOne drops the least recently used unpinned frame. It returns false
// if every frame is pinned. Caller holds m.mu, which every new pin takes,
// so a frame seen unpinned here stays unpinned.
func (m *Manager) evictOne() bool {
	for f := m.tail; f != nil; f = f.prev {
		if f.Pinned() || f.Page == vdisk.InvalidPage {
			continue // pinned, or a placeholder still being filled
		}
		delete(m.frames, f.Page)
		m.unlink(f)
		stats.Inc(&m.led.Evictions)
		if m.onEvict != nil {
			m.onEvict(f.Page)
		}
		return true
	}
	return false
}

func (m *Manager) touch(f *Frame) {
	if m.head == f {
		return
	}
	m.unlink(f)
	m.linkFront(f)
}

func (m *Manager) linkFront(f *Frame) {
	f.prev = nil
	f.next = m.head
	if m.head != nil {
		m.head.prev = f
	}
	m.head = f
	if m.tail == nil {
		m.tail = f
	}
}

func (m *Manager) unlink(f *Frame) {
	if f.prev != nil {
		f.prev.next = f.next
	} else if m.head == f {
		m.head = f.next
	}
	if f.next != nil {
		f.next.prev = f.prev
	} else if m.tail == f {
		m.tail = f.prev
	}
	f.prev, f.next = nil, nil
}
