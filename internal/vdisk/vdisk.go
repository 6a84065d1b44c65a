// Package vdisk simulates the secondary-storage device underneath the
// buffer manager.
//
// The paper evaluates its operators against a real disk accessed with
// O_DIRECT; the decisive physical effects are (a) random page accesses pay
// a seek whose cost grows with head travel distance, (b) sequential
// accesses pay only transfer time, and (c) an asynchronous request queue
// lets the device reorder pending requests (shortest-seek-time-first or
// elevator), overlapping I/O with CPU work. This package reproduces those
// three effects with a deterministic, machine-independent virtual clock.
//
// Pages are real byte arrays: the storage engine genuinely round-trips its
// data through this device, so the simulation cannot cheat by peeking at
// in-memory structures.
//
// Timing model. The disk owns a head position and a busy-until instant.
// Synchronous reads start when both the caller (virtual now) and the disk
// are free. Asynchronous requests are queued; whenever the disk is idle it
// starts the pending request chosen by the scheduling policy. The drain is
// computed lazily when the CPU looks at the disk, which makes the whole
// simulation reproducible while still modelling CPU/I-O overlap exactly.
//
// Accounting and concurrency. The *On variants (ReadSyncOn, SubmitOn,
// WaitMatchOn) bill the caller's ledger instead of the disk's root ledger,
// so each query pays for the pages it asked for on its own virtual clock
// while every query shares one head and one queue. A mutex serializes every
// operation that touches device state, so the engine's dispatcher, commits
// and the version reclaimer may share one Disk.
package vdisk

import (
	"fmt"
	"sync"

	"pathdb/internal/rng"
	"pathdb/internal/stats"
)

// PageID identifies a physical page by its position on the platter; seek
// distance between two pages is the difference of their PageIDs.
type PageID uint32

// InvalidPage is the nil PageID.
const InvalidPage PageID = ^PageID(0)

// Policy selects how the device orders pending asynchronous requests.
type Policy uint8

// Scheduling policies for the asynchronous request queue.
const (
	// SSTF picks the pending request closest to the current head position
	// (shortest seek time first). This is the default and models a command
	// queue on an intelligent disk (Sec. 3.7).
	SSTF Policy = iota
	// Elevator sweeps upward through pending requests, wrapping at the end
	// (C-SCAN), trading a little locality for fairness.
	Elevator
	// FIFO processes requests in submission order; used by ablations to
	// quantify the value of reordering.
	FIFO
)

func (p Policy) String() string {
	switch p {
	case SSTF:
		return "sstf"
	case Elevator:
		return "elevator"
	case FIFO:
		return "fifo"
	default:
		return fmt.Sprintf("policy(%d)", uint8(p))
	}
}

// CostModel holds the device and CPU cost constants, in virtual time. The
// CPU constants are charged by the buffer and algebra layers but live here
// so one struct configures a whole experiment.
type CostModel struct {
	// Device characteristics (2005-era 7200rpm disk, 8 KiB pages).
	SeekBase    stats.Ticks // settle + average rotational latency
	SeekPerPage stats.Ticks // incremental head travel per page of distance
	SeekMax     stats.Ticks // full-stroke cap
	Transfer    stats.Ticks // per-page transfer time

	// CPU work constants charged by upper layers.
	CPUHashLookup stats.Ticks // buffer-manager hash probe + latch
	CPUSwizzle    stats.Ticks // NodeID -> pointer (buffer lookup + table)
	CPUUnswizzle  stats.Ticks // pointer -> NodeID
	CPUNodeVisit  stats.Ticks // navigation primitive touching one node
	CPUTupleMove  stats.Ticks // passing one path instance between operators
	CPUSetOp      stats.Ticks // one R/S set probe or insert
}

// DefaultCostModel returns constants calibrated so that the three plans
// of the paper's evaluation reproduce its orderings, factors and CPU
// shares (see EXPERIMENTS.md): a 2005-era disk with sub-millisecond
// near seeks growing to ~8.5 ms across the volume, ~30 MB/s effective
// media rate on 8 KiB pages, and an interpretive record-at-a-time engine
// costing ≈0.7 µs per node touched (our packed pages hold ≈330 records,
// about twice Natix's density, which is why the per-node constant is
// lower than Natix's measured ≈3.5 µs). The CPU/I-O balance, not the
// absolute numbers, is what the reproduction depends on.
func DefaultCostModel() CostModel {
	return CostModel{
		SeekBase:    800 * stats.Microsecond,
		SeekPerPage: 4 * stats.Microsecond,
		SeekMax:     8500 * stats.Microsecond,
		Transfer:    270 * stats.Microsecond,

		CPUHashLookup: 500 * stats.Nanosecond,
		CPUSwizzle:    1000 * stats.Nanosecond,
		CPUUnswizzle:  80 * stats.Nanosecond,
		CPUNodeVisit:  700 * stats.Nanosecond,
		CPUTupleMove:  250 * stats.Nanosecond,
		CPUSetOp:      400 * stats.Nanosecond,
	}
}

// SeekCost returns the repositioning cost for a head travel of dist pages.
func (m CostModel) SeekCost(dist int64) stats.Ticks {
	if dist < 0 {
		dist = -dist
	}
	c := m.SeekBase + stats.Ticks(dist)*m.SeekPerPage
	if c > m.SeekMax {
		c = m.SeekMax
	}
	return c
}

// ReadError reports a failed page read: the device performed the
// repositioning and transfer but delivered no usable data (a transient
// media or transfer error injected by the fault plane). Retrying the read
// may succeed; the typed storage-layer errors wrap it.
type ReadError struct {
	Page PageID
}

func (e *ReadError) Error() string {
	return fmt.Sprintf("vdisk: transient read error on page %d", e.Page)
}

// Faults configures the deterministic fault plane: a seeded per-operation
// fault schedule over the device's reads and writes. Every read draws from
// one splitmix64 stream (in device operation order), so a given seed
// reproduces the same failure sequence exactly; under concurrent load the
// operation order — and therefore fault placement — follows the
// interleaving, but the schedule itself stays deterministic per sequence.
// The zero Faults disables the plane.
type Faults struct {
	// Seed drives the fault schedule's random stream.
	Seed uint64
	// ReadError is the probability a read completes with a ReadError
	// (transient: the medium is intact, a re-read may succeed).
	ReadError float64
	// Corrupt is the probability a read delivers a corrupted page image
	// (torn transfer: the returned bytes are damaged, the medium is
	// intact). Upper layers detect this via page checksums.
	Corrupt float64
	// Latency is the probability a read pays an extra latency spike of
	// Spike ticks (default 5ms) on top of the modelled cost.
	Latency float64
	Spike   stats.Ticks
	// WriteCrash arms crash-at-write-N: the first WriteCrashAfter writes
	// succeed, every later write is silently dropped — the moment the
	// power went out (the generalized form of SetWriteFault).
	WriteCrash      bool
	WriteCrashAfter int
}

// faultPlane is the armed fault schedule.
type faultPlane struct {
	cfg Faults
	rng *rng.RNG
}

// readFault is the fault drawn for one read operation.
type readFault struct {
	err     bool
	corrupt bool
	off     int // corruption offset within the page
	spike   stats.Ticks
}

// drawFault draws the fault outcome for one read, charging observation
// counters to led. Caller holds d.mu.
func (d *Disk) drawFault(led *stats.Ledger) readFault {
	if d.faults == nil {
		return readFault{}
	}
	var f readFault
	r, c := d.faults.rng, d.faults.cfg
	if c.Latency > 0 && r.Float64() < c.Latency {
		f.spike = c.Spike
		stats.Inc(&led.LatencySpikes)
	}
	if c.ReadError > 0 && r.Float64() < c.ReadError {
		f.err = true
		stats.Inc(&led.ReadFaults)
		return f
	}
	if c.Corrupt > 0 && r.Float64() < c.Corrupt {
		f.corrupt = true
		f.off = r.Intn(d.pageSize)
	}
	return f
}

// corruptSpan is how many bytes a torn transfer damages.
const corruptSpan = 16

// corruptCopy damages buf in place starting at off (the injected torn
// image; the stored page is untouched).
func corruptCopy(buf []byte, off int) {
	for i := 0; i < corruptSpan && off+i < len(buf); i++ {
		buf[off+i] ^= 0xA5
	}
}

// SetFaults arms (or, with the zero Faults, disarms) the fault plane.
// Arming resets the schedule's random stream to the seed.
func (d *Disk) SetFaults(f Faults) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if f == (Faults{}) {
		d.faults = nil
		d.faultArmed = false
		return
	}
	if f.Spike == 0 {
		f.Spike = 5 * stats.Millisecond
	}
	d.faults = &faultPlane{cfg: f, rng: rng.New(f.Seed)}
	d.faultArmed = f.WriteCrash
	d.writesLeft = f.WriteCrashAfter
}

// CorruptPage deterministically damages the stored bytes of page p
// (persistent medium corruption, unlike the transient torn images of
// Faults.Corrupt): every subsequent read returns the damaged image until
// the page is rewritten. The damage is reproducible from seed.
func (d *Disk) CorruptPage(p PageID, seed uint64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.checkPage(p)
	r := rng.New(seed)
	corruptCopy(d.pages[p], r.Intn(d.pageSize))
}

// request is a queued asynchronous read. led is the ledger the physical
// read will be charged to (the submitter's — under per-query accounting
// each gang member pays for the pages it asked for, even when another
// member's wait services them).
type request struct {
	page      PageID
	submitted stats.Ticks
	led       *stats.Ledger
}

type completion struct {
	page  PageID
	at    stats.Ticks
	fault readFault // drawn at service time, applied at delivery
}

// Disk is the simulated device. All operations are serialized by an
// internal mutex, so a Disk may be shared by concurrent goroutines.
type Disk struct {
	model    CostModel
	led      *stats.Ledger
	pageSize int

	mu    sync.Mutex
	pages [][]byte

	policy    Policy
	head      PageID
	busyUntil stats.Ticks

	pending   []request
	completed []completion // ascending completion time

	faultArmed bool // crash fault injection (SetWriteFault)
	writesLeft int
	dropped    int64       // writes silently dropped by the crash fault
	faults     *faultPlane // seeded read-fault schedule (nil: disabled)

	tracing bool
	trace   []TraceEvent
}

// TraceEvent is one device operation in an I/O trace.
type TraceEvent struct {
	Op   string // "read", "read-seq", "read-async", "write"
	Page PageID
	At   stats.Ticks // completion time on the virtual clock
}

// SetTrace enables or disables I/O tracing (disabled by default); enabling
// clears any previous trace.
func (d *Disk) SetTrace(on bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.tracing = on
	d.trace = nil
}

// Trace returns a copy of the recorded I/O events in completion order.
func (d *Disk) Trace() []TraceEvent {
	d.mu.Lock()
	defer d.mu.Unlock()
	return append([]TraceEvent(nil), d.trace...)
}

func (d *Disk) traceEvent(op string, p PageID, at stats.Ticks) {
	if d.tracing {
		d.trace = append(d.trace, TraceEvent{Op: op, Page: p, At: at})
	}
}

// New returns an empty disk with the given page size.
func New(model CostModel, led *stats.Ledger, pageSize int) *Disk {
	if pageSize <= 0 {
		panic("vdisk: non-positive page size")
	}
	return &Disk{model: model, led: led, pageSize: pageSize, head: InvalidPage}
}

// SetPolicy selects the asynchronous scheduling policy.
func (d *Disk) SetPolicy(p Policy) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.policy = p
}

// Model returns the disk's cost model (upper layers read the CPU constants).
func (d *Disk) Model() CostModel { return d.model }

// PageSize returns the page size in bytes.
func (d *Disk) PageSize() int { return d.pageSize }

// NumPages returns the number of allocated pages.
func (d *Disk) NumPages() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.pages)
}

// Ledger returns the root cost ledger.
func (d *Disk) Ledger() *stats.Ledger { return d.led }

// Alloc appends a fresh zeroed page and returns its id. Allocation itself
// is free; the subsequent Write pays the I/O.
func (d *Disk) Alloc() PageID {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.pages = append(d.pages, make([]byte, d.pageSize))
	return PageID(len(d.pages) - 1)
}

// SetWriteFault arms a crash fault: the first n subsequent writes succeed,
// everything after them is silently dropped — the moment the power went
// out. Pass a negative n to disarm. Reads keep working (the surviving
// medium), so recovery code can be exercised against the truncated state.
func (d *Disk) SetWriteFault(n int) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.faultArmed = n >= 0
	d.writesLeft = n
}

// DroppedWrites returns how many writes the armed crash fault has silently
// dropped so far. Commit pipelines use it to classify acknowledgements:
// an ack handed out while the count is still zero is durable by
// construction (the fault plane drops a strict suffix of the write
// sequence), so recovery tests can demand exactly those commits back.
func (d *Disk) DroppedWrites() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.dropped
}

// Clock returns the device's current virtual instant (the time its last
// scheduled operation completes). The concurrent engine seeds per-query
// ledgers with it so queries are billed from their arrival, not from the
// beginning of device history.
func (d *Disk) Clock() stats.Ticks {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.busyUntil
}

// Write stores data (at most one page) at page p, charging a synchronous
// random write. The positioning cost occupies the device (delaying readers
// that arrive behind it) and is added to the ledger's clock as work — not
// BlockUntil'd — because the volume ledger's clock is a running sum across
// many owners, not a single caller's instant.
func (d *Disk) Write(p PageID, data []byte) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.checkPage(p)
	if d.faultArmed {
		if d.writesLeft <= 0 {
			d.dropped++
			return // dropped on the floor: the crash already happened
		}
		d.writesLeft--
	}
	if len(data) > d.pageSize {
		panic("vdisk: write larger than page")
	}
	copy(d.pages[p], data)
	for i := len(data); i < d.pageSize; i++ {
		d.pages[p][i] = 0
	}
	stats.Inc(&d.led.PageWrites)
	cost := d.cost(d.led, p)
	d.head = p
	d.busyUntil += cost
	d.led.Advance(cost)
	d.traceEvent("write", p, d.busyUntil)
}

// ReadSync reads page p synchronously into buf (which must hold a page),
// blocking the virtual clock until the transfer completes. Any pending
// asynchronous requests the device would have finished first are drained.
// A non-nil error is a *ReadError injected by the fault plane; the device
// time is spent either way.
func (d *Disk) ReadSync(p PageID, buf []byte) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.readSync(d.led, p, buf)
}

// ReadSyncOn is ReadSync billed to led instead of the root ledger. The
// engine gives every query its own ledger; the queries still share one
// queue and one head, but each blocks and charges its own virtual clock.
func (d *Disk) ReadSyncOn(led *stats.Ledger, p PageID, buf []byte) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.readSync(led, p, buf)
}

func (d *Disk) readSync(led *stats.Ledger, p PageID, buf []byte) error {
	d.checkPage(p)
	d.drainUntil(led.Total())
	seq := d.head != InvalidPage && p == d.head+1
	f := d.drawFault(led)
	d.access(led, p, f.spike)
	op := "read"
	if seq {
		op = "read-seq"
	}
	d.traceEvent(op, p, d.busyUntil)
	if f.err {
		return &ReadError{Page: p}
	}
	copy(buf, d.pages[p])
	if f.corrupt {
		corruptCopy(buf[:d.pageSize], f.off)
	}
	return nil
}

// access performs the positioning + transfer for page p starting when both
// the caller and the device are free, blocking the caller's clock on the
// result. spike is extra injected latency on top of the modelled cost.
func (d *Disk) access(led *stats.Ledger, p PageID, spike stats.Ticks) {
	start := led.Total()
	if d.busyUntil > start {
		start = d.busyUntil
	}
	done := start + d.cost(led, p) + spike
	d.head = p
	d.busyUntil = done
	led.BlockUntil(done)
}

// cost computes the positioning+transfer cost of touching page p from the
// current head position and charges the seek statistics to the ledger of
// whoever asked for the page.
func (d *Disk) cost(led *stats.Ledger, p PageID) stats.Ticks {
	stats.Inc(&led.PageReads)
	if d.head != InvalidPage && p == d.head+1 {
		stats.Inc(&led.SeqPageReads)
		return d.model.Transfer
	}
	var dist int64
	if d.head == InvalidPage {
		dist = int64(p)
	} else {
		dist = int64(p) - int64(d.head)
	}
	stats.Inc(&led.Seeks)
	if dist < 0 {
		stats.Add(&led.SeekDistance, -dist)
	} else {
		stats.Add(&led.SeekDistance, dist)
	}
	return d.model.SeekCost(dist) + d.model.Transfer
}

// Submit queues an asynchronous read of page p. Submission is free on the
// virtual clock, so a burst of Submit calls is atomic: the device sees the
// whole burst before choosing what to service first, which is exactly the
// "forward many requests at once to the lower layers" behaviour of Sec. 1.
func (d *Disk) Submit(p PageID) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.submit(d.led, p)
}

// SubmitOn is Submit billed to led instead of the root ledger (see
// ReadSyncOn).
func (d *Disk) SubmitOn(led *stats.Ledger, p PageID) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.submit(led, p)
}

func (d *Disk) submit(led *stats.Ledger, p PageID) {
	d.checkPage(p)
	stats.Inc(&led.AsyncSubmitted)
	d.pending = append(d.pending, request{page: p, submitted: led.Total(), led: led})
}

// PendingAsync returns the number of submitted-but-undelivered requests.
func (d *Disk) PendingAsync() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.pending) + len(d.completed)
}

// WaitAny blocks until some asynchronous request has completed, copies its
// page into buf and returns its id. ok is false if no request is pending. A
// non-nil error (with ok true) is a *ReadError injected by the fault plane
// for the returned page.
func (d *Disk) WaitAny(buf []byte) (p PageID, ok bool, err error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.waitMatch(d.led, nil, buf)
}

// WaitMatchOn blocks led until some request whose page satisfies match has
// completed, copies its page into buf and returns its id. ok is false if no
// matching request is pending. Completions that do not match are left
// queued for their owners — this is the device half of the buffer
// manager's completion fanout: two queries waiting on different clusters
// each see only their own wakeups, so neither can steal the other's
// completion (or have its clock blocked by it).
func (d *Disk) WaitMatchOn(led *stats.Ledger, match func(PageID) bool, buf []byte) (p PageID, ok bool, err error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.waitMatch(led, match, buf)
}

// waitMatch delivers one completion whose page satisfies match (nil matches
// everything), advancing led. While a matching request is pending but not
// yet complete, the device keeps servicing every request — overlap across
// gang members is preserved even though delivery is filtered.
func (d *Disk) waitMatch(led *stats.Ledger, match func(PageID) bool, buf []byte) (PageID, bool, error) {
	d.drainUntil(led.Total())
	for {
		for i, c := range d.completed {
			if match != nil && !match(c.page) {
				continue
			}
			d.completed = append(d.completed[:i], d.completed[i+1:]...)
			led.BlockUntil(c.at)
			stats.Inc(&led.AsyncCompleted)
			if c.fault.err {
				return c.page, true, &ReadError{Page: c.page}
			}
			copy(buf, d.pages[c.page])
			if c.fault.corrupt {
				corruptCopy(buf[:d.pageSize], c.fault.off)
			}
			return c.page, true, nil
		}
		outstanding := false
		for _, r := range d.pending {
			if match == nil || match(r.page) {
				outstanding = true
				break
			}
		}
		if !outstanding {
			return InvalidPage, false, nil
		}
		// Keep the device working (anyone's requests) until one of ours
		// completes.
		d.processNext()
	}
}

// CancelMatch discards queued-but-undelivered requests and completions
// whose page satisfies match. Page data already transferred is dropped;
// the device time it consumed remains spent. A cancelled query's buffer
// waiter uses this to withdraw only the prefetches it alone owns, leaving
// the rest of its gang's in-flight requests untouched.
func (d *Disk) CancelMatch(match func(PageID) bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	pending := d.pending[:0]
	for _, r := range d.pending {
		if !match(r.page) {
			pending = append(pending, r)
		}
	}
	d.pending = pending
	completed := d.completed[:0]
	for _, c := range d.completed {
		if !match(c.page) {
			completed = append(completed, c)
		}
	}
	d.completed = completed
}

// drainUntil lets the device work through pending requests in the
// background until virtual time t: every request whose service would start
// strictly before t is processed.
func (d *Disk) drainUntil(t stats.Ticks) {
	for len(d.pending) > 0 {
		start := d.busyUntil
		if earliest := d.earliestSubmit(); earliest > start {
			start = earliest
		}
		if start >= t {
			return
		}
		d.processNext()
	}
}

func (d *Disk) earliestSubmit() stats.Ticks {
	e := d.pending[0].submitted
	for _, r := range d.pending[1:] {
		if r.submitted < e {
			e = r.submitted
		}
	}
	return e
}

// processNext services one pending request according to the policy. The
// physical read is charged to the ledger of the request's submitter.
func (d *Disk) processNext() {
	idx := d.pickNext()
	r := d.pending[idx]
	d.pending = append(d.pending[:idx], d.pending[idx+1:]...)
	start := d.busyUntil
	if r.submitted > start {
		start = r.submitted
	}
	f := d.drawFault(r.led)
	done := start + d.cost(r.led, r.page) + f.spike
	d.head = r.page
	d.busyUntil = done
	d.completed = append(d.completed, completion{page: r.page, at: done, fault: f})
	d.traceEvent("read-async", r.page, done)
}

// pickNext returns the index of the next pending request per the policy.
func (d *Disk) pickNext() int {
	switch d.policy {
	case FIFO:
		best := 0
		for i, r := range d.pending {
			if r.submitted < d.pending[best].submitted {
				best = i
			}
		}
		return best
	case Elevator:
		// C-SCAN: smallest page >= head; wrap to global smallest.
		best, bestWrap := -1, 0
		for i, r := range d.pending {
			if d.head != InvalidPage && r.page >= d.head {
				if best == -1 || r.page < d.pending[best].page {
					best = i
				}
			}
			if r.page < d.pending[bestWrap].page {
				bestWrap = i
			}
		}
		if best >= 0 {
			return best
		}
		return bestWrap
	default: // SSTF
		best := 0
		bestDist := d.distTo(d.pending[0].page)
		for i, r := range d.pending[1:] {
			if dd := d.distTo(r.page); dd < bestDist {
				best, bestDist = i+1, dd
			}
		}
		return best
	}
}

func (d *Disk) distTo(p PageID) int64 {
	if d.head == InvalidPage {
		return int64(p)
	}
	dd := int64(p) - int64(d.head)
	if dd < 0 {
		return -dd
	}
	return dd
}

func (d *Disk) checkPage(p PageID) {
	if int(p) >= len(d.pages) {
		panic(fmt.Sprintf("vdisk: page %d out of range (have %d)", p, len(d.pages)))
	}
}

// ResetClockState clears the device's temporal state (head position, busy
// time, queues) without touching page contents.
// Benchmarks call this between plan runs so each run starts from a cold,
// parked device.
func (d *Disk) ResetClockState() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.head = InvalidPage
	d.busyUntil = 0
	d.pending = nil
	d.completed = nil
}
