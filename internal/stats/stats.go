// Package stats provides the virtual clock and the cost ledger shared by
// the storage, buffer and algebra layers.
//
// The paper's evaluation reports total execution time and CPU time of plans
// running against a real disk (Linux, O_DIRECT). We do not have the authors'
// testbed, so the repository runs against a simulated disk with a calibrated
// cost model (package vdisk). All layers charge their work to a single
// Ledger in virtual nanoseconds: CPU work advances the clock directly, I/O
// completions advance it when the query has to block, and asynchronous I/O
// that finishes while the CPU is busy costs no wall time at all — exactly
// the overlap effect the XSchedule operator exploits (Sec. 3.7, 5.3.4).
//
// Concurrency: all mutations (AdvanceCPU, BlockUntil, Inc, Add) and the
// aggregate readers (Total, Snapshot, Sub, String) use atomic operations,
// so a ledger may be shared by the engine's dispatcher and any number of
// monitoring goroutines without data races. Direct field reads remain valid
// — and allocation-free — in single-threaded contexts (a quiesced ledger
// after a run); concurrent readers must go through Snapshot or Total.
// Reset is not atomic as a whole: callers must quiesce writers first.
package stats

import (
	"fmt"
	"sync/atomic"
)

// Ticks is a duration or instant in virtual nanoseconds.
type Ticks int64

// Common tick units.
const (
	Nanosecond  Ticks = 1
	Microsecond Ticks = 1000
	Millisecond Ticks = 1000 * 1000
	Second      Ticks = 1000 * 1000 * 1000
)

// Seconds converts ticks to float seconds (for reporting).
func (t Ticks) Seconds() float64 { return float64(t) / float64(Second) }

// String renders ticks with an adaptive unit.
func (t Ticks) String() string {
	switch {
	case t >= Second:
		return fmt.Sprintf("%.3fs", t.Seconds())
	case t >= Millisecond:
		return fmt.Sprintf("%.3fms", float64(t)/float64(Millisecond))
	case t >= Microsecond:
		return fmt.Sprintf("%.3fµs", float64(t)/float64(Microsecond))
	default:
		return fmt.Sprintf("%dns", int64(t))
	}
}

// Inc atomically increments a ledger counter. All layers mutate counters
// through Inc/Add so that a ledger shared across goroutines stays race-free
// while the single-threaded fast path stays allocation-free.
func Inc(c *int64) { atomic.AddInt64(c, 1) }

// Add atomically adds n to a ledger counter.
func Add(c *int64, n int64) { atomic.AddInt64(c, n) }

// Load atomically reads a ledger counter.
func Load(c *int64) int64 { return atomic.LoadInt64(c) }

// Counters aggregates event counts from all layers. Fields are mutated via
// Inc/Add and may be read directly once the ledger is quiesced.
type Counters struct {
	PageReads    int64 // pages transferred from disk
	SeqPageReads int64 // of which sequential (scan) reads
	PageWrites   int64
	Seeks        int64 // repositioning operations
	SeekDistance int64 // total page distance sought across

	BufferHits   int64
	BufferMisses int64
	HashLookups  int64 // buffer-manager hash-table probes
	Evictions    int64

	Swizzles   int64 // NodeID -> pointer conversions
	Unswizzles int64 // pointer -> NodeID conversions

	NodesVisited int64 // navigation primitive node touches
	TuplesMoved  int64 // path instances passed between operators
	SetInserts   int64 // R/S set maintenance
	SetLookups   int64

	AsyncSubmitted int64
	AsyncCompleted int64
	AsyncWithdrawn int64 // prefetches cancelled before delivery

	ClustersVisited int64 // distinct cluster activations by I/O operators
	// ClustersSkipped always reads 0: nothing skips a cluster any more.
	// The benchmark's storage.clusters_skipped_frac still reads it; both go
	// with Benchmark v2.
	ClustersSkipped int64
	SpecInstances   int64 // speculative left-incomplete instances created
	FallbackEvents  int64 // low-memory fallback activations

	// Fault plane (vdisk fault injection and the verified-read path).
	ReadFaults    int64 // transient read errors injected by the device
	ReadRetries   int64 // bounded re-reads after a fault or checksum failure
	ChecksumFails int64 // page images that failed trailer verification
	LatencySpikes int64 // injected latency spikes observed by reads
}

// Ledger is the virtual clock plus counters. One ledger may be shared by
// several operators of one query, and read by monitoring goroutines while
// they charge it, because all mutation paths are atomic.
type Ledger struct {
	Now    Ticks // current virtual time
	CPU    Ticks // total CPU ticks charged
	IOWait Ticks // total time spent blocked on I/O
	Counters
}

// NewLedger returns a zeroed ledger.
func NewLedger() *Ledger { return &Ledger{} }

// fields returns the addresses of every int64-backed field in declaration
// order, so Snapshot/Sub/Reset need not enumerate them by name. Cold path
// only (reporting); the hot mutation path never calls it.
func (l *Ledger) fields() [numFields]*int64 {
	return [numFields]*int64{
		(*int64)(&l.Now), (*int64)(&l.CPU), (*int64)(&l.IOWait),
		&l.PageReads, &l.SeqPageReads, &l.PageWrites, &l.Seeks, &l.SeekDistance,
		&l.BufferHits, &l.BufferMisses, &l.HashLookups, &l.Evictions,
		&l.Swizzles, &l.Unswizzles,
		&l.NodesVisited, &l.TuplesMoved, &l.SetInserts, &l.SetLookups,
		&l.AsyncSubmitted, &l.AsyncCompleted, &l.AsyncWithdrawn,
		&l.ClustersVisited, &l.ClustersSkipped, &l.SpecInstances, &l.FallbackEvents,
		&l.ReadFaults, &l.ReadRetries, &l.ChecksumFails, &l.LatencySpikes,
	}
}

// numFields is the number of int64-backed ledger fields.
const numFields = 29

// fieldNames are the exported snapshot names of every ledger field, in
// fields() order. The first three are virtual clocks in nanoseconds; the
// rest are event counters. Names are stable: the metrics surface
// (internal/server's Prometheus exposition) derives its series from them.
var fieldNames = [numFields]string{
	"now_ns", "cpu_ns", "iowait_ns",
	"page_reads", "seq_page_reads", "page_writes", "seeks", "seek_distance",
	"buffer_hits", "buffer_misses", "hash_lookups", "evictions",
	"swizzles", "unswizzles",
	"nodes_visited", "tuples_moved", "set_inserts", "set_lookups",
	"async_submitted", "async_completed", "async_withdrawn",
	"clusters_visited", "clusters_skipped", "spec_instances", "fallback_events",
	"read_faults", "read_retries", "checksum_fails", "latency_spikes",
}

// NamedValue is one ledger field under its exported snapshot name.
type NamedValue struct {
	Name  string
	Value int64
}

// Named returns every ledger field as a name/value pair, built from atomic
// loads (same consistency as Snapshot). Names ending in "_ns" are virtual
// clocks in nanoseconds; the rest are monotonic event counters.
func (l *Ledger) Named() []NamedValue {
	fs := l.fields()
	out := make([]NamedValue, numFields)
	for i, f := range fs {
		out[i] = NamedValue{Name: fieldNames[i], Value: atomic.LoadInt64(f)}
	}
	return out
}

// AdvanceCPU charges t ticks of CPU work, advancing the clock.
func (l *Ledger) AdvanceCPU(t Ticks) {
	if t < 0 {
		panic("stats: negative CPU charge")
	}
	atomic.AddInt64((*int64)(&l.Now), int64(t))
	atomic.AddInt64((*int64)(&l.CPU), int64(t))
}

// BlockUntil advances the clock to at least t, accounting the gap as I/O
// wait. A t in the past is a no-op (the I/O had already completed while the
// CPU was busy). Under concurrent callers the CAS loop guarantees each tick
// of forward motion is attributed to IOWait exactly once.
func (l *Ledger) BlockUntil(t Ticks) {
	for {
		now := Ticks(atomic.LoadInt64((*int64)(&l.Now)))
		if t <= now {
			return
		}
		if atomic.CompareAndSwapInt64((*int64)(&l.Now), int64(now), int64(t)) {
			atomic.AddInt64((*int64)(&l.IOWait), int64(t-now))
			return
		}
	}
}

// SeedAt advances the clock to at least t without charging anything: the
// ledger's owner "arrives" at device instant t. The concurrent engine seeds
// every per-query ledger with the device clock at execution start, so a
// query is billed only for time past its arrival — not for the device
// history that writers and earlier gangs already paid for.
func (l *Ledger) SeedAt(t Ticks) {
	for {
		now := Ticks(atomic.LoadInt64((*int64)(&l.Now)))
		if t <= now {
			return
		}
		if atomic.CompareAndSwapInt64((*int64)(&l.Now), int64(now), int64(t)) {
			return
		}
	}
}

// Advance charges t ticks of device work, advancing the clock without
// attributing CPU or I/O wait. The virtual disk uses it for synchronous
// writes billed to the volume ledger, whose clock is a sum of work rather
// than an instant.
func (l *Ledger) Advance(t Ticks) {
	if t < 0 {
		panic("stats: negative advance")
	}
	atomic.AddInt64((*int64)(&l.Now), int64(t))
}

// Total returns the total elapsed virtual time (atomic; safe concurrently).
func (l *Ledger) Total() Ticks { return Ticks(atomic.LoadInt64((*int64)(&l.Now))) }

// CPUFraction returns CPU/Total, or 0 for an empty ledger.
func (l *Ledger) CPUFraction() float64 {
	now := atomic.LoadInt64((*int64)(&l.Now))
	if now == 0 {
		return 0
	}
	return float64(atomic.LoadInt64((*int64)(&l.CPU))) / float64(now)
}

// Reset zeroes the ledger for reuse. Writers must be quiesced: concurrent
// mutations interleaved with Reset leave a mix of old and new values.
func (l *Ledger) Reset() {
	for _, f := range l.fields() {
		atomic.StoreInt64(f, 0)
	}
}

// Merge atomically adds every field of the snapshot s into l. The engine
// uses it to fold a per-query ledger into the volume ledger at query
// completion: addition commutes, so the volume totals are the sum of all
// queries' charges no matter in which order the queries finish. Merging a live ledger is safe but folds in whatever its writers
// had charged at snapshot time; quiesce the source first for exact totals.
func (l *Ledger) Merge(s Ledger) {
	src, dst := s.fields(), l.fields()
	for i := range src {
		if v := *src[i]; v != 0 {
			atomic.AddInt64(dst[i], v)
		}
	}
}

// Snapshot returns a consistent-enough copy of the ledger built from atomic
// loads of every field. Individual fields are each exact; cross-field skew
// is bounded by whatever mutations race with the loads.
func (l *Ledger) Snapshot() Ledger {
	var s Ledger
	src, dst := l.fields(), s.fields()
	for i := range src {
		*dst[i] = atomic.LoadInt64(src[i])
	}
	return s
}

// Sub returns the difference l - base, for measuring a phase that started at
// the base snapshot.
func (l *Ledger) Sub(base Ledger) Ledger {
	d := l.Snapshot()
	df, bf := d.fields(), base.fields()
	for i := range df {
		*df[i] -= *bf[i]
	}
	return d
}

// String summarizes the ledger for logs and the cost report of cmd/xpathq.
func (l *Ledger) String() string {
	s := l.Snapshot()
	return fmt.Sprintf(
		"total=%v cpu=%v (%.0f%%) iowait=%v reads=%d (seq=%d) seeks=%d dist=%d hits=%d misses=%d spec=%d",
		s.Now, s.CPU, 100*s.CPUFraction(), s.IOWait,
		s.PageReads, s.SeqPageReads, s.Seeks, s.SeekDistance,
		s.BufferHits, s.BufferMisses, s.SpecInstances)
}
