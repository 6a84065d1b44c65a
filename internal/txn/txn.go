// Package txn makes mixed read/write traffic on one volume safe and
// durable: snapshot reads over immutable version maps, copy-on-write
// staging for writers, and a group-commit redo log.
//
// Reads. Every query pins the version that is current at admission
// (Manager.Snapshot) and resolves pages through it for its whole run;
// writers never touch a page any pinned version can see, so readers are
// never torn, locked, or retried. Superseded physical pages are reclaimed
// once the last snapshot that could see them drains (and the commit that
// superseded them is durable), then recycled as copy targets.
//
// Writes. Update runs the caller's function under the staging lock —
// writers are serialized, the classic single-writer/many-readers MVCC
// shape — staging mutations against a private WriteTxn. At commit the
// write set is relocated to copy-on-write targets, the successor version
// is published (readers admitted from now on see it), and the commit
// enters the group pipeline.
//
// Group commit. The pipeline batches concurrent commits into one log
// chain whose final page write is the single fsync-equivalent for every
// member; all members are acked together when it lands. There is no
// flusher goroutine: the first committer to reach the pipeline becomes
// the *leader*, takes whatever is enqueued at that instant, flushes it
// as one group, and acks everyone — it never waits for stragglers, so a
// lone commit costs staging plus the log append, and the package never
// leaks goroutines and needs no Close for correctness. A group larger
// than one forms only from commits that enqueued while the previous
// leader was flushing. Measured (BenchmarkCommit, 4 closed-loop writers,
// 2 CPUs): about 0.9 flushes per commit, against 0.36 for the 500µs sleep
// this replaced (at 30µs instead of 460µs per commit) — closed-loop
// writers are rarely enqueued together, so they share few log writes.
// /v1/metrics reports the figure.
//
// Durability semantics are group-commit standard: a commit is visible to
// new snapshots as soon as it is published (possibly before it is
// durable) and guaranteed to survive a crash only once its group's ack
// was issued with no write yet dropped by the fault plane. Recovery
// (storage.Open) replays whole groups in order, so the durable prefix is
// always transaction-consistent.
package txn

import (
	"errors"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"pathdb/internal/stats"
	"pathdb/internal/storage"
	"pathdb/internal/vdisk"
	"pathdb/internal/xmltree"
)

// ErrClosed is returned by Update after Close.
var ErrClosed = errors.New("txn: manager closed")

// Options configures a Manager.
type Options struct {
	// GroupWindow is ignored: a commit leader never waits. The field stays
	// so existing Options literals compile.
	GroupWindow time.Duration
	// CheckpointEvery folds the version map into a fresh checkpoint after
	// this many groups, bounding recovery's redo scan and recycling log
	// pages. Default 64.
	CheckpointEvery int
}

func (o Options) withDefaults() Options {
	if o.CheckpointEvery <= 0 {
		o.CheckpointEvery = 64
	}
	return o
}

// Metrics is a point-in-time snapshot of the manager's counters.
type Metrics struct {
	Commits  uint64 // committed transactions (acked durable-at-issue groups included)
	Aborts   uint64 // rolled-back transactions (caller error or staging failure)
	Groups   uint64 // commit groups flushed
	Flushes  uint64 // log pages written (fsync-equivalents); ≤ one per group chain page
	MaxGroup uint64 // largest group size seen
	Epoch    uint64 // latest published epoch
	Pinned   int    // live snapshots
	FreePage int    // reclaimable physical pages on the free list
}

// FlushesPerCommit is the group-commit batching figure of merit: < 1 means
// commits genuinely shared flushes.
func (m Metrics) FlushesPerCommit() float64 {
	if m.Commits == 0 {
		return 0
	}
	return float64(m.Flushes) / float64(m.Commits)
}

// commitReq is one member of a commit group.
type commitReq struct {
	epoch  uint64
	deltas map[vdisk.PageID]vdisk.PageID
	fresh  []vdisk.PageID
	freed  []vdisk.PageID
	done   chan struct{}
}

type pendingFree struct {
	epoch uint64 // commit that superseded these pages
	pages []vdisk.PageID
}

// Manager owns the transactional state of one volume.
type Manager struct {
	st   *storage.Store
	opts Options

	// staging serializes writers: held from Update entry through version
	// publication. Also guards epoch, free, reclaim, logPages.
	staging  sync.Mutex
	epoch    uint64
	free     []vdisk.PageID // reclaimed, safe-to-reuse physical pages
	reclaim  []pendingFree  // superseded pages awaiting durability + snapshot drain
	logPages []vdisk.PageID // group-chain pages since the last checkpoint

	cur atomic.Pointer[storage.VersionMap] // latest published version

	// pins tracks live snapshots per epoch.
	pinMu sync.Mutex
	pins  map[uint64]int

	// The commit pipeline: pending members and the leader gate.
	qmu     sync.Mutex
	pending []*commitReq
	flushMu sync.Mutex
	logHead vdisk.PageID
	groups  int // since last checkpoint

	closed  atomic.Bool
	durable atomic.Uint64 // highest epoch whose group flush was issued

	commits  atomic.Uint64
	aborts   atomic.Uint64
	groupsN  atomic.Uint64
	flushes  atomic.Uint64
	maxGroup atomic.Uint64
}

// NewManager adopts the store into transactional mode (persisting the
// initial checkpoint if the volume has none) and returns its manager.
// There must be at most one Manager per volume.
func NewManager(st *storage.Store, opts Options) (*Manager, error) {
	state, err := st.InitTxn()
	if err != nil {
		return nil, err
	}
	m := &Manager{
		st:      st,
		opts:    opts.withDefaults(),
		epoch:   state.Epoch,
		free:    append([]vdisk.PageID(nil), state.Free...),
		logHead: state.LogHead,
		pins:    map[uint64]int{},
	}
	m.durable.Store(state.Epoch)
	m.cur.Store(st.CurrentVersion())
	return m, nil
}

// Close rejects future Updates and waits for in-flight ones to drain.
// Reads (snapshots) keep working.
func (m *Manager) Close() {
	m.closed.Store(true)
	m.staging.Lock() // wait out the staging writer…
	m.staging.Unlock()
	m.flushMu.Lock() // …and the flush leader
	m.flushMu.Unlock()
}

// Snap is one pinned snapshot. Release it when the query drains.
type Snap struct {
	m        *Manager
	vm       *storage.VersionMap
	released atomic.Bool
}

// Snapshot pins the current version for a reader.
func (m *Manager) Snapshot() *Snap {
	m.pinMu.Lock()
	vm := m.cur.Load()
	m.pins[vm.Epoch()]++
	m.pinMu.Unlock()
	return &Snap{m: m, vm: vm}
}

// Epoch returns the snapshot's version epoch.
func (s *Snap) Epoch() uint64 { return s.vm.Epoch() }

// View returns a store view pinned to this snapshot, charging to led.
func (s *Snap) View(led *stats.Ledger) *storage.Store {
	return s.m.st.WithSnapshot(s.vm, led)
}

// Release unpins the snapshot (idempotent), allowing page versions it
// kept alive to be reclaimed.
func (s *Snap) Release() {
	if s.released.Swap(true) {
		return
	}
	s.m.pinMu.Lock()
	e := s.vm.Epoch()
	if n := s.m.pins[e]; n > 1 {
		s.m.pins[e] = n - 1
	} else {
		delete(s.m.pins, e)
	}
	s.m.pinMu.Unlock()
}

// minPinned returns the lowest pinned epoch, or ^0 when nothing is pinned.
func (m *Manager) minPinned() uint64 {
	m.pinMu.Lock()
	defer m.pinMu.Unlock()
	min := ^uint64(0)
	for e := range m.pins {
		if e < min {
			min = e
		}
	}
	return min
}

// Tx is one write transaction, valid inside an Update callback.
type Tx struct {
	wt  *storage.WriteTxn
	led *stats.Ledger
}

// InsertSubtree stages an insert of frag as a child of parent (before
// `before`, or appended when before == storage.InvalidNodeID). The
// returned NodeID is logical, hence stable across the commit.
func (t *Tx) InsertSubtree(parent, before storage.NodeID, frag *xmltree.Node) (storage.NodeID, error) {
	return t.wt.InsertSubtree(parent, before, frag)
}

// DeleteSubtree stages a delete; see storage.WriteTxn.DeleteSubtree.
func (t *Tx) DeleteSubtree(id storage.NodeID) error {
	return t.wt.DeleteSubtree(id)
}

// Metrics returns a snapshot of the manager's counters.
func (m *Manager) Metrics() Metrics {
	m.pinMu.Lock()
	pinned := 0
	for _, n := range m.pins {
		pinned += n
	}
	m.pinMu.Unlock()
	m.staging.Lock()
	freeN := len(m.free)
	m.staging.Unlock()
	return Metrics{
		Commits:  m.commits.Load(),
		Aborts:   m.aborts.Load(),
		Groups:   m.groupsN.Load(),
		Flushes:  m.flushes.Load(),
		MaxGroup: m.maxGroup.Load(),
		Epoch:    m.cur.Load().Epoch(),
		Pinned:   pinned,
		FreePage: freeN,
	}
}

// Update runs fn inside a write transaction and commits its staged
// mutations; any error aborts with the volume untouched. The commit is
// acknowledged when its group's log chain has been written (see the
// package comment for what that guarantees under an armed crash fault).
func (m *Manager) Update(fn func(*Tx) error) error {
	_, err := m.UpdateEpoch(fn)
	return err
}

// UpdateEpoch is Update, but additionally returns the publish epoch of
// the committed version — the exact epoch this transaction's mutations
// became visible at, assigned under the staging lock so concurrent
// commits can attribute epochs unambiguously. A transaction that staged
// nothing returns the epoch it read (no version was published).
func (m *Manager) UpdateEpoch(fn func(*Tx) error) (uint64, error) {
	if m.closed.Load() {
		return 0, ErrClosed
	}
	led := stats.NewLedger()

	m.staging.Lock()
	if m.closed.Load() {
		m.staging.Unlock()
		return 0, ErrClosed
	}
	base := m.cur.Load()
	tx := &Tx{wt: m.st.BeginWrite(base, led), led: led}
	if err := fn(tx); err != nil {
		m.abortLocked(tx)
		m.staging.Unlock()
		m.st.Ledger().Merge(led.Snapshot())
		return 0, err
	}
	ws, err := tx.wt.WriteSet()
	if err != nil {
		m.abortLocked(tx)
		m.staging.Unlock()
		m.st.Ledger().Merge(led.Snapshot())
		return 0, err
	}
	if len(ws.Images) == 0 { // read-only transaction
		m.staging.Unlock()
		m.st.Ledger().Merge(led.Snapshot())
		return base.Epoch(), nil
	}

	// Publish and enqueue before releasing the staging lock: the pending
	// queue must stay in epoch order so every flushed group is a
	// contiguous epoch range — that is what makes the durable log a
	// transaction-consistent prefix of commit order.
	req := m.stageCommitLocked(base, ws)
	m.qmu.Lock()
	m.pending = append(m.pending, req)
	m.qmu.Unlock()
	m.staging.Unlock()
	m.st.Ledger().Merge(led.Snapshot())

	m.flush(req)
	m.commits.Add(1)
	return req.epoch, nil
}

// abortLocked recycles the pages an aborted staging allocated. Caller
// holds m.staging.
func (m *Manager) abortLocked(tx *Tx) {
	m.free = append(m.free, tx.wt.FreshPages()...)
	m.aborts.Add(1)
}

// stageCommitLocked relocates the write set to copy-on-write targets,
// publishes the successor version, and builds the group-pipeline request.
// Caller holds m.staging.
func (m *Manager) stageCommitLocked(base *storage.VersionMap, ws storage.WriteSet) *commitReq {
	isFresh := make(map[vdisk.PageID]bool, len(ws.Fresh))
	for _, p := range ws.Fresh {
		isFresh[p] = true
	}
	logicals := make([]vdisk.PageID, 0, len(ws.Images))
	for p := range ws.Images {
		logicals = append(logicals, p)
	}
	sort.Slice(logicals, func(i, j int) bool { return logicals[i] < logicals[j] })

	deltas := map[vdisk.PageID]vdisk.PageID{}
	var freed []vdisk.PageID
	for _, l := range logicals {
		if isFresh[l] {
			// Fresh logical pages live at their identity location; no
			// version can see them yet, so writing in place is safe.
			m.st.WriteData(l, ws.Images[l])
			continue
		}
		phys := m.allocPhysLocked()
		m.st.WriteData(phys, ws.Images[l])
		freed = append(freed, base.Resolve(l))
		deltas[l] = phys
	}

	m.epoch++
	next := base.Apply(m.epoch, deltas, ws.Fresh)
	m.cur.Store(next)
	m.st.PublishVersion(next)
	// Register the committed clusters' synopses at the new epoch so the
	// chooser's refresh folds them in without loading a page.
	m.st.RefreshSynopses(m.epoch, ws.Images)

	return &commitReq{
		epoch:  m.epoch,
		deltas: deltas,
		fresh:  ws.Fresh,
		freed:  freed,
		done:   make(chan struct{}),
	}
}

// allocPhysLocked returns an unreferenced physical page: a reclaimed one
// if available, else a fresh allocation. Caller holds m.staging.
func (m *Manager) allocPhysLocked() vdisk.PageID {
	m.drainReclaimLocked()
	for i := len(m.free) - 1; i >= 0; i-- {
		p := m.free[i]
		// Evict any stale frame/image of the superseded version before
		// the slot is rewritten; keep the page for a later pass if a
		// lagging reader still pins the frame.
		if m.st.DropVersion(p) {
			m.free = append(m.free[:i], m.free[i+1:]...)
			return p
		}
	}
	return m.st.Disk().Alloc()
}

// logAlloc grants a page for a log chain. Recycled pages are zeroed before
// return so they read back as invalid until the chain write lands — the
// contract storage.PageAlloc demands (a stale record on a preallocated
// head would derail recovery). Takes m.staging; called by the flush leader
// (flushMu → staging is the one nesting order in this package).
func (m *Manager) logAlloc() vdisk.PageID {
	m.staging.Lock()
	defer m.staging.Unlock()
	m.drainReclaimLocked()
	for i := len(m.free) - 1; i >= 0; i-- {
		p := m.free[i]
		if m.st.DropVersion(p) {
			m.free = append(m.free[:i], m.free[i+1:]...)
			m.st.ZeroPage(p)
			return p
		}
	}
	return m.st.Disk().Alloc()
}

// drainReclaimLocked moves superseded pages to the free list once their
// superseding commit is durable and no snapshot old enough to see them
// remains. Caller holds m.staging.
func (m *Manager) drainReclaimLocked() {
	if len(m.reclaim) == 0 {
		return
	}
	durable := m.durable.Load()
	minPin := m.minPinned()
	keep := m.reclaim[:0]
	for _, pf := range m.reclaim {
		if pf.epoch <= durable && pf.epoch <= minPin {
			m.free = append(m.free, pf.pages...)
		} else {
			keep = append(keep, pf)
		}
	}
	m.reclaim = keep
}

// flush drives req (already enqueued) through the group pipeline: either
// be absorbed into a concurrent leader's group or become the leader.
func (m *Manager) flush(req *commitReq) {
	m.flushMu.Lock()
	select {
	case <-req.done:
		// A previous leader flushed us while we waited for the gate.
		m.flushMu.Unlock()
		return
	default:
	}
	// Leader: the group is whatever has enqueued by now — req itself (only
	// a leader drains the queue) and any commit that staged while the
	// previous leader flushed.
	m.qmu.Lock()
	batch := m.pending
	m.pending = nil
	m.qmu.Unlock()

	g := foldGroup(batch)
	used, next := m.st.AppendGroup(m.logHead, g, m.logAlloc)
	m.flushes.Add(uint64(len(used)))
	m.groupsN.Add(1)
	if n := uint64(len(batch)); n > m.maxGroup.Load() {
		m.maxGroup.Store(n)
	}
	m.durable.Store(g.Epoch)

	m.staging.Lock()
	m.logHead = next
	m.logPages = append(m.logPages, used...)
	for _, r := range batch {
		if len(r.freed) > 0 {
			m.reclaim = append(m.reclaim, pendingFree{epoch: r.epoch, pages: r.freed})
		}
	}
	m.groups++
	ckpt := m.groups >= m.opts.CheckpointEvery
	m.staging.Unlock()

	if ckpt {
		m.checkpoint()
	}

	for _, r := range batch {
		close(r.done)
	}
	m.flushMu.Unlock()
}

// foldGroup merges a batch (ascending epochs) into one group record:
// newest relocation per logical page wins, freed and fresh sets union.
func foldGroup(batch []*commitReq) storage.GroupRecord {
	g := storage.GroupRecord{Commits: uint32(len(batch))}
	folded := map[vdisk.PageID]vdisk.PageID{}
	for _, r := range batch {
		for l, p := range r.deltas {
			folded[l] = p
		}
		g.Fresh = append(g.Fresh, r.fresh...)
		g.Freed = append(g.Freed, r.freed...)
		if r.epoch > g.Epoch {
			g.Epoch = r.epoch
		}
	}
	logicals := make([]vdisk.PageID, 0, len(folded))
	for l := range folded {
		logicals = append(logicals, l)
	}
	sort.Slice(logicals, func(i, j int) bool { return logicals[i] < logicals[j] })
	for _, l := range logicals {
		g.Deltas = append(g.Deltas, storage.MapDelta{Logical: l, Physical: folded[l]})
	}
	return g
}

// checkpoint folds the durable state into a fresh checkpoint chain and
// recycles the consumed log pages. Called by the flush leader (holding
// flushMu), so the durable version equals the published one.
func (m *Manager) checkpoint() {
	m.staging.Lock()
	vm := m.cur.Load()
	m.drainReclaimLocked()
	st := storage.TxnState{
		Epoch:  vm.Epoch(),
		Map:    vm.Entries(),
		Extras: append([]vdisk.PageID(nil), vm.Extras()...),
		Free:   append([]vdisk.PageID(nil), m.free...),
	}
	oldLog := m.logPages
	oldHead := m.logHead
	m.staging.Unlock()

	freedCkpt, next, err := m.st.WriteCheckpoint(st, m.logAlloc)
	if err != nil {
		return // meta unreadable mid-crash; recovery will redo the log
	}

	m.staging.Lock()
	m.logHead = next
	m.logPages = nil
	m.groups = 0
	// Old checkpoint pages, consumed log pages, and the orphaned
	// preallocated head are free as soon as the new meta write is issued:
	// if that write was dropped (crash), every later reuse write is
	// dropped with it, so the old chain survives intact for recovery.
	m.free = append(m.free, freedCkpt...)
	m.free = append(m.free, oldLog...)
	m.free = append(m.free, oldHead)
	m.staging.Unlock()
}
