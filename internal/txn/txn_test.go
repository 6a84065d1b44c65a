package txn

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"

	"pathdb/internal/stats"
	"pathdb/internal/storage"
	"pathdb/internal/vdisk"
	"pathdb/internal/xmltree"
	"pathdb/internal/xpath"
)

// fixture imports a small document and returns the store plus the root
// element's NodeID (the insertion parent for the tests).
func fixture(t testing.TB, pageSize int) (*storage.Store, *xmltree.Dictionary, storage.NodeID) {
	t.Helper()
	dict := xmltree.NewDictionary()
	b := xmltree.NewBuilder(dict)
	b.Begin("root")
	for i := 0; i < 10; i++ {
		b.Leaf("x", strings.Repeat("d", 24))
	}
	b.End()
	disk := vdisk.New(vdisk.DefaultCostModel(), stats.NewLedger(), pageSize)
	st, err := storage.Import(disk, dict, b.Doc(), storage.ImportOptions{PageSize: pageSize, Layout: storage.LayoutContiguous, Seed: 7})
	if err != nil {
		t.Fatalf("Import: %v", err)
	}
	root := rootElem(t, st)
	return st, dict, root
}

func rootElem(t testing.TB, st *storage.Store) storage.NodeID {
	t.Helper()
	c, ok := st.Step(st.Swizzle(st.Root()), xpath.Child, xpath.Wildcard()).Next()
	if !ok {
		t.Fatal("no root element")
	}
	return c.ID()
}

// insFrag builds <ins>v{i}</ins>. The tag must be pre-interned (the
// dictionary is not safe for concurrent interning).
func insFrag(tag xmltree.TagID, i int) *xmltree.Node {
	e := xmltree.NewElement(tag)
	e.AppendChild(xmltree.NewText(fmt.Sprintf("v%d", i)))
	return e
}

func commitOne(m *Manager, root storage.NodeID, tag xmltree.TagID, i int) error {
	return m.Update(func(tx *Tx) error {
		_, err := tx.InsertSubtree(root, storage.InvalidNodeID, insFrag(tag, i))
		return err
	})
}

func countIns(m *Manager, tag xmltree.TagID) int {
	snap := m.Snapshot()
	defer snap.Release()
	return snap.View(stats.NewLedger()).Export().CountTag(tag)
}

// insTexts returns the text of every <ins> element in document order.
func insTexts(doc *xmltree.Node, tag xmltree.TagID) []string {
	var out []string
	doc.Walk(func(n *xmltree.Node) bool {
		if n.Kind == xmltree.Element && n.Tag == tag {
			out = append(out, n.TextContent())
		}
		return true
	})
	return out
}

func TestUpdateCommitVisible(t *testing.T) {
	st, dict, root := fixture(t, 512)
	m, err := NewManager(st, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ins := dict.Intern("ins")
	for i := 0; i < 3; i++ {
		if err := commitOne(m, root, ins, i); err != nil {
			t.Fatalf("commit %d: %v", i, err)
		}
	}
	if got := countIns(m, ins); got != 3 {
		t.Fatalf("ins after 3 commits = %d, want 3", got)
	}
	mt := m.Metrics()
	if mt.Commits != 3 || mt.Epoch != 3 {
		t.Fatalf("metrics = %+v, want 3 commits at epoch 3", mt)
	}
}

func TestSnapshotIsolation(t *testing.T) {
	st, dict, root := fixture(t, 512)
	m, err := NewManager(st, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ins := dict.Intern("ins")

	old := m.Snapshot() // pinned before any commit
	for i := 0; i < 5; i++ {
		if err := commitOne(m, root, ins, i); err != nil {
			t.Fatal(err)
		}
	}
	if got := old.View(stats.NewLedger()).Export().CountTag(ins); got != 0 {
		t.Fatalf("pre-commit snapshot sees %d inserts, want 0", got)
	}
	if got := countIns(m, ins); got != 5 {
		t.Fatalf("fresh snapshot sees %d inserts, want 5", got)
	}
	if p := m.Metrics().Pinned; p != 1 {
		t.Fatalf("pinned = %d, want 1", p)
	}
	old.Release()
	old.Release() // idempotent
	if p := m.Metrics().Pinned; p != 0 {
		t.Fatalf("pinned after release = %d, want 0", p)
	}
}

func TestAbortRollsBack(t *testing.T) {
	st, dict, root := fixture(t, 512)
	m, err := NewManager(st, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ins := dict.Intern("ins")
	sentinel := errors.New("boom")
	err = m.Update(func(tx *Tx) error {
		if _, err := tx.InsertSubtree(root, storage.InvalidNodeID, insFrag(ins, 0)); err != nil {
			return err
		}
		return sentinel
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("Update returned %v, want the callback error", err)
	}
	if got := countIns(m, ins); got != 0 {
		t.Fatalf("aborted insert visible: count = %d", got)
	}
	// A read-only transaction commits nothing and bumps no epoch.
	if err := m.Update(func(tx *Tx) error { return nil }); err != nil {
		t.Fatal(err)
	}
	mt := m.Metrics()
	if mt.Aborts != 1 || mt.Commits != 0 || mt.Epoch != 0 {
		t.Fatalf("metrics = %+v, want 1 abort, 0 commits, epoch 0", mt)
	}
}

func TestUpdateAfterClose(t *testing.T) {
	st, _, _ := fixture(t, 512)
	m, err := NewManager(st, Options{})
	if err != nil {
		t.Fatal(err)
	}
	m.Close()
	if err := m.Update(func(tx *Tx) error { return nil }); !errors.Is(err, ErrClosed) {
		t.Fatalf("Update after Close: %v, want ErrClosed", err)
	}
	m.Snapshot().Release() // reads keep working
}

// TestGroupCommitBatching: a group is what enqueued while the previous
// leader flushed. The test stands in for that leader by holding the flush
// gate until N writers have staged; the first of them through the gate
// then takes all N, and they share one flush.
func TestGroupCommitBatching(t *testing.T) {
	st, dict, root := fixture(t, 1024)
	m, err := NewManager(st, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ins := dict.Intern("ins")

	const writers = 4
	m.flushMu.Lock()
	errCh := make(chan error, writers)
	for w := 0; w < writers; w++ {
		go func(w int) { errCh <- commitOne(m, root, ins, w) }(w)
	}
	for enqueued := 0; enqueued < writers; runtime.Gosched() {
		m.qmu.Lock()
		enqueued = len(m.pending)
		m.qmu.Unlock()
	}
	m.flushMu.Unlock()
	for w := 0; w < writers; w++ {
		if err := <-errCh; err != nil {
			t.Fatal(err)
		}
	}

	mt := m.Metrics()
	if mt.Commits != writers || mt.Groups != 1 || mt.MaxGroup != writers || mt.Flushes != 1 {
		t.Fatalf("metrics = %+v, want %d commits in one group of %d on one flush", mt, writers, writers)
	}
	if fpc := mt.FlushesPerCommit(); fpc != 1.0/writers {
		t.Fatalf("flushes per commit = %v, want 1/%d", fpc, writers)
	}
	if got := countIns(m, ins); got != writers {
		t.Fatalf("ins = %d, want %d", got, writers)
	}
}

// TestSoloCommits: one writer never shares a flush — every commit is its
// own group. (That it does not wait either is structural: the package
// holds no timer and no sleep.)
func TestSoloCommits(t *testing.T) {
	st, dict, root := fixture(t, 512)
	m, err := NewManager(st, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ins := dict.Intern("ins")
	const commits = 200
	for i := 0; i < commits; i++ {
		if err := commitOne(m, root, ins, i); err != nil {
			t.Fatalf("commit %d: %v", i, err)
		}
	}
	mt := m.Metrics()
	if mt.Commits != commits || mt.Groups != commits || mt.MaxGroup != 1 {
		t.Fatalf("metrics = %+v, want %d commits in %d groups of one", mt, commits, commits)
	}
}

// TestConcurrentReadersWriters runs 8 readers against 2 writers. Because
// every commit inserts exactly one <ins> node and bumps the epoch by one,
// a snapshot is consistent iff its count equals its epoch — any torn read
// breaks the equality.
func TestConcurrentReadersWriters(t *testing.T) {
	st, dict, root := fixture(t, 512)
	m, err := NewManager(st, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ins := dict.Intern("ins")

	const writers, perWriter, readers = 2, 20, 8
	stop := make(chan struct{})
	errCh := make(chan error, readers+writers)

	var rg sync.WaitGroup
	for r := 0; r < readers; r++ {
		rg.Add(1)
		go func() {
			defer rg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				snap := m.Snapshot()
				got := snap.View(stats.NewLedger()).Export().CountTag(ins)
				epoch := snap.Epoch()
				snap.Release()
				if uint64(got) != epoch {
					errCh <- fmt.Errorf("torn snapshot: count %d at epoch %d", got, epoch)
					return
				}
			}
		}()
	}

	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				if err := commitOne(m, root, ins, w*1000+i); err != nil {
					errCh <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	rg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	if got := countIns(m, ins); got != writers*perWriter {
		t.Fatalf("ins = %d, want %d", got, writers*perWriter)
	}
}

// TestCrashRecoveryMatrix arms the write-crash fault at every cut point in
// a commit sequence, reopens the volume, and checks the durability
// contract: the recovered document is an exact prefix of commit order that
// covers at least every hard-acked commit (acked while no write had been
// dropped yet). The recovered volume must also accept new transactions.
// The cuts are the writes a traced dry run of the same sequence makes, so
// every iteration crashes.
func TestCrashRecoveryMatrix(t *testing.T) {
	const commits = 8
	// A tiny checkpoint interval: the sweep crosses several checkpoints, so
	// cuts land inside checkpoint writes too.
	opts := Options{CheckpointEvery: 3}
	writes := 0
	{
		st, dict, root := fixture(t, 512)
		ins := dict.Intern("ins")
		m, err := NewManager(st, opts)
		if err != nil {
			t.Fatalf("dry run: NewManager: %v", err)
		}
		st.Disk().SetTrace(true)
		for i := 0; i < commits; i++ {
			if err := commitOne(m, root, ins, i); err != nil {
				t.Fatalf("dry run: commit %d: %v", i, err)
			}
		}
		for _, ev := range st.Disk().Trace() {
			if ev.Op == "write" {
				writes++
			}
		}
	}
	if writes == 0 {
		t.Fatal("dry run: the commit sequence wrote nothing")
	}
	t.Logf("%d commits make %d device writes, one cut each", commits, writes)
	for cut := 0; cut < writes; cut++ {
		st, dict, root := fixture(t, 512)
		ins := dict.Intern("ins")
		m, err := NewManager(st, opts)
		if err != nil {
			t.Fatalf("cut=%d: NewManager: %v", cut, err)
		}
		disk := st.Disk()
		base := disk.DroppedWrites()
		disk.SetWriteFault(cut)
		hard, done := 0, 0
		for i := 0; i < commits; i++ {
			if err := commitOne(m, root, ins, i); err != nil {
				// Past the cut the in-memory store reads pages whose
				// backing writes were dropped; the process has
				// effectively crashed, so stop issuing commits.
				break
			}
			done = i + 1
			if disk.DroppedWrites() == base {
				hard = i + 1
			}
		}
		if disk.DroppedWrites() == base {
			t.Fatalf("cut=%d of %d writes: no write was dropped", cut, writes)
		}
		disk.SetWriteFault(-1)

		st2, err := storage.Open(disk)
		if err != nil {
			t.Fatalf("cut=%d: recovery failed: %v", cut, err)
		}
		got := insTexts(st2.Export(), ins)
		if len(got) < hard || len(got) > done {
			t.Fatalf("cut=%d: recovered %d commits, want between %d (hard-acked) and %d (issued)", cut, len(got), hard, done)
		}
		for i, s := range got {
			if want := fmt.Sprintf("v%d", i); s != want {
				t.Fatalf("cut=%d: recovered state is not a prefix: ins[%d] = %q, want %q (all: %v)", cut, i, s, want, got)
			}
		}

		// The recovered volume is writable: commit once more and verify.
		m2, err := NewManager(st2, Options{GroupWindow: -1})
		if err != nil {
			t.Fatalf("cut=%d: reopen manager: %v", cut, err)
		}
		if err := commitOne(m2, rootElem(t, st2), ins, 100); err != nil {
			t.Fatalf("cut=%d: post-recovery commit: %v", cut, err)
		}
		if n := countIns(m2, ins); n != len(got)+1 {
			t.Fatalf("cut=%d: post-recovery count = %d, want %d", cut, n, len(got)+1)
		}
	}
}

// TestCrashBeforeFirstCommit: a manager writes nothing until the first
// commit, which persists the volume's initial checkpoint before it stages.
// NewManager writes no page, and a crash between it and the first commit
// reopens as the identity version at epoch 0. The first commit makes
// exactly the writes of a checkpoint persisted beforehand followed by the
// commit, on the same pages in the same order: the checkpoint chain, the
// meta page, the staged pages — all allocated after the log head — and the
// group chain at that head.
func TestCrashBeforeFirstCommit(t *testing.T) {
	writes := func(d *vdisk.Disk) []vdisk.PageID {
		var out []vdisk.PageID
		for _, ev := range d.Trace() {
			if ev.Op == "write" {
				out = append(out, ev.Page)
			}
		}
		return out
	}
	// firstCommit traces a fresh volume from NewManager through its first
	// commit; between runs before the commit.
	firstCommit := func(between func(st *storage.Store)) []vdisk.PageID {
		st, dict, root := fixture(t, 512)
		ins := dict.Intern("ins")
		st.Disk().SetTrace(true)
		m, err := NewManager(st, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if w := writes(st.Disk()); len(w) != 0 {
			t.Fatalf("NewManager wrote pages %v", w)
		}
		between(st)
		if err := commitOne(m, root, ins, 0); err != nil {
			t.Fatal(err)
		}
		if n := countIns(m, ins); n != 1 {
			t.Fatalf("after the first commit: %d inserts, want 1", n)
		}
		return writes(st.Disk())
	}

	firstCommit(func(st *storage.Store) {
		st2, err := storage.Open(st.Disk())
		if err != nil {
			t.Fatalf("reopen before the first commit: %v", err)
		}
		if vm := st2.CurrentVersion(); vm.Epoch() != 0 || vm.Relocated() != 0 || len(vm.Extras()) != 0 {
			t.Fatalf("reopened at epoch %d with %d relocated and %d extension pages, want the identity version at 0",
				vm.Epoch(), vm.Relocated(), len(vm.Extras()))
		}
	})

	var head vdisk.PageID
	want := firstCommit(func(st *storage.Store) {
		state, err := st.InitTxn()
		if err != nil {
			t.Fatal(err)
		}
		head = state.LogHead
	})
	got := firstCommit(func(*storage.Store) {})
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("first commit wrote %v, want the writes of a checkpoint persisted beforehand: %v", got, want)
	}
	meta, at := -1, -1
	for i, p := range got {
		switch {
		case p == 0 && meta < 0:
			meta = i
		case p == head && at < 0:
			at = i
		}
	}
	if meta < 0 || at <= meta+1 {
		t.Fatalf("writes %v: want the checkpoint, meta page 0, staged pages, then the log head %d", got, head)
	}
	for i, p := range got[:at] {
		if i < meta && p >= head || i > meta && p <= head {
			t.Fatalf("writes %v: page %d allocated on the wrong side of the log head %d", got, p, head)
		}
	}
}

// TestReclaimBoundsGrowth checks that superseded page versions are recycled:
// a long insert+delete churn must not grow the volume linearly.
func TestReclaimBoundsGrowth(t *testing.T) {
	st, dict, root := fixture(t, 512)
	m, err := NewManager(st, Options{GroupWindow: -1, CheckpointEvery: 4})
	if err != nil {
		t.Fatal(err)
	}
	ins := dict.Intern("ins")
	disk := st.Disk()

	prev := storage.InvalidNodeID
	var warm int
	for i := 0; i < 60; i++ {
		i := i
		err := m.Update(func(tx *Tx) error {
			id, err := tx.InsertSubtree(root, storage.InvalidNodeID, insFrag(ins, i))
			if err != nil {
				return err
			}
			if prev != storage.InvalidNodeID {
				if err := tx.DeleteSubtree(prev); err != nil {
					return err
				}
			}
			prev = id
			return nil
		})
		if err != nil {
			t.Fatalf("churn %d: %v", i, err)
		}
		if i == 9 {
			warm = disk.NumPages()
		}
	}
	if got := countIns(m, ins); got != 1 {
		t.Fatalf("ins after churn = %d, want 1", got)
	}
	grow := disk.NumPages() - warm
	if grow > 50 {
		t.Fatalf("volume grew by %d pages over 50 steady-state commits; reclamation is not recycling", grow)
	}
}
