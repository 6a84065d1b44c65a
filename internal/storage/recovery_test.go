package storage_test

// Durability tests of the one write path, end to end: commits go through
// the txn manager (which is why this is an external test package —
// internal/txn imports storage), the device drops a suffix of the writes,
// and storage.Open alone must bring back a transaction-consistent volume.
// internal/txn's TestCrashRecoveryMatrix sweeps the cut over a sequence of
// inserts; these cover what it does not: multi-page deletes, opening twice,
// and repeated crash/recover cycles against a shadow tree.

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"

	"pathdb/internal/rng"
	"pathdb/internal/stats"
	"pathdb/internal/storage"
	"pathdb/internal/txn"
	"pathdb/internal/vdisk"
	"pathdb/internal/xmltree"
	"pathdb/internal/xpath"
)

// sectionsDoc builds <root> with nSec <sec> children of nLeaf text leaves
// each; at 512-byte pages a section of 20 leaves spans several clusters.
func sectionsDoc(dict *xmltree.Dictionary, nSec, nLeaf int) *xmltree.Node {
	b := xmltree.NewBuilder(dict)
	b.Begin("root")
	for s := 0; s < nSec; s++ {
		b.Begin("sec")
		for i := 0; i < nLeaf; i++ {
			b.Leaf("x", strings.Repeat("d", 24))
		}
		b.End()
	}
	b.End()
	return b.Doc()
}

func importVolume(t testing.TB, dict *xmltree.Dictionary, doc *xmltree.Node) *storage.Store {
	t.Helper()
	disk := vdisk.New(vdisk.DefaultCostModel(), stats.NewLedger(), 512)
	st, err := storage.Import(disk, dict, doc, storage.ImportOptions{PageSize: 512, Layout: storage.LayoutContiguous, Seed: 7})
	if err != nil {
		t.Fatalf("Import: %v", err)
	}
	return st
}

// manager adopts st with group batching off, so one Update is one flush.
func manager(t testing.TB, st *storage.Store) *txn.Manager {
	t.Helper()
	m, err := txn.NewManager(st, txn.Options{GroupWindow: -1})
	if err != nil {
		t.Fatalf("NewManager: %v", err)
	}
	return m
}

func rootElem(st *storage.Store) storage.NodeID {
	c, _ := st.Step(st.Swizzle(st.Root()), xpath.Child, xpath.Wildcard()).Next()
	return c.ID()
}

func insFrag(tag xmltree.TagID, i int) *xmltree.Node {
	e := xmltree.NewElement(tag)
	e.AppendChild(xmltree.NewText(fmt.Sprintf("v%d", i)))
	return e
}

func insertOne(m *txn.Manager, parent storage.NodeID, tag xmltree.TagID, i int) error {
	return m.Update(func(tx *txn.Tx) error {
		_, err := tx.InsertSubtree(parent, storage.InvalidNodeID, insFrag(tag, i))
		return err
	})
}

// crashed arms the write fault at cut, runs op (whose outcome the crash
// leaves open), disarms, and reopens the volume from the device alone.
func crashed(t testing.TB, st *storage.Store, cut int, op func()) *storage.Store {
	t.Helper()
	st.Disk().SetWriteFault(cut)
	op()
	st.Disk().SetWriteFault(-1)
	st2, err := storage.Open(st.Disk())
	if err != nil {
		t.Fatalf("cut=%d: recovery failed: %v", cut, err)
	}
	return st2
}

func TestUpdatesPersistAcrossOpen(t *testing.T) {
	dict := xmltree.NewDictionary()
	st := importVolume(t, dict, sectionsDoc(dict, 1, 1))
	frag := xmltree.NewElement(dict.Intern("big"))
	for i := 0; i < 40; i++ {
		frag.AppendChild(xmltree.NewText(strings.Repeat("q", 30)))
	}
	err := manager(t, st).Update(func(tx *txn.Tx) error {
		_, err := tx.InsertSubtree(rootElem(st), storage.InvalidNodeID, frag)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	want := st.Export()

	st2, err := storage.Open(st.Disk())
	if err != nil {
		t.Fatal(err)
	}
	if st2.NumDataPages() != st.NumDataPages() {
		t.Fatalf("extension pages lost: %d vs %d", st2.NumDataPages(), st.NumDataPages())
	}
	if !xmltree.Equal(want, st2.Export()) {
		t.Fatal("updates lost after reopen")
	}
}

func TestWALRoundTripWithoutCrash(t *testing.T) {
	dict := xmltree.NewDictionary()
	st := importVolume(t, dict, sectionsDoc(dict, 1, 10))
	m, root, ins := manager(t, st), rootElem(st), dict.Intern("ins")
	for i := 0; i < 50; i++ {
		if err := insertOne(m, root, ins, i); err != nil {
			t.Fatal(err)
		}
	}
	st2, err := storage.Open(st.Disk())
	if err != nil {
		t.Fatal(err)
	}
	if got := st2.Export().CountTag(ins); got != 50 {
		t.Fatalf("ins after reopen = %d", got)
	}
}

// TestWALCrashAtomicity crashes the disk after every possible number of
// writes during one multi-page commit. After recovery the document must be
// either entirely pre-commit or entirely post-commit — never a torn mix with
// dangling proxies — and the volume must accept the next transaction.
func TestWALCrashAtomicity(t *testing.T) {
	for cut := 0; cut < 24; cut++ {
		dict := xmltree.NewDictionary()
		st := importVolume(t, dict, sectionsDoc(dict, 1, 10))
		m, sec, x, ins := manager(t, st), dict.Intern("sec"), dict.Intern("x"), dict.Intern("ins")
		st2 := crashed(t, st, cut, func() {
			_ = m.Update(func(tx *txn.Tx) error {
				frag := sectionsDoc(dict, 1, 20).Children[0].Children[0]
				_, err := tx.InsertSubtree(rootElem(st), storage.InvalidNodeID, frag)
				return err
			})
		})

		after := st2.Export() // must not panic on dangling structure
		secs, xs := after.CountTag(sec), after.CountTag(x)
		if !(secs == 1 && xs == 10) && !(secs == 2 && xs == 30) {
			t.Fatalf("cut=%d: %d sections with %d leaves, want 1/10 or 2/30", cut, secs, xs)
		}
		if err := insertOne(manager(t, st2), rootElem(st2), ins, 0); err != nil {
			t.Fatalf("cut=%d: post-recovery insert failed: %v", cut, err)
		}
		if st2.Export().CountTag(ins) != 1 {
			t.Fatalf("cut=%d: post-recovery insert lost", cut)
		}
	}
}

func TestWALCrashDuringDelete(t *testing.T) {
	for cut := 0; cut < 32; cut++ {
		dict := xmltree.NewDictionary()
		st := importVolume(t, dict, sectionsDoc(dict, 1, 10))
		m := manager(t, st)
		// The victim: a committed section whose deletion spans several pages.
		var victim storage.NodeID
		err := m.Update(func(tx *txn.Tx) (err error) {
			sec := sectionsDoc(dict, 1, 40).Children[0].Children[0]
			victim, err = tx.InsertSubtree(rootElem(st), storage.InvalidNodeID, sec)
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		beforeSize := st.Export().Size()
		victimSize := st.ExportSubtree(victim).Size()

		st2 := crashed(t, st, cut, func() {
			_ = m.Update(func(tx *txn.Tx) error { return tx.DeleteSubtree(victim) })
		})
		if got := st2.Export().Size(); got != beforeSize && got != beforeSize-victimSize {
			t.Fatalf("cut=%d: size %d, want %d or %d", cut, got, beforeSize, beforeSize-victimSize)
		}
	}
}

// TestWALRecoveryIsIdempotent opens a crashed volume twice: recovery itself
// writes (a fresh checkpoint), and a second recovery over the first one's
// output must land on the same document.
func TestWALRecoveryIsIdempotent(t *testing.T) {
	dict := xmltree.NewDictionary()
	st := importVolume(t, dict, sectionsDoc(dict, 1, 10))
	ins := dict.Intern("ins")
	for cut := 1; cut < 12; cut++ {
		m, root := manager(t, st), rootElem(st)
		for i := 0; i < 3; i++ {
			if err := insertOne(m, root, ins, i); err != nil {
				t.Fatal(err)
			}
		}
		st1 := crashed(t, st, cut, func() { _ = insertOne(m, root, ins, 100+cut) })
		st2, err := storage.Open(st.Disk())
		if err != nil {
			t.Fatalf("cut=%d: second recovery: %v", cut, err)
		}
		if !xmltree.Equal(st1.Export(), st2.Export()) {
			t.Fatalf("cut=%d: recovery not idempotent", cut)
		}
		st = st2
	}
}

// TestWALRandomCrashSequence interleaves commits with random crash points:
// after each recovery the volume must equal the shadow tree of either all
// committed operations or all but the interrupted one, and keep accepting
// transactions.
func TestWALRandomCrashSequence(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		dict := xmltree.NewDictionary()
		shadow := sectionsDoc(dict, 2, 6)
		st := importVolume(t, dict, sectionsDoc(dict, 2, 6))
		ins := dict.Intern("w")
		m := manager(t, st)

		for op := 0; op < 8; op++ {
			root := rootElem(st)
			if r.Bool(0.5) {
				cut := r.Intn(12)
				st = crashed(t, st, cut, func() { _ = insertOne(m, root, ins, op) })
				m = manager(t, st)
			} else if err := insertOne(m, root, ins, op); err != nil {
				t.Logf("seed %d op %d: %v", seed, op, err)
				return false
			}
			// The shadow advances only if the operation survived.
			got, want := st.Export().CountTag(ins), shadow.CountTag(ins)
			switch got {
			case want + 1:
				shadow.Children[0].AppendChild(insFrag(ins, op))
			case want: // lost to the crash
			default:
				t.Logf("seed %d op %d: count %d, want %d or %d", seed, op, got, want, want+1)
				return false
			}
			if !xmltree.Equal(shadow, st.Export()) {
				t.Logf("seed %d op %d: tree diverged", seed, op)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
