package pathdb

import (
	"bytes"
	"context"
	"fmt"
	"slices"
	"testing"

	"pathdb/internal/buffer"
	"pathdb/internal/core"
	"pathdb/internal/rng"
	"pathdb/internal/stats"
	"pathdb/internal/storage"
	"pathdb/internal/xpath"
)

const rentPath = "/site//item[mailbox/mail//keyword]"

// warmAll makes the whole volume resident, so that Auto prices no I/O.
func warmAll(t *testing.T, db *DB) {
	t.Helper()
	db.getChooser()
	if _, err := db.QueryCtx(context.Background(), "//*", QueryOptions{Strategy: Scan}); err != nil {
		t.Fatal(err)
	}
}

// touch commits one insert and its delete: two epochs, the document as it was.
func touch(t *testing.T, db *DB, i int) {
	t.Helper()
	regions := mustOne(t, db, "/site/regions")
	var n Node
	if err := db.Update(func(tx *Tx) (err error) {
		n, err = tx.InsertXML(regions, fmt.Sprintf("<touch n='%d'/>", i))
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if err := db.Update(func(tx *Tx) error { return tx.Delete(n) }); err != nil {
		t.Fatal(err)
	}
}

// TestRentOrBuyAcrossCommits runs the same PredAuto read on two twin
// volumes, one left alone and one with a commit between every two reads.
// On both the reads rent (nested) and then buy: exactly one builds, every
// later one joins over resident levels, and what Query.Choice reports in
// between is what the next read does. The commits change none of it: the
// credit a read leaves is the credit the next one is told, and the levels
// one read built are advanced by every commit after it, never built again.
func TestRentOrBuyAcrossCommits(t *testing.T) {
	ctx := context.Background()
	quiet, churned := engineFixture(t), engineFixture(t)
	for _, db := range []*DB{quiet, churned} {
		touch(t, db, 0) // a transaction manager on every twin
		warmAll(t, db)
	}
	want := -1
	for _, db := range []*DB{quiet, churned} {
		q, err := db.Query(rentPath)
		if err != nil {
			t.Fatal(err)
		}
		builds, bought, credit := 0, -1, stats.Ticks(0)
		for i := 0; i < 40; i++ {
			told := q.Choice()
			if again := q.Choice(); again.Preds[0] != told.Preds[0] || q.Explain() == "" {
				t.Fatalf("read %d: Choice moved between two calls: %+v, %+v", i, told.Preds[0], again.Preds[0])
			}
			if bought < 0 && told.Preds[0].Credit != credit {
				t.Fatalf("read %d is told credit %v, the reads before it left %v", i, told.Preds[0].Credit, credit)
			}
			res, err := db.QueryCtx(ctx, rentPath, QueryOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if want < 0 {
				want = len(res.Nodes)
			}
			ran, p := res.Choice.PredEval, res.Choice.Preds[0]
			switch {
			case len(res.Nodes) != want:
				t.Fatalf("read %d: %d nodes, want %d", i, len(res.Nodes), want)
			case ran == PredNested && bought < 0:
				if p.Cached || p.Credit >= p.BuildCost || p.Credit <= told.Preds[0].Credit {
					t.Fatalf("read %d rented: %+v after %+v", i, p, told.Preds[0])
				}
				credit = p.Credit
			case ran == PredJoin && !p.Cached:
				builds++
				bought = i
				if p.Credit < p.BuildCost || told.PredEval != PredNested {
					t.Fatalf("read %d bought: %+v, told %v", i, p, told.PredEval)
				}
			case ran == PredJoin && told.PredEval == PredJoin && told.Preds[0].Cached && p.BuildCost == 0:
			default:
				t.Fatalf("read %d ran %v (%+v), told %v (%+v), bought at %d", i, ran, p, told.PredEval, told.Preds[0], bought)
			}
			if db == churned {
				touch(t, db, i+1)
			}
		}
		if builds != 1 || bought < 1 || bought > 19 {
			t.Fatalf("%d builds, the first at read %d: want some rent, then one build and 20 joins", builds, bought)
		}
	}
	m := churned.DerivedMetrics()
	if m.LevelBuilds != 3 || m.LevelAdvances < 3*20 || m.PagesAdvanced < m.LevelAdvances/3 || m.GenerationsDropped != 0 {
		t.Fatalf("churned twin's derived cache: %+v; want the three levels built once and advanced by every commit", m)
	}
}

// TestSupersededSnapshotStaysOut: a view pinned to the version before a
// commit evaluates a join correctly — over its own version — without
// reading the current generation, admitting to it, or being credited in it.
func TestSupersededSnapshotStaysOut(t *testing.T) {
	db := engineFixture(t)
	const path = `/site//item[.//keyword="pinned"]`
	regions := mustOne(t, db, "/site/regions")
	insert := func() {
		if err := db.Update(func(tx *Tx) error {
			_, err := tx.InsertXML(regions, `<item><name><keyword>pinned</keyword></name></item>`)
			return err
		}); err != nil {
			t.Fatal(err)
		}
	}
	insert()
	snap := db.manager().Snapshot()
	defer snap.Release()
	insert()

	steps := xpath.MustParse(db.dict, path).Simplify().Steps
	count := func(st *storage.Store, pe core.PredEval) int {
		return core.BuildPlan(st, steps, st.Roots(), core.StrategySimple, core.PlanOptions{PredEval: pe}).Count()
	}
	if n := count(db.store, core.PredJoin); n != 2 {
		t.Fatalf("current version: %d items, want 2", n)
	}
	pred := steps[len(steps)-1].Predicates[0]
	if need := core.JoinNeeds(db.store, pred.Paths[0], pred); need.Missing[0] != "" {
		t.Fatalf("the join did not leave its level resident: %+v", need)
	}
	dc, epoch, _ := db.store.Derived()
	hits, _ := dc.Stats()

	old := snap.View(stats.NewLedger())
	if oc, oepoch, ok := old.Derived(); !ok || oc != dc || oepoch >= epoch {
		t.Fatalf("pinned view: cache %v epoch %d (current %d) ok=%v", oc == dc, oepoch, epoch, ok)
	}
	if join, nested := count(old, core.PredJoin), count(old, core.PredNested); join != 1 || nested != 1 {
		t.Fatalf("pinned version: join %d, nested %d items, want 1", join, nested)
	}
	if h, _ := dc.Stats(); h != hits {
		t.Fatalf("the pinned view hit the current generation %d times", h-hits)
	}
	if need := core.JoinNeeds(old, pred.Paths[0], pred); need.Missing[0] == "" || dc.Credit(old.VersionEpoch(), need.Missing, 1e9) != 0 {
		t.Fatalf("the pinned view sees its level resident, or was credited: %+v", need)
	}
	if n := count(db.store, core.PredJoin); n != 2 {
		t.Fatalf("current version after the pinned view's build: %d items, want 2 (its level was admitted)", n)
	}
}

// TestFailedBuildAdmitsNothing sweeps seeded read faults over a join whose
// levels are not resident, on a volume larger than its pool: a build that
// unwinds on a page fault admits nothing partial and leaves the credit of
// what is still missing as it was, so the next query — join or nested —
// returns the oracle's nodes.
func TestFailedBuildAdmitsNothing(t *testing.T) {
	db := exitFixture(t)
	const path = `/site//item[mailbox/mail//keyword="soul"]`
	ctx := context.Background()
	want := joinFingerprint(t, db, path, Simple, PredNested)
	steps := xpath.MustParse(db.dict, path).Simplify().Steps
	pred := steps[len(steps)-1].Predicates[0]
	failed, midway := 0, 0
	for seed := uint64(1); seed <= 40; seed++ {
		db.ResetStats()
		dc, epoch, _ := db.store.Derived()
		keys := core.JoinNeeds(db.store, pred.Paths[0], pred).Missing
		dc.Credit(epoch, keys, 1000) // rent paid so far
		db.SetFaults(FaultConfig{Seed: seed, ReadError: 0.2})
		_, err := db.QueryCtx(ctx, path, QueryOptions{Strategy: Simple, PredEval: PredJoin})
		db.SetFaults(FaultConfig{})
		if err != nil {
			failed++
			for _, k := range core.JoinNeeds(db.store, pred.Paths[0], pred).Missing {
				if k == "" {
					midway++ // a level was admitted before the fault struck
				} else if got := dc.Credit(epoch, []string{k}, 0); got != 1000 {
					t.Fatalf("seed %d: credit of %s is %v after a failed build", seed, k, got)
				}
			}
		}
		for _, pe := range []PredEval{PredJoin, PredNested} {
			if got := joinFingerprint(t, db, path, Simple, pe); got != want {
				t.Fatalf("seed %d (failed: %v): %v after the faulted run diverges from the oracle", seed, err != nil, pe)
			}
		}
	}
	if failed < 5 || failed == 40 || midway == 0 {
		t.Fatalf("%d of 40 faulted runs failed, with %d levels admitted before a failure: the sweep tests little", failed, midway)
	}
}

// TestFailedAdvanceAdmitsNothing sweeps seeded read faults over the advance
// of a resident generation across commits, on a volume larger than its pool
// (one attempt per read: each fault is terminal). An advance either
// publishes every level whole — each equal to a fresh build — or unwinds,
// drops the generation and leaves nothing resident at the new epoch; either
// way the next join and nested return the oracle's nodes.
func TestFailedAdvanceAdmitsNothing(t *testing.T) {
	db := exitFixture(t)
	paths := []string{"/site//item[mailbox/mail//keyword]", `/site//item[.//keyword="soul"]`}
	want := map[string]string{}
	for _, path := range paths {
		want[path] = joinFingerprint(t, db, path, Simple, PredNested)
	}
	agree := func(seed uint64, pes ...PredEval) {
		for _, path := range paths {
			for _, pe := range pes {
				if joinFingerprint(t, db, path, Simple, pe) != want[path] {
					t.Fatalf("seed %d: %s under %v diverges from the oracle", seed, path, pe)
				}
			}
		}
	}
	levels := map[string]bool{"mailbox": false, "mail": false, "keyword": true}
	r := rng.New(3)
	failed, advanced := 0, 0
	for seed := uint64(1); seed <= 40; seed++ {
		agree(seed, PredJoin) // every level resident at the current epoch
		// Fragments in and out again: pages written, the document as it was.
		for i := 0; i < 3; i++ {
			var n Node
			update(t, db, func(tx *Tx, nodes func(string) []Node) (err error) {
				items := nodes("/site/regions//item")
				n, err = tx.InsertXML(items[r.Intn(len(items))], `<mailbox><mail><keyword>soul</keyword></mail></mailbox>`)
				return err
			})
			if err := db.Update(func(tx *Tx) error { return tx.Delete(n) }); err != nil {
				t.Fatal(err)
			}
		}
		dropped := db.DerivedMetrics().GenerationsDropped
		db.store.Buffer().SetRetryPolicy(buffer.RetryPolicy{Attempts: 1})
		db.SetFaults(FaultConfig{Seed: seed, ReadError: 0.2})
		faulted := func() (faulted bool) {
			defer func() { faulted = recover() != nil }()
			db.store.SnapshotView(stats.NewLedger()).AdvanceDerived(func() bool { return false })
			return false
		}()
		db.SetFaults(FaultConfig{})
		db.store.Buffer().SetRetryPolicy(buffer.DefaultRetryPolicy())
		dc, epoch, _ := db.store.Derived()
		for test, vals := range levels {
			key, fresh := freshLevel(db, test, vals)
			v, resident := dc.Get(epoch, key)
			switch {
			case faulted && resident:
				t.Fatalf("seed %d: level %s resident after a faulted advance", seed, test)
			case !faulted && !resident:
				t.Fatalf("seed %d: level %s not resident after the advance", seed, test)
			case resident:
				lv := v.(*storage.Level)
				if !slices.Equal(lv.IDs, fresh.IDs) || !bytes.Equal(lv.Vals, fresh.Vals) || !slices.Equal(lv.Ends, fresh.Ends) {
					t.Fatalf("seed %d: level %s published half-advanced", seed, test)
				}
			}
		}
		if faulted {
			failed++
			if db.DerivedMetrics().GenerationsDropped != dropped+1 {
				t.Fatalf("seed %d: a faulted advance did not drop the generation", seed)
			}
		} else {
			advanced++
		}
		agree(seed, PredJoin, PredNested)
	}
	if failed < 5 || advanced < 5 {
		t.Fatalf("%d of 40 advances faulted: the sweep tests little", failed)
	}
}
