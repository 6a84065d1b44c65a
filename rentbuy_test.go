package pathdb

import (
	"context"
	"fmt"
	"testing"

	"pathdb/internal/core"
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

// TestRentOrBuyAcrossCommits runs the same PredAuto read on three twin
// volumes. Left alone, the reads rent (nested) and then buy: exactly one
// builds, the rest join over resident sets, and what Query.Choice reports
// in between is what the next read does. With a commit between every two
// reads the credit dies with each generation: nothing is ever built, and
// every read costs what the twin with the evaluator forced to nested pays,
// to the tick.
func TestRentOrBuyAcrossCommits(t *testing.T) {
	ctx := context.Background()
	quiet, churned, forced := engineFixture(t), engineFixture(t), engineFixture(t)
	for _, db := range []*DB{quiet, churned, forced} {
		touch(t, db, 0) // a transaction manager on every twin
		warmAll(t, db)
	}

	q, err := quiet.Query(rentPath)
	if err != nil {
		t.Fatal(err)
	}
	builds, bought := 0, -1
	for i := 0; i < 40; i++ {
		told := q.Choice()
		if again := q.Choice(); again.Preds[0] != told.Preds[0] || q.Explain() == "" {
			t.Fatalf("read %d: Choice moved between two calls: %+v, %+v", i, told.Preds[0], again.Preds[0])
		}
		res, err := quiet.QueryCtx(ctx, rentPath, QueryOptions{})
		if err != nil {
			t.Fatal(err)
		}
		ran := res.Choice.PredEval
		p := res.Choice.Preds[0]
		switch {
		case ran == PredNested && bought < 0:
			if p.Cached || p.Credit >= p.BuildCost || p.Credit <= told.Preds[0].Credit {
				t.Fatalf("read %d rented: %+v after %+v", i, p, told.Preds[0])
			}
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
	}
	if builds != 1 || bought < 1 {
		t.Fatalf("%d builds, the first at read %d: want some rent, then one build", builds, bought)
	}

	for i := 1; i <= bought+5; i++ {
		a, err := churned.QueryCtx(ctx, rentPath, QueryOptions{})
		if err != nil {
			t.Fatal(err)
		}
		b, err := forced.QueryCtx(ctx, rentPath, QueryOptions{PredEval: PredNested})
		if err != nil {
			t.Fatal(err)
		}
		if a.Choice.PredEval != PredNested || a.CostV != b.CostV || len(a.Nodes) != len(b.Nodes) {
			t.Fatalf("read %d with a commit before it: %v for %v, forced nested costs %v", i, a.Choice.PredEval, a.CostV, b.CostV)
		}
		touch(t, churned, i)
		touch(t, forced, i)
	}
	dc, _, _ := churned.store.Derived()
	if hits, misses := dc.Stats(); hits+misses != 0 {
		t.Fatalf("a volume committed to between every two reads looked up the derived cache (%d hits, %d misses)", hits, misses)
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
