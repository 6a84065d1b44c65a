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

// autoForms are branch_sorted's five predicate forms (benchmark/
// workloads.go), a literal filled in and its union split in two.
var autoForms = []string{
	"/site//item[mailbox/mail//keyword]",
	"/site//parlist[(listitem/parlist){1,2}]",
	`/site//item[.//keyword="soul"]`,
	`/site//closed_auction[annotation//keyword="soul"]`,
	"/site//open_auction[annotation//keyword]",
}

// TestAutoJoinsAcrossCommits: the first PredAuto read of each of
// branch_sorted's predicate forms runs the structural join and builds the
// levels it lacks, which leaves none missing; then 40 commits, each followed
// by a read, advance those levels and build none. Every read returns the
// nested oracle's count.
func TestAutoJoinsAcrossCommits(t *testing.T) {
	ctx := context.Background()
	db := engineFixture(t)
	// missing counts the levels a join plan of the path lacks: its
	// branches' and, as it reads the path from levels, its steps'.
	missing := func(path string) uint64 {
		steps := xpath.MustParse(db.dict, path).Simplify().Steps
		if !core.ReadsLevels(db.store, steps, db.store.Roots()) {
			t.Fatalf("%s: a join plan navigates", path)
		}
		dcache, epoch, _ := db.store.Derived()
		keys := map[string]bool{}
		for _, s := range steps {
			if key := core.LevelKey(db.dict, s); !dcache.Contains(epoch, key) {
				keys[key] = true
			}
			for _, p := range s.Predicates {
				for _, branch := range p.Paths {
					for _, key := range core.JoinNeeds(db.store, branch, p).Missing {
						if key != "" {
							keys[key] = true
						}
					}
				}
			}
		}
		return uint64(len(keys))
	}
	want := map[string]int{}
	for _, path := range autoForms {
		res, err := db.QueryCtx(ctx, path, QueryOptions{PredEval: PredNested})
		if err != nil {
			t.Fatal(err)
		}
		want[path] = len(res.Nodes)
	}
	// read runs one Auto read and returns how many levels it built.
	read := func(path string) uint64 {
		t.Helper()
		before := db.DerivedMetrics()
		res, err := db.QueryCtx(ctx, path, QueryOptions{})
		if err != nil {
			t.Fatal(err)
		}
		after := db.DerivedMetrics()
		switch {
		case len(res.Nodes) != want[path]:
			t.Fatalf("%s: %d nodes, want %d", path, len(res.Nodes), want[path])
		case res.Choice == nil || res.Choice.PredEval != PredJoin:
			t.Fatalf("%s: choice %+v, want the join", path, res.Choice)
		case after.Hits+after.Misses == before.Hits+before.Misses:
			t.Fatalf("%s: no derived-cache lookup, the read did not join", path)
		}
		return after.LevelBuilds - before.LevelBuilds
	}
	var built uint64
	for _, path := range autoForms {
		lacks := missing(path)
		if b := read(path); b != lacks {
			t.Fatalf("%s: the first read built %d levels, it lacked %d", path, b, lacks)
		}
		if n := missing(path); n != 0 {
			t.Fatalf("%s: %d levels still missing after its first read", path, n)
		}
		built += lacks
	}
	if built == 0 {
		t.Fatal("the first reads built no level: the fixture tests nothing")
	}
	regions := mustOne(t, db, "/site/regions")
	var n Node
	for i := 0; i < 40; i++ {
		if err := db.Update(func(tx *Tx) (err error) {
			if i%2 == 0 {
				n, err = tx.InsertXML(regions, fmt.Sprintf("<touch n='%d'/>", i))
				return err
			}
			return tx.Delete(n)
		}); err != nil {
			t.Fatal(err)
		}
		if b := read(autoForms[i%len(autoForms)]); b != 0 {
			t.Fatalf("commit %d: a read built %d levels", i+1, b)
		}
	}
	if m := db.DerivedMetrics(); m.LevelAdvances == 0 || m.GenerationsDropped != 0 {
		t.Fatalf("derived cache after 40 commits: %+v; want the levels advanced, no generation dropped", m)
	}
}

// TestForcedStrategyBuildsNoChooser: a request that forces its strategy
// leaves nothing to the cost model, predicates or not, so the volume never
// pays the chooser's statistics walk.
func TestForcedStrategyBuildsNoChooser(t *testing.T) {
	db := engineFixture(t)
	path := autoForms[0]
	for _, s := range []Strategy{Simple, Schedule, Scan} {
		if _, err := db.QueryCtx(context.Background(), path, QueryOptions{Strategy: s}); err != nil {
			t.Fatal(err)
		}
		q, err := db.Query(path)
		if err != nil {
			t.Fatal(err)
		}
		if q.WithStrategy(s).Count() == 0 {
			t.Fatalf("%s under %v: no nodes", path, s)
		}
	}
	if db.chooser != nil {
		t.Fatal("a forced strategy built the chooser")
	}
}

// TestSupersededSnapshotStaysOut: a view pinned to the version before a
// commit evaluates a join correctly — over its own version — without
// reading the current generation or admitting to it, and PredAuto leaves it
// nested.
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
	if need := core.JoinNeeds(old, pred.Paths[0], pred); need.Missing[0] == "" || core.AutoPredEval(old, steps, old.Roots()) != core.PredNested {
		t.Fatalf("the pinned view sees its level resident, or PredAuto joins on it: %+v", need)
	}
	if n := count(db.store, core.PredJoin); n != 2 {
		t.Fatalf("current version after the pinned view's build: %d items, want 2 (its level was admitted)", n)
	}
}

// TestFailedBuildAdmitsNothing sweeps seeded read faults over a join whose
// levels are not resident, on a volume larger than its pool: a build that
// unwinds on a page fault admits nothing partial, so the next query — join
// or nested — returns the oracle's nodes.
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
		db.SetFaults(FaultConfig{Seed: seed, ReadError: 0.2})
		_, err := db.QueryCtx(ctx, path, QueryOptions{Strategy: Simple, PredEval: PredJoin})
		db.SetFaults(FaultConfig{})
		if err != nil {
			failed++
			for _, k := range core.JoinNeeds(db.store, pred.Paths[0], pred).Missing {
				if k == "" {
					midway++ // a level was admitted before the fault struck
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
