package pathdb

import (
	"context"
	"sort"
	"strings"
	"sync"
	"testing"

	"pathdb/internal/ordpath"
	"pathdb/internal/stats"
)

// engineFixture loads a small generated document for facade-level engine
// tests.
func engineFixture(t *testing.T) *DB {
	t.Helper()
	db, err := GenerateXMark(XMarkConfig{ScaleFactor: 0.1, Seed: 7, EntityScale: 0.05}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// loadAll brings every cluster of db's volume into its pool: building a
// chooser reads none, so a test that wants a resident volume loads it.
func loadAll(db *DB) {
	for i := 0; i < db.store.NumDataPages(); i++ {
		db.store.LoadCluster(db.store.DataPage(i))
	}
}

// TestNewEngineReadsNoPage: the chooser an engine starts with sums the
// cluster synopses the importer registered, so starting an engine over a
// fresh import reads no page and leaves the pool empty.
func TestNewEngineReadsNoPage(t *testing.T) {
	db := engineFixture(t)
	db.store.Disk().SetTrace(true)
	eng := db.NewEngine(EngineConfig{})
	defer eng.Close()
	if tr := db.store.Disk().Trace(); len(tr) != 0 {
		t.Fatalf("NewEngine made %d device operations, first %+v", len(tr), tr[0])
	}
	if n := db.store.Buffer().Len(); n != 0 {
		t.Fatalf("NewEngine left %d pages in the pool", n)
	}
}

func TestParseStrategyRoundTrip(t *testing.T) {
	for _, s := range []Strategy{Auto, Simple, Schedule, Scan} {
		got, err := ParseStrategy(s.String())
		if err != nil || got != s {
			t.Errorf("ParseStrategy(%q) = %v, %v; want %v", s.String(), got, err, s)
		}
	}
	for name, want := range map[string]Strategy{
		"XSchedule": Schedule, "schedule": Schedule, " scan ": Scan, "AUTO": Auto,
	} {
		if got, err := ParseStrategy(name); err != nil || got != want {
			t.Errorf("ParseStrategy(%q) = %v, %v; want %v", name, got, err, want)
		}
	}
	if _, err := ParseStrategy("fastest"); err == nil {
		t.Error("ParseStrategy accepted an unknown name")
	}
}

// TestEngineMatchesQuery: concurrent sessions through the facade engine
// return the same counts as the blocking DB.Query API, including unions.
func TestEngineMatchesQuery(t *testing.T) {
	db := engineFixture(t)
	paths := []string{
		"/site/regions//item",
		"/site//description",
		"/site/people/person/name | /site/regions//item/name",
	}
	want := map[string]int{}
	for _, p := range paths {
		q, err := db.Query(p)
		if err != nil {
			t.Fatal(err)
		}
		want[p] = q.Count()
	}

	eng := db.NewEngine(EngineConfig{MaxInFlight: 4})
	defer eng.Close()

	const workers = 4
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := eng.NewSession()
			for _, p := range paths {
				res, err := s.Do(context.Background(), p, QueryOptions{Sorted: true})
				if err != nil {
					errs <- err
					return
				}
				if res.Count() != want[p] {
					t.Errorf("engine count(%s) = %d, want %d", p, res.Count(), want[p])
				}
				key := func(n Node) ordpath.Key {
					return db.store.Swizzle(n.id).OrdKey()
				}
				for i := 1; i < len(res.Nodes); i++ {
					if ordpath.Compare(key(res.Nodes[i-1]), key(res.Nodes[i])) > 0 {
						t.Errorf("results of %s not in document order", p)
						break
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	m := eng.Metrics()
	if m.Completed == 0 || m.Cancelled != 0 {
		t.Fatalf("metrics: %+v", m)
	}
}

func TestEngineCancelledContext(t *testing.T) {
	db := engineFixture(t)
	eng := db.NewEngine(EngineConfig{})
	defer eng.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := eng.NewSession().Do(ctx, "/site//item", QueryOptions{}); err == nil {
		t.Fatal("cancelled context accepted")
	}
}

func TestEngineRelativePathRejected(t *testing.T) {
	db := engineFixture(t)
	eng := db.NewEngine(EngineConfig{})
	defer eng.Close()
	if _, err := eng.NewSession().Do(context.Background(), "regions//item", QueryOptions{}); err == nil {
		t.Fatal("relative path accepted")
	}
}

// TestEngineAutoFollowsResidency: on a resident volume Auto runs the plan
// with the least bookkeeping, Simple, and it returns what every forced
// strategy returns — unsorted, sorted and under a limit; once the pool is
// flushed the same session is back to the paper's cold-disk picks.
func TestEngineAutoFollowsResidency(t *testing.T) {
	db := engineFixture(t)
	eng := db.NewEngine(EngineConfig{})
	defer eng.Close()
	loadAll(db)
	s := eng.NewSession()
	ctx := context.Background()
	ids := func(res ExecResult) []string {
		out := make([]string, len(res.Nodes))
		for i, n := range res.Nodes {
			out[i] = n.id.String()
		}
		return out
	}
	const limit = 7
	for _, path := range []string{"/site//description", "/site/regions//item", "/site//item[mailbox/mail//keyword]"} {
		full := map[string]bool{}
		for _, opts := range []QueryOptions{{}, {Sorted: true}, {Limit: limit}, {Sorted: true, Limit: limit}} {
			auto, err := s.Do(ctx, path, opts)
			if err != nil {
				t.Fatal(err)
			}
			if auto.Strategy != Simple || auto.Choice == nil || auto.Choice.Strategy != Simple || auto.Choice.Residency != 1 {
				t.Fatalf("%s %+v: warm Auto ran %v, choice %+v", path, opts, auto.Strategy, auto.Choice)
			}
			got := ids(auto)
			if opts.Limit == 0 && !opts.Sorted {
				for _, id := range got {
					full[id] = true
				}
			}
			for _, forced := range []Strategy{Simple, Schedule, Scan} {
				o := opts
				o.Strategy = forced
				res, err := s.Do(ctx, path, o)
				if err != nil {
					t.Fatal(err)
				}
				want := ids(res)
				if len(got) != len(want) {
					t.Fatalf("%s %+v: Auto returned %d nodes, %v %d", path, opts, len(got), forced, len(want))
				}
				if !opts.Sorted {
					// Delivery order is the plan's own; under a limit so is
					// the selection. Compare as sets against the full result.
					if opts.Limit > 0 {
						for _, id := range append(got, want...) {
							if !full[id] {
								t.Fatalf("%s %+v: node %s is not in the full result", path, opts, id)
							}
						}
						continue
					}
					sort.Strings(got)
					sort.Strings(want)
				}
				if strings.Join(got, " ") != strings.Join(want, " ") {
					t.Fatalf("%s %+v: Auto and %v disagree", path, opts, forced)
				}
			}
		}
	}

	// A union resolves branch by branch through the same plan.Chooser.Resolve
	// on every surface: the engine (Session.Do), the direct cursor (QueryCtx)
	// and Query.Nodes pick the same strategy for each branch — observed as
	// the first branch's, with the union written both ways round — on the
	// resident pool and on a flushed one, and Nodes costs what QueryCtx costs:
	// its branches' own costs and the clock of the group that pooled them.
	nodesCost := func(path string) (int, stats.Ticks) {
		q, err := db.Query(path)
		if err != nil {
			t.Fatal(err)
		}
		before := db.CostReport().Total
		n := len(q.Nodes())
		return n, db.CostReport().Total - before
	}
	for _, union := range []string{
		"/site/people/person/name | /site/regions//item/name",
		"/site/regions//item/name | /site/people/person/name",
	} {
		for _, flushed := range []bool{false, true} {
			prepare := func() {
				db.ResetStats()
				if !flushed { // one scan makes the whole volume resident again
					if _, err := s.Do(ctx, "//*", QueryOptions{Strategy: Scan}); err != nil {
						t.Fatal(err)
					}
				}
			}
			prepare()
			do, err := s.Do(ctx, union, QueryOptions{})
			if err != nil {
				t.Fatal(err)
			}
			prepare()
			direct, err := db.QueryCtx(ctx, union, QueryOptions{})
			if err != nil {
				t.Fatal(err)
			}
			prepare()
			n, cost := nodesCost(union)
			if direct.Strategy != do.Strategy || direct.Choice == nil || direct.Choice.Strategy != do.Choice.Strategy ||
				len(direct.Nodes) != len(do.Nodes) {
				t.Fatalf("%s flushed=%v: QueryCtx ran %v (%d nodes), Session.Do %v (%d nodes)",
					union, flushed, direct.Strategy, len(direct.Nodes), do.Strategy, len(do.Nodes))
			}
			if n != len(direct.Nodes) || cost != direct.CostV+direct.SharedV {
				t.Fatalf("%s flushed=%v: Query.Nodes returned %d nodes for %v, QueryCtx %d for %v",
					union, flushed, n, cost, len(direct.Nodes), direct.CostV)
			}
			if !flushed && direct.Strategy != Simple {
				t.Fatalf("%s on a resident pool: QueryCtx ran %v, want simple", union, direct.Strategy)
			}
			if flushed && direct.Strategy == Simple {
				t.Fatalf("%s on a flushed pool: QueryCtx ran simple", union)
			}
		}
	}

	for path, want := range map[string]Strategy{"/site//description": Scan, "/site/people/person/name": Schedule} {
		db.ResetStats()
		res, err := s.Do(ctx, path, QueryOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if res.Strategy != want || res.Choice.Residency != 0 {
			t.Fatalf("%s on a flushed pool: ran %v, want %v (choice %+v)", path, res.Strategy, want, res.Choice)
		}
	}
}
