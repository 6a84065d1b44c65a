package engine

import (
	"context"
	"sync"
	"testing"

	"pathdb/internal/bench"
	"pathdb/internal/core"
	"pathdb/internal/ordpath"
	"pathdb/internal/plan"
	"pathdb/internal/stats"
	"pathdb/internal/storage"
	"pathdb/internal/xmltree"
	"pathdb/internal/xpath"
)

// The XMark paths of the benchmark mix (Q6', the three Q7 branches, Q15).
const (
	srcQ6  = "/site/regions//item"
	srcQ7a = "/site//description"
	srcQ7b = "/site//annotation"
	srcQ7c = "/site//emailaddress"
	srcQ15 = "/site/closed_auctions/closed_auction/annotation/description/parlist/listitem/parlist/listitem/text/emph/keyword"
)

var (
	smallOnce  sync.Once
	smallWL    *bench.Workload
	smallStore *storage.Store
	smallDict  *xmltree.Dictionary
)

// testStore returns a shared small XMark volume (tests run sequentially and
// reset it as needed).
func testStore(t *testing.T) (*storage.Store, *xmltree.Dictionary) {
	t.Helper()
	smallOnce.Do(func() {
		smallWL = bench.NewWorkload(bench.Config{EntityScale: 0.1, Seed: 7})
		smallStore, smallDict = smallWL.Store(0.1)
	})
	return smallStore, smallDict
}

func parsePath(t *testing.T, dict *xmltree.Dictionary, src string) []xpath.Step {
	t.Helper()
	return xpath.MustParse(dict, src).Simplify().Steps
}

// newStoppedEngine builds an engine without starting its dispatcher, so
// tests can fill the admission queue and run gangs deterministically.
func newStoppedEngine(st *storage.Store, cfg Config) *Engine {
	cfg = cfg.withDefaults()
	return &Engine{
		store:   st,
		chooser: plan.NewChooser(st),
		cfg:     cfg,
		queue:   make(chan []*Pending, cfg.QueueDepth),
		stop:    make(chan struct{}),
		drain:   make(chan struct{}),
	}
}

func startDispatcher(e *Engine) {
	e.wg.Add(1)
	go e.run()
}

// nodeSet reduces a result list to its unique node IDs.
func nodeSet(rs []core.Result) map[storage.NodeID]bool {
	set := make(map[storage.NodeID]bool, len(rs))
	for _, r := range rs {
		set[r.Node] = true
	}
	return set
}

// TestConcurrentMixMatchesSequential is the stress / equivalence test: N
// goroutines submit the Q6'/Q7/Q15 mix with mixed strategies through one
// engine; every query's result must be identical to a sequential
// single-query run. Meant to run under -race.
func TestConcurrentMixMatchesSequential(t *testing.T) {
	st, dict := testStore(t)

	type spec struct {
		src    string
		strat  core.Strategy
		auto   bool
		sorted bool
	}
	specs := []spec{
		{src: srcQ6, strat: core.StrategySchedule},
		{src: srcQ6, strat: core.StrategyScan, sorted: true},
		{src: srcQ6, strat: core.StrategySimple},
		{src: srcQ7a, strat: core.StrategySchedule},
		{src: srcQ7b, strat: core.StrategySchedule},
		{src: srcQ7c, strat: core.StrategyScan},
		{src: srcQ15, strat: core.StrategySchedule},
		{src: srcQ15, auto: true},
		{src: srcQ7a, auto: true, sorted: true},
	}

	// Sequential ground truth: result count per (path, strategy) and node
	// set per path (sets are strategy-independent).
	wantCount := map[string]int{}
	wantSet := map[string]map[storage.NodeID]bool{}
	for _, src := range []string{srcQ6, srcQ7a, srcQ7b, srcQ7c, srcQ15} {
		steps := parsePath(t, dict, src)
		for _, strat := range []core.Strategy{core.StrategySimple, core.StrategySchedule, core.StrategyScan} {
			st.ResetForRun()
			rs := core.BuildPlan(st, steps, st.Roots(), strat, core.PlanOptions{}).Run()
			wantCount[src+"|"+strat.String()] = len(rs)
			if wantSet[src] == nil {
				wantSet[src] = nodeSet(rs)
			}
		}
	}

	e := New(st, Config{MaxInFlight: 4, QueueDepth: 16})
	defer e.Close()
	st.ResetForRun()

	const workers = 6
	type outcome struct {
		spec spec
		res  Result
		err  error
	}
	results := make(chan outcome, workers*len(specs))
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			s := e.NewSession()
			for i := range specs {
				sp := specs[(i+w)%len(specs)] // vary gang composition
				res, err := s.Do(context.Background(), Query{
					Path:     parsePath(t, dict, sp.src),
					Auto:     sp.auto,
					Strategy: sp.strat,
					Sorted:   sp.sorted,
				})
				results <- outcome{spec: sp, res: res, err: err}
			}
		}(w)
	}
	wg.Wait()
	close(results)

	n := 0
	for o := range results {
		n++
		if o.err != nil {
			t.Fatalf("query %q failed: %v", o.spec.src, o.err)
		}
		key := o.spec.src + "|" + o.res.Strategy.String()
		want, ok := wantCount[key]
		if !ok {
			t.Fatalf("query %q resolved to unexpected strategy %v", o.spec.src, o.res.Strategy)
		}
		if o.res.Count() != want {
			t.Errorf("query %q (%v): %d results, want %d",
				o.spec.src, o.res.Strategy, o.res.Count(), want)
		}
		set := nodeSet(o.res.Results)
		if len(set) != len(wantSet[o.spec.src]) {
			t.Errorf("query %q: %d unique nodes, want %d",
				o.spec.src, len(set), len(wantSet[o.spec.src]))
		}
		for id := range set {
			if !wantSet[o.spec.src][id] {
				t.Errorf("query %q: unexpected node %v", o.spec.src, id)
				break
			}
		}
		if o.spec.sorted {
			rs := o.res.Results
			for i := 1; i < len(rs); i++ {
				if ordpath.Compare(rs[i-1].Ord, rs[i].Ord) > 0 {
					t.Errorf("query %q: results not in document order at %d", o.spec.src, i)
					break
				}
			}
		}
		if o.res.Gang < 1 || o.res.Gang > 4 {
			t.Errorf("query %q: gang size %d outside [1,4]", o.spec.src, o.res.Gang)
		}
	}
	if n != workers*len(specs) {
		t.Fatalf("got %d outcomes, want %d", n, workers*len(specs))
	}

	m := e.Metrics()
	if m.Submitted != int64(n) || m.Completed != int64(n) {
		t.Errorf("metrics: submitted %d completed %d, want %d", m.Submitted, m.Completed, n)
	}
	if m.Rejected != 0 || m.Cancelled != 0 {
		t.Errorf("metrics: rejected %d cancelled %d, want 0", m.Rejected, m.Cancelled)
	}
	if m.Gangs < 1 || m.Gangs > m.Submitted {
		t.Errorf("metrics: gangs %d outside [1,%d]", m.Gangs, m.Submitted)
	}
}

// TestSharedBatchingBeatsSequential is the acceptance experiment: eight
// concurrent Q6' clients through one engine must finish in less virtual
// time than eight cold sequential runs, because the gang-shared scheduler
// loads every cluster once for all members.
func TestSharedBatchingBeatsSequential(t *testing.T) {
	wl := bench.NewWorkload(bench.Config{EntityScale: 0.1, Seed: 7})
	st, dict := wl.Store(0.5)
	steps := parsePath(t, dict, srcQ6)
	const clients = 8

	// Eight independent single-query sessions, run back to back, each cold.
	var seqTotal stats.Ticks
	wantCount := -1
	for i := 0; i < clients; i++ {
		st.ResetForRun()
		rs := core.BuildPlan(st, steps, st.Roots(), core.StrategySchedule, core.PlanOptions{}).Run()
		if wantCount == -1 {
			wantCount = len(rs)
		} else if len(rs) != wantCount {
			t.Fatalf("sequential run %d: %d results, want %d", i, len(rs), wantCount)
		}
		seqTotal += st.Ledger().Total()
	}

	// The same eight queries as one gang on a stopped engine (deterministic
	// gang composition: all eight are queued before the dispatcher runs), so
	// they form one shared group.
	e := newStoppedEngine(st, Config{MaxInFlight: clients, QueueDepth: clients})
	s := e.NewSession()
	var pendings []*Pending
	for i := 0; i < clients; i++ {
		p, err := s.TrySubmit(context.Background(), Query{
			Path:     steps,
			Strategy: core.StrategySchedule,
		})
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		pendings = append(pendings, p)
	}
	st.ResetForRun()
	e.execute(e.gather(<-e.queue))
	engTotal := st.Ledger().Total()

	for i, p := range pendings {
		res, err := p.Wait(context.Background())
		if err != nil {
			t.Fatalf("client %d: %v", i, err)
		}
		if res.Count() != wantCount {
			t.Fatalf("client %d: %d results, want %d", i, res.Count(), wantCount)
		}
		if !res.Shared || res.Gang != clients {
			t.Errorf("client %d: shared=%v gang=%d, want shared gang of %d",
				i, res.Shared, res.Gang, clients)
		}
	}
	if engTotal >= seqTotal {
		t.Fatalf("batched gang not faster: engine %v >= sequential %v", engTotal, seqTotal)
	}
	t.Logf("Q6' ×%d: sequential %.3fs, batched gang %.3fs (%.1fx)",
		clients, seqTotal.Seconds(), engTotal.Seconds(),
		float64(seqTotal)/float64(engTotal))

	m := e.Metrics()
	if m.Batched != clients || m.Gangs != 1 {
		t.Errorf("metrics: batched %d gangs %d, want %d and 1", m.Batched, m.Gangs, clients)
	}
	if m.OverheadV <= 0 {
		t.Errorf("metrics: no dispatch overhead recorded")
	}
}

// TestAdmissionQueueFull: TrySubmit sheds load once the queue is at
// QueueDepth; Submit-ted queries still complete when the dispatcher starts.
func TestAdmissionQueueFull(t *testing.T) {
	st, dict := testStore(t)
	st.ResetForRun()
	e := newStoppedEngine(st, Config{MaxInFlight: 2, QueueDepth: 2})
	s := e.NewSession()
	q := Query{Path: parsePath(t, dict, srcQ15), Strategy: core.StrategySchedule}

	p1, err1 := s.TrySubmit(context.Background(), q)
	p2, err2 := s.TrySubmit(context.Background(), q)
	if err1 != nil || err2 != nil {
		t.Fatalf("admission failed below capacity: %v, %v", err1, err2)
	}
	if _, err := s.TrySubmit(context.Background(), q); err != ErrQueueFull {
		t.Fatalf("overfull TrySubmit: err %v, want ErrQueueFull", err)
	}
	if m := e.Metrics(); m.Submitted != 2 || m.Rejected != 1 {
		t.Fatalf("metrics: submitted %d rejected %d, want 2 and 1", m.Submitted, m.Rejected)
	}

	startDispatcher(e)
	defer e.Close()
	for i, p := range []*Pending{p1, p2} {
		if _, err := p.Wait(context.Background()); err != nil {
			t.Fatalf("queued query %d: %v", i, err)
		}
	}
}

func TestCancellation(t *testing.T) {
	st, dict := testStore(t)
	q := Query{Path: parsePath(t, dict, srcQ6), Strategy: core.StrategySchedule}

	t.Run("pre-cancelled submit", func(t *testing.T) {
		st.ResetForRun()
		e := New(st, Config{})
		defer e.Close()
		s := e.NewSession()
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		if _, err := s.Submit(ctx, q); err != context.Canceled {
			t.Fatalf("Submit: err %v, want context.Canceled", err)
		}
		if _, err := s.TrySubmit(ctx, q); err != context.Canceled {
			t.Fatalf("TrySubmit: err %v, want context.Canceled", err)
		}
		if m := e.Metrics(); m.Submitted != 0 {
			t.Fatalf("pre-cancelled queries were admitted: %d", m.Submitted)
		}
	})

	t.Run("cancelled while queued", func(t *testing.T) {
		st.ResetForRun()
		e := newStoppedEngine(st, Config{})
		s := e.NewSession()
		ctx, cancel := context.WithCancel(context.Background())
		p, err := s.TrySubmit(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		cancel()
		e.execute(e.gather(<-e.queue))
		if _, err := p.Wait(context.Background()); err != context.Canceled {
			t.Fatalf("Wait: err %v, want context.Canceled", err)
		}
		if m := e.Metrics(); m.Cancelled != 1 || m.Completed != 0 {
			t.Fatalf("metrics: cancelled %d completed %d, want 1 and 0", m.Cancelled, m.Completed)
		}
		// The volume stays usable after the cancellation.
		st.ResetForRun()
		if n := core.BuildPlan(st, q.Path, st.Roots(), core.StrategySchedule, core.PlanOptions{}).Count(); n == 0 {
			t.Fatal("store unusable after cancellation")
		}
	})

	t.Run("wait context", func(t *testing.T) {
		st.ResetForRun()
		e := newStoppedEngine(st, Config{})
		s := e.NewSession()
		p, err := s.TrySubmit(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		if _, err := p.Wait(ctx); err != context.Canceled {
			t.Fatalf("Wait with cancelled context: err %v, want context.Canceled", err)
		}
		// The query itself is unaffected; run it to completion.
		e.execute(e.gather(<-e.queue))
		if _, err := p.Wait(context.Background()); err != nil {
			t.Fatalf("query after abandoned Wait: %v", err)
		}
	})
}

func TestClose(t *testing.T) {
	st, dict := testStore(t)
	st.ResetForRun()
	e := New(st, Config{})
	s := e.NewSession()
	q := Query{Path: parsePath(t, dict, srcQ15), Strategy: core.StrategySimple}

	e.Close()
	e.Close() // idempotent
	if _, err := s.Submit(context.Background(), q); err != ErrClosed {
		t.Fatalf("Submit after Close: err %v, want ErrClosed", err)
	}
	if _, err := s.TrySubmit(context.Background(), q); err != ErrClosed {
		t.Fatalf("TrySubmit after Close: err %v, want ErrClosed", err)
	}
}

// TestDrain checks graceful shutdown at the engine level: every query
// admitted before Drain completes (including ones still queued when the
// drain starts), new submissions fail with ErrClosed, and Drain only
// returns once the dispatcher goroutine has exited.
func TestDrain(t *testing.T) {
	st, dict := testStore(t)
	st.ResetForRun()
	// A stopped engine lets us stack queries in the admission queue before
	// the dispatcher ever runs, so the drain provably serves the backlog.
	e := newStoppedEngine(st, Config{MaxInFlight: 2, QueueDepth: 16})
	s := e.NewSession()
	q := Query{Path: parsePath(t, dict, srcQ6), Strategy: core.StrategySchedule}

	const n = 6
	pendings := make([]*Pending, n)
	for i := range pendings {
		p, err := s.Submit(context.Background(), q)
		if err != nil {
			t.Fatalf("Submit %d: %v", i, err)
		}
		pendings[i] = p
	}
	startDispatcher(e)
	if err := e.Drain(context.Background()); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if !e.Draining() {
		t.Fatal("Draining() false after Drain")
	}
	for i, p := range pendings {
		res, err := p.Wait(context.Background())
		if err != nil {
			t.Fatalf("query %d failed during drain: %v", i, err)
		}
		if res.Count() == 0 {
			t.Fatalf("query %d returned no results", i)
		}
	}
	if _, err := s.Submit(context.Background(), q); err != ErrClosed {
		t.Fatalf("Submit after Drain: err %v, want ErrClosed", err)
	}
	if m := e.Metrics(); m.Completed != n {
		t.Fatalf("Completed = %d, want %d", m.Completed, n)
	}
	e.Close() // Close after Drain is a no-op
	if err := e.Drain(context.Background()); err != nil {
		t.Fatalf("second Drain: %v", err)
	}
}

// TestAutoLevelReadReported: on a resident pool an Auto query of a path with
// a descendant step runs Simple and reads the path from levels, and its
// Result's choice says so; a child-only path navigates, and so does a
// relative one the chooser would read from levels from the roots — the
// choice reports what the built plan did. Both return navigation's nodes.
func TestAutoLevelReadReported(t *testing.T) {
	// A pool that holds the whole volume, loaded before the first choice.
	st, dict := bench.NewWorkload(bench.Config{EntityScale: 0.05, Seed: 7, BufferPages: 1 << 12}).Store(0.1)
	e := New(st, Config{})
	defer e.Close()
	for i := 0; i < st.NumDataPages(); i++ {
		st.LoadCluster(st.DataPage(i))
	}
	s := e.NewSession()
	site := core.BuildPlan(st, parsePath(t, dict, "/site"), st.Roots(), core.StrategySimple, core.PlanOptions{}).Run()[0].Node
	for _, c := range []struct {
		src      string
		contexts []storage.NodeID
		levels   bool
	}{
		{srcQ6, nil, true},
		{srcQ7a, nil, true},
		{srcQ15, nil, false},
		{"//description", []storage.NodeID{site}, false},
	} {
		path := parsePath(t, dict, c.src)
		contexts := c.contexts
		if contexts == nil {
			contexts = st.Roots()
		}
		want := nodeSet(core.BuildPlan(st, path, contexts, core.StrategySimple, core.PlanOptions{}).Run())
		res, err := s.Do(context.Background(), Query{Path: path, Contexts: c.contexts, Auto: true})
		if err != nil {
			t.Fatal(err)
		}
		if res.Strategy != core.StrategySimple || res.Choice == nil || res.Choice.LevelRead != c.levels {
			t.Fatalf("%s: ran %v with choice %+v, want simple, reading levels %v", c.src, res.Strategy, res.Choice, c.levels)
		}
		got := nodeSet(res.Results)
		if len(got) != len(want) || len(got) != res.Count() {
			t.Fatalf("%s: %d nodes (%d distinct), navigation %d", c.src, res.Count(), len(got), len(want))
		}
		for id := range want {
			if !got[id] {
				t.Fatalf("%s: node %v missing", c.src, id)
			}
		}
	}
}
