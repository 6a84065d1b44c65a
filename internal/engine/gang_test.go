package engine

import (
	"context"
	"testing"

	"pathdb/internal/bench"
	"pathdb/internal/core"
	"pathdb/internal/stats"
)

// TestGangCostsMatchSolo asserts the accounting contract of a gang: with a
// warm buffer, each solo member's private virtual clock (Result.CostV)
// equals a solo baseline of the same query on a private view, and each
// shared member's equals the same MultiPlan run outside the engine.
func TestGangCostsMatchSolo(t *testing.T) {
	wl := bench.NewWorkload(bench.Config{EntityScale: 0.1, Seed: 7})
	st, dict := wl.Store(0.1)
	st.SetBufferCapacity(1 << 14) // hold the whole document
	defer st.SetBufferCapacity(wl.Config().BufferPages)

	type spec struct {
		src   string
		strat core.Strategy
	}
	// The Schedule members form the shared group; the rest run solo.
	specs := []spec{
		{srcQ6, core.StrategySchedule},
		{srcQ6, core.StrategySimple},
		{srcQ7a, core.StrategyScan},
		{srcQ7a, core.StrategySchedule},
		{srcQ7b, core.StrategySimple},
		{srcQ7c, core.StrategyScan},
		{srcQ15, core.StrategySimple},
		{srcQ7b, core.StrategySchedule},
		{srcQ15, core.StrategyScan},
		{srcQ7a, core.StrategySimple},
	}

	// Warm every working set on the base store.
	for _, sp := range specs {
		core.BuildPlan(st, parsePath(t, dict, sp.src), st.Roots(), sp.strat, core.PlanOptions{}).Run()
	}

	// Solo baseline: each query on a private view with a fresh ledger.
	base := make([]stats.Ticks, len(specs))
	for i, sp := range specs {
		view := st.Reader(stats.NewLedger())
		core.BuildPlan(view, parsePath(t, dict, sp.src), st.Roots(), sp.strat, core.PlanOptions{}).Run()
		base[i] = view.Ledger().Total()
		if base[i] == 0 {
			t.Fatalf("spec %d (%s %v): zero baseline cost", i, sp.src, sp.strat)
		}
	}
	// Group baseline: the Schedule members on one MultiPlan outside the
	// engine, each member on a private view, the pooled scheduler on its own.
	var members []int
	var queries []core.MultiQuery
	for i, sp := range specs {
		if sp.strat == core.StrategySchedule {
			members = append(members, i)
			queries = append(queries, core.MultiQuery{
				Path:     parsePath(t, dict, sp.src),
				Contexts: st.Roots(),
				Store:    st.Reader(stats.NewLedger()),
			})
		}
	}
	core.BuildMultiPlan(st.Reader(stats.NewLedger()), queries, core.PlanOptions{}).Run()
	group := map[int]stats.Ticks{}
	for j, i := range members {
		group[i] = queries[j].Store.Ledger().Total()
	}

	e := newStoppedEngine(st, Config{MaxInFlight: len(specs), QueueDepth: len(specs)})
	s := e.NewSession()
	pendings := make([]*Pending, len(specs))
	for i, sp := range specs {
		p, err := s.TrySubmit(context.Background(), Query{
			Path:     parsePath(t, dict, sp.src),
			Strategy: sp.strat,
		})
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		pendings[i] = p
	}
	e.execute(e.gather(<-e.queue))

	for i, sp := range specs {
		res, err := pendings[i].Wait(context.Background())
		if err != nil {
			t.Fatalf("%s %v: %v", sp.src, sp.strat, err)
		}
		if want := sp.strat == core.StrategySchedule; res.Shared != want {
			t.Errorf("%s %v: shared %v, want %v", sp.src, sp.strat, res.Shared, want)
		}
		if res.Gang != len(specs) {
			t.Errorf("%s %v: gang %d, want %d", sp.src, sp.strat, res.Gang, len(specs))
		}
		if res.IOWaitV != 0 {
			t.Errorf("%s %v: IOWaitV %v on a warm buffer, want 0", sp.src, sp.strat, res.IOWaitV)
		}
		if want, ok := group[i]; ok {
			// The pooled scheduler's work is the group's, so a shared
			// member pays less than its solo run, and exactly what it pays
			// on the same MultiPlan outside the engine.
			if res.CostV != want || res.CostV >= base[i] {
				t.Errorf("%s %v: CostV %v, want group baseline %v below solo baseline %v",
					sp.src, sp.strat, res.CostV, want, base[i])
			}
		} else if res.CostV != base[i] {
			t.Errorf("%s %v: CostV %v, want solo baseline %v", sp.src, sp.strat, res.CostV, base[i])
		}
		if res.CostV != res.CPUV+res.IOWaitV {
			t.Errorf("%s %v: CostV %v != CPUV %v + IOWaitV %v",
				sp.src, sp.strat, res.CostV, res.CPUV, res.IOWaitV)
		}
	}
	if m := e.Metrics(); m.Batched != 3 {
		t.Errorf("metrics: batched %d, want 3", m.Batched)
	}
}
