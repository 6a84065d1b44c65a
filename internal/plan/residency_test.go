package plan

import (
	"sort"
	"strings"
	"sync"
	"testing"

	"pathdb/internal/core"
	"pathdb/internal/stats"
	"pathdb/internal/xpath"
)

// benchPaths are the twelve single-branch paths of benchmark/workloads.go:
// the flat mix, flat_cold's selective child paths and the joinable
// predicates of branch_sorted.
var benchPaths = []string{
	"/site/regions//item",
	"/site//description",
	"/site//annotation",
	"/site//emailaddress",
	"/site/closed_auctions/closed_auction/annotation/description/parlist/listitem/parlist/listitem/text/emph/keyword",
	"/site/people/person/name",
	"/site/open_auctions/open_auction/bidder/increase",
	"/site/closed_auctions/closed_auction/price",
	"/site/categories/category/name",
	"/site/people/person/address/city",
	"/site//item[mailbox/mail//keyword]",
	"/site//parlist[(listitem/parlist){1,2}]",
}

func estimates(c Choice) [3]Estimate { return [3]Estimate{c.Schedule, c.Scan, c.Simple} }

// TestChooserColdEstimatesUnchanged pins the identity at miss = 1: on an
// empty pool every estimate equals, to the tick, what the residency-blind
// model of the parent commit computed (golden values taken there), so the
// paper's cold findings and every cold decision stand.
func TestChooserColdEstimatesUnchanged(t *testing.T) {
	dict, st := xmarkStore(t, 1)
	ch := NewChooser(st)
	for _, g := range []struct {
		src                    string
		strategy               core.Strategy
		schedule, scan, simple stats.Ticks
		pred                   core.PredEval
	}{
		{"/site/regions//item", core.StrategySchedule, 91326800, 105633850, 100374800, core.PredNested},
		{"/site//description", core.StrategyScan, 206272600, 103345600, 226708600, core.PredNested},
		{"/site/closed_auctions/closed_auction/annotation/description/parlist/listitem/parlist/listitem/text/emph/keyword",
			core.StrategySchedule, 31492000, 135340600, 34612000, core.PredNested},
		{"/site//item[mailbox/mail//keyword]", core.StrategyScan, 206272600, 103345600, 226708600, core.PredJoin},
		{`/site//closed_auction[annotation//keyword="golden"]`, core.StrategyScan, 206272600, 103345600, 226708600, core.PredJoin},
	} {
		c := ch.Choose(xpath.MustParse(dict, g.src).Simplify().Steps)
		if c.Residency != 0 {
			t.Fatalf("%s: residency %v on a flushed pool", g.src, c.Residency)
		}
		if c.Strategy != g.strategy || c.PredEval != g.pred ||
			c.Schedule.Cost != g.schedule || c.Scan.Cost != g.scan || c.Simple.Cost != g.simple ||
			c.LevelRead != (g.pred == core.PredJoin) { // each joining path here reads from levels
			t.Errorf("%s: cold choice moved: %v, preds %v", g.src, c, c.PredEval)
		}
	}
}

// TestChooserWarmMatchesMeasurement: on a fully resident volume the chosen
// strategy is the one that measures cheapest on the virtual clock (warm
// regret 0), and the three estimates rank as the three measurements do. The
// plan the choice builds reads levels exactly when the choice says so. A
// join plan that reads its path from levels does so under all three
// strategies and measures alike; a predicate-free path the choice reads from
// levels is ranked by the plans the forced strategies navigate.
func TestChooserWarmMatchesMeasurement(t *testing.T) {
	dict, st := xmarkStore(t, 1)
	ch := NewChooser(st)
	loadAll(st)
	for _, src := range benchPaths {
		path := xpath.MustParse(dict, src).Simplify().Steps
		choice := ch.Choose(path)
		if choice.Residency != 1 {
			t.Fatalf("%s: residency %v after loading every cluster", src, choice.Residency)
		}
		// Every path here with a descendant step reads from levels on a
		// resident pool; the child-only paths navigate.
		if choice.LevelRead != strings.Contains(src, "//") {
			t.Fatalf("%s: choice reads levels %v (%v)", src, choice.LevelRead, choice)
		}
		opts := core.PlanOptions{PredEval: choice.PredEval, LevelRead: choice.LevelRead}
		if p := core.BuildPlan(st, path, st.Roots(), choice.Strategy, opts); p.LevelRead() != choice.LevelRead {
			t.Fatalf("%s [%v]: the chosen plan reads levels %v, choice says %v", src, choice.Strategy, p.LevelRead(), choice.LevelRead)
		}
		measured := map[core.Strategy]stats.Ticks{}
		forcedReadsLevels := false
		for _, e := range estimates(choice) {
			run := func() {
				p := core.BuildPlan(st, path, st.Roots(), e.Strategy, core.PlanOptions{PredEval: choice.PredEval})
				p.Count()
				forcedReadsLevels = p.LevelRead()
			}
			run() // a join's filter sets are built once, whoever runs first
			v0 := st.Ledger().Total()
			run()
			measured[e.Strategy] = st.Ledger().Total() - v0
		}
		if forcedReadsLevels {
			// The plan reads the path from levels: no strategy is left to
			// choose, and all three run the same level read.
			if m := measured[core.StrategySimple]; measured[core.StrategySchedule] != m || measured[core.StrategyScan] != m {
				t.Errorf("%s: a level read measures %v across strategies", src, measured)
			}
			continue
		}
		byEstimate, byMeasurement := estimates(choice), estimates(choice)
		sort.SliceStable(byEstimate[:], func(a, b int) bool { return byEstimate[a].Cost < byEstimate[b].Cost })
		sort.SliceStable(byMeasurement[:], func(a, b int) bool {
			return measured[byMeasurement[a].Strategy] < measured[byMeasurement[b].Strategy]
		})
		for i := range byEstimate {
			if byEstimate[i].Strategy != byMeasurement[i].Strategy {
				t.Errorf("%s: estimates rank %v, measurements %v (%v)", src, byEstimate, measured, choice)
				break
			}
		}
		if choice.Strategy != byMeasurement[0].Strategy {
			t.Errorf("%s: chose %v, cheapest measured is %v (%v)", src, choice.Strategy, byMeasurement[0].Strategy, measured)
		}
	}
}

// TestChooserEstimatesFallWithResidency loads the volume a tenth at a time:
// no estimate may rise as more of it becomes resident.
func TestChooserEstimatesFallWithResidency(t *testing.T) {
	dict, st := xmarkStore(t, 1)
	ch := NewChooser(st)
	n := st.NumDataPages()
	var paths [][]xpath.Step
	for _, src := range benchPaths {
		paths = append(paths, xpath.MustParse(dict, src).Simplify().Steps)
	}
	prev := make([]Choice, len(paths))
	for loaded, tenth := 0, 0; tenth <= 10; tenth++ {
		for ; loaded < n*tenth/10; loaded++ {
			st.LoadCluster(st.DataPage(loaded))
		}
		for i, path := range paths {
			c := ch.Choose(path)
			if tenth > 0 {
				if c.Residency <= prev[i].Residency {
					t.Fatalf("residency %v after loading %d of %d pages, was %v", c.Residency, loaded, n, prev[i].Residency)
				}
				was := estimates(prev[i])
				for k, e := range estimates(c) {
					if e.Cost > was[k].Cost {
						t.Errorf("%s: %v estimate rose from %v to %v at residency %.1f",
							benchPaths[i], e.Strategy, was[k].Cost, e.Cost, c.Residency)
					}
				}
			}
			prev[i] = c
		}
	}
}

// TestChooserSmallPoolDecidesAsCold: a pool that can hold less than a tenth
// of the volume — flat_cold's 90 pages against 1 282 — must not move a
// single decision away from the paper's, however full it is.
func TestChooserSmallPoolDecidesAsCold(t *testing.T) {
	dict, st := xmarkStore(t, 1)
	n := st.NumDataPages()
	st.SetBufferCapacity(n/10 - 1)
	ch := NewChooser(st)
	for _, src := range benchPaths {
		path := xpath.MustParse(dict, src).Simplify().Steps
		st.ResetForRun()
		cold := ch.Choose(path)
		core.BuildPlan(st, path, st.Roots(), core.StrategyScan, core.PlanOptions{}).Count() // fills the pool
		full := ch.Choose(path)
		if full.Residency <= 0 || full.Residency >= 0.1 {
			t.Fatalf("%s: residency %v with a %d-page pool over %d pages", src, full.Residency, n/10-1, n)
		}
		if full.Strategy != cold.Strategy || full.PredEval != cold.PredEval {
			t.Errorf("%s: a %.0f%% resident pool moved the decision\ncold: %v\nfull: %v", src, 100*full.Residency, cold, full)
		}
	}
}

// TestChooseWhileWorkersFixPages: the engine's dispatcher chooses for the
// next gang while streams of the last one still load clusters, so Choose
// reads the pool's fill concurrently with readers changing it (`make race`
// runs this package under the race detector).
func TestChooseWhileWorkersFixPages(t *testing.T) {
	dict, st := xmarkStore(t, 0.5)
	ch := NewChooser(st)
	path := xpath.MustParse(dict, "/site//description").Simplify().Steps
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			view := st.Reader(stats.NewLedger())
			core.BuildPlan(view, path, view.Roots(), core.StrategySchedule, core.PlanOptions{}).Count()
		}()
	}
	for i := 0; i < 500; i++ {
		if c := ch.Choose(path); c.Residency < 0 || c.Residency > 1 {
			t.Errorf("residency %v", c.Residency)
			break
		}
	}
	wg.Wait()
	if c := ch.Choose(path); c.Residency != 1 {
		t.Fatalf("residency %v after two full traversals", c.Residency)
	}
}

// BenchmarkChoose times one decision for a flat path on a resident and on
// an empty pool: reading the pool's fill adds no allocation, and
// plan.choose_us of the benchmark ladder stays well under a microsecond.
func BenchmarkChoose(b *testing.B) {
	dict, st := xmarkStore(b, 1)
	ch := NewChooser(st)
	loadAll(st)
	path := xpath.MustParse(dict, "/site/regions//item").Simplify().Steps
	var sink Choice
	for _, pool := range []struct {
		name  string
		flush bool
	}{{"warm", false}, {"cold", true}} {
		b.Run(pool.name, func(b *testing.B) {
			if pool.flush {
				st.ResetForRun()
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sink = ch.Choose(path)
			}
		})
	}
	_ = sink
}
