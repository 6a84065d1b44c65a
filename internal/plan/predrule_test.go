package plan

import (
	"fmt"
	"strings"
	"testing"

	"pathdb/internal/core"
	"pathdb/internal/stats"
	"pathdb/internal/storage"
	"pathdb/internal/vdisk"
	"pathdb/internal/xmltree"
	"pathdb/internal/xpath"
)

// resolveRun resolves the path as an Auto/PredAuto request does and runs
// the plan; it returns the evaluator the plan applied and the run's node
// visits.
func resolveRun(ch *Chooser, dict *xmltree.Dictionary, st *storage.Store, path []xpath.Step) (core.PredEval, int64) {
	strat, _ := ch.Resolve(path, true, core.StrategySimple)
	v0 := st.Ledger().NodesVisited
	p := core.BuildPlan(st, path, st.Roots(), strat, core.PlanOptions{})
	p.Count()
	pred := core.PredNested
	if strings.Contains(p.Describe(dict), "XJoin") {
		pred = core.PredJoin
	}
	return pred, st.Ledger().NodesVisited - v0
}

// TestLiteralsShareOneLevel: 128 distinct literals over one template cost
// one enumeration of the level they are compared against, not 128, and no
// key of the generation grows with the vocabulary.
func TestLiteralsShareOneLevel(t *testing.T) {
	dict, st := xmarkStore(t, 1)
	ch := NewChooser(st)
	flat := xpath.MustParse(dict, "/site//item").Simplify().Steps
	v0 := st.Ledger().NodesVisited
	core.BuildPlan(st, flat, st.Roots(), core.StrategySimple, core.PlanOptions{}).Count()
	perFlat := st.Ledger().NodesVisited - v0

	joins, enumerations := 0, 0
	for i := 0; i < 128; i++ {
		path := xpath.MustParse(dict, fmt.Sprintf(`/site//item[.//keyword="w%d"]`, i)).Simplify().Steps
		pred, visited := resolveRun(ch, dict, st, path)
		if pred == core.PredJoin {
			joins++
			if visited > perFlat*3/2 {
				enumerations++
			}
		}
	}
	// The first read misses the keyword level, and the site and item
	// levels and candidate set its /site//item prefix is read from; every
	// later one hits the candidate set and the keyword level.
	dcache, _, _ := st.Derived()
	hits, misses := dcache.Stats()
	if joins != 128 || enumerations != 1 || misses != 4 || hits != uint64(2*(joins-1)) {
		t.Fatalf("%d joins, %d enumerations, %d misses, %d hits; want one enumeration for the whole vocabulary",
			joins, enumerations, misses, hits)
	}
}

// wideStore is a document with more distinct tags under predicates than a
// derived generation has room for: <r> holds 300 <g> of three leaves each,
// their tags taken in turn from 300.
func wideStore(t testing.TB) (*xmltree.Dictionary, *storage.Store) {
	dict := xmltree.NewDictionary()
	b := xmltree.NewBuilder(dict)
	b.Begin("r")
	for k := 0; k < 900; k += 3 {
		b.Begin("g")
		for c := k; c < k+3; c++ {
			b.Leaf(fmt.Sprintf("t%d", c%300), "x")
		}
		b.End()
	}
	b.End()
	st, err := storage.Import(vdisk.New(vdisk.DefaultCostModel(), stats.NewLedger(), 8192), dict, b.Doc(),
		storage.ImportOptions{PageSize: 8192, Layout: storage.LayoutNatural, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	return dict, st
}

// TestFullGenerationFallsBackToNested: once the generation has no room, a
// join's levels could not be admitted, so PredAuto must not pick it — else
// every later query would enumerate again. Traffic over tags that found
// room keeps joining; traffic over the rest probes, and enumerates nothing,
// for as long as the generation lives. So do a write transaction's overlay
// view and a view pinned to a superseded snapshot, which may not use the
// generation at all.
func TestFullGenerationFallsBackToNested(t *testing.T) {
	dict, st := wideStore(t)
	ch := NewChooser(st)
	path := func(k int) []xpath.Step {
		return xpath.MustParse(dict, fmt.Sprintf("/r/g[t%d]", k)).Simplify().Steps
	}
	// Fill: each template joins on its first read, admitting a level and an
	// S_1, until the generation has no room left. The first also admits
	// the r and g levels and the candidate set its /r/g prefix is read from,
	// which every template shares: 3 + 2·126 entries leave room for one
	// more level, whose S_1 the full generation then refuses.
	joined := 0
	for k := 0; k < 300; k++ {
		if pred, _ := resolveRun(ch, dict, st, path(k)); pred == core.PredJoin {
			joined++
		}
	}
	if joined != 127 {
		t.Fatalf("%d templates joined; a generation of 256 entries has room for 127", joined)
	}
	live := ch.live
	for round := 0; round < 3; round++ {
		for k := 280; k < 300; k++ {
			if pred, visited := resolveRun(ch, dict, st, path(k)); pred != core.PredNested || visited >= live {
				t.Fatalf("round %d, t%d with the generation full: %v, %d of %d nodes visited",
					round, k, pred, visited, live)
			}
		}
		if pred, visited := resolveRun(ch, dict, st, path(0)); pred != core.PredJoin || visited >= live {
			t.Fatalf("round %d: resident template resolved to %v, %d nodes visited", round, pred, visited)
		}
	}

	// A commit that writes nothing, and a read at its epoch: the full
	// generation is dropped and the template's level built again.
	if _, err := st.InitTxn(); err != nil {
		t.Fatal(err)
	}
	pinned := st.SnapshotView(stats.NewLedger())
	st.PublishVersion(st.CurrentVersion().Apply(1, nil, nil))
	if pred, _ := resolveRun(ch, dict, st, path(0)); pred != core.PredJoin {
		t.Fatalf("after the commit: %v, want the join", pred)
	}
	want := core.BuildPlan(st, path(0), st.Roots(), core.StrategySimple, core.PlanOptions{PredEval: core.PredNested}).Count()
	for name, view := range map[string]*storage.Store{
		"superseded snapshot": pinned,
		"write overlay":       st.BeginWrite(st.CurrentVersion(), stats.NewLedger()).View(),
	} {
		if pred, visited := resolveRun(ch, dict, view, path(0)); pred != core.PredNested || visited >= live {
			t.Fatalf("%s: %v, %d of %d nodes visited", name, pred, visited, live)
		}
		if n := core.BuildPlan(view, path(0), view.Roots(), core.StrategySimple, core.PlanOptions{}).Count(); n != want {
			t.Fatalf("%s: %d matches, want %d", name, n, want)
		}
	}
}
