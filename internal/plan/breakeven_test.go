package plan

import (
	"fmt"
	"testing"

	"pathdb/internal/core"
	"pathdb/internal/stats"
	"pathdb/internal/storage"
	"pathdb/internal/vdisk"
	"pathdb/internal/xmltree"
	"pathdb/internal/xpath"
)

// resolveRun resolves the path as a request's Auto/PredAuto does and runs
// what was picked; it returns the evaluator and the run's node visits.
func resolveRun(ch *Chooser, st *storage.Store, path []xpath.Step) (core.PredEval, *Choice, int64) {
	strat, pred, choice := ch.Resolve(path, true, core.StrategySimple, core.PredAuto)
	v0 := st.Ledger().NodesVisited
	core.BuildPlan(st, path, st.Roots(), strat, core.PlanOptions{PredEval: pred}).Count()
	return pred, choice, st.Ledger().NodesVisited - v0
}

// TestResolveBuysAtBreakEven walks the rule on a resident volume, with no
// clock but the model's own: identical PredAuto reads probe until the
// saving credited to the missing levels covers the estimate of building
// them — never earlier, and with at most one read's saving to spare — then
// one read joins and builds, and every later one joins over resident sets.
// Choose, which Explain and Query.Choice call, moves nothing in between.
func TestResolveBuysAtBreakEven(t *testing.T) {
	dict, st := xmarkStore(t, 1)
	ch := NewChooser(st) // leaves the volume resident
	path := xpath.MustParse(dict, "/site//item[mailbox/mail//keyword]").Simplify().Steps
	first := ch.Choose(path).Preds[0]
	if first.Cached || first.Build == 0 || first.Credit != 0 || first.Join-first.Build >= first.Nested || first.Join <= first.Nested {
		t.Fatalf("fixture is not a rent-or-buy case: %+v", first)
	}
	saving := first.Nested - (first.Join - first.Build)

	rented := stats.Ticks(0)
	reads := 0
	for ; ; reads++ {
		for i := 0; i < 3; i++ {
			if p := ch.Choose(path).Preds[0]; p.Credit < rented-3 || p.Credit > rented+3 {
				t.Fatalf("read %d: Choose reports credit %v, %v was rented so far", reads, p.Credit, rented)
			}
		}
		pred, choice, _ := resolveRun(ch, st, path)
		if choice.PredEval != pred {
			t.Fatalf("read %d: ran %v, the choice says %v", reads, pred, choice.PredEval)
		}
		if pred == core.PredJoin {
			break
		}
		if rented += saving; rented >= first.Build {
			t.Fatalf("read %d: still nested with %v rented against a build of %v", reads, rented, first.Build)
		}
		if reads > 100 {
			t.Fatal("never bought")
		}
	}
	if reads == 0 || rented+saving < first.Build {
		t.Fatalf("bought after %d reads with %v rented and %v more due, build %v", reads, rented, saving, first.Build)
	}
	dcache, _, _ := st.Derived()
	_, misses := dcache.Stats()
	live := st.Ledger().NodesVisited // far more than one query visits without enumerating
	for i := 0; i < 5; i++ {
		pred, choice, visited := resolveRun(ch, st, path)
		if pred != core.PredJoin || !choice.Preds[0].Cached || choice.Preds[0].Build != 0 {
			t.Fatalf("read %d after the build: %v %+v", i, pred, choice.Preds[0])
		}
		if _, m := dcache.Stats(); m != misses || visited*4 > live {
			t.Fatalf("read %d after the build: %d new misses, %d nodes visited", i, m-misses, visited)
		}
	}
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
		pred, _, visited := resolveRun(ch, st, path)
		if pred == core.PredJoin {
			joins++
			if visited > perFlat*3/2 {
				enumerations++
			}
		}
	}
	dcache, _, _ := st.Derived()
	hits, misses := dcache.Stats()
	if joins < 120 || enumerations != 1 || misses != 1 || hits != uint64(joins-1) {
		t.Fatalf("%d joins, %d enumerations, %d misses, %d hits; want one enumeration for the whole vocabulary",
			joins, enumerations, misses, hits)
	}
}

// wideStore is a document with more distinct tags under predicates than a
// derived generation has room for: <r> holds 300 <g> of three leaves each,
// their tags taken in turn from 300 — few enough children per candidate
// that a level's enumeration costs a few reads' worth of probes.
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
// build could not be admitted, so it must not be bought — else every later
// query would pick the join and enumerate again. Traffic over tags that
// found room keeps joining; traffic over the rest probes, and enumerates
// nothing, for as long as the generation lives.
func TestFullGenerationFallsBackToNested(t *testing.T) {
	dict, st := wideStore(t)
	ch := NewChooser(st)
	path := func(k int) []xpath.Step {
		return xpath.MustParse(dict, fmt.Sprintf("/r/g[t%d]", k)).Simplify().Steps
	}
	// Fill: each template rents, buys, and admits a level and an S_1.
	bought := 0
	for k := 0; k < 300; k++ {
		for i := 0; i < 8; i++ {
			if pred, _, _ := resolveRun(ch, st, path(k)); pred == core.PredJoin {
				bought++
				break
			}
		}
	}
	if bought < 100 || bought > 128 {
		t.Fatalf("%d templates bought their join; a generation of 256 entries has room for 128", bought)
	}
	live := ch.live
	for round := 0; round < 3; round++ {
		for k := 280; k < 300; k++ {
			pred, choice, visited := resolveRun(ch, st, path(k))
			if pred != core.PredNested || choice.Preds[0].Credit != 0 || visited >= live {
				t.Fatalf("round %d, t%d with the generation full: %v, credit %v, %d of %d nodes visited",
					round, k, pred, choice.Preds[0].Credit, visited, live)
			}
		}
		if pred, _, visited := resolveRun(ch, st, path(0)); pred != core.PredJoin || visited >= live {
			t.Fatalf("round %d: resident template resolved to %v, %d nodes visited", round, pred, visited)
		}
	}
}
