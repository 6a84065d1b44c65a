package plan

import (
	"strings"
	"testing"

	"pathdb/internal/core"
	"pathdb/internal/stats"
	"pathdb/internal/storage"
	"pathdb/internal/txn"
	"pathdb/internal/vdisk"
	"pathdb/internal/xmark"
	"pathdb/internal/xmltree"
	"pathdb/internal/xpath"
)

func xmarkStore(t testing.TB, sf float64) (*xmltree.Dictionary, *storage.Store) {
	t.Helper()
	dict := xmltree.NewDictionary()
	doc := xmark.Generate(dict, xmark.Config{ScaleFactor: sf, Seed: 17, EntityScale: 0.02})
	disk := vdisk.New(vdisk.DefaultCostModel(), stats.NewLedger(), 8192)
	st, err := storage.Import(disk, dict, doc, storage.ImportOptions{
		PageSize: 8192, Layout: storage.LayoutNatural, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	return dict, st
}

// loadAll brings every cluster of st into its pool: building a chooser
// reads none, so a test that wants a resident volume loads it.
func loadAll(st *storage.Store) {
	for i := 0; i < st.NumDataPages(); i++ {
		st.LoadCluster(st.DataPage(i))
	}
}

func TestChooserPicksScanForLowSelectivity(t *testing.T) {
	dict, st := xmarkStore(t, 1)
	ch := NewChooser(st)
	// Q7-style: //description touches most of the document.
	path := xpath.MustParse(dict, "/site//description").Simplify().Steps
	choice := ch.Choose(path)
	if choice.Strategy != core.StrategyScan {
		t.Fatalf("want scan for //description, got %v (%v)", choice.Strategy, choice)
	}
	if choice.Coverage < 0.3 {
		t.Fatalf("coverage estimate %v too low for //description", choice.Coverage)
	}
}

func TestChooserPicksScheduleForHighSelectivity(t *testing.T) {
	dict, st := xmarkStore(t, 1)
	ch := NewChooser(st)
	// Q15-style: a long selective child path.
	path := xpath.MustParse(dict,
		"/site/closed_auctions/closed_auction/annotation/description/parlist/listitem/parlist/listitem/text/emph/keyword").Steps
	choice := ch.Choose(path)
	if choice.Strategy != core.StrategySchedule {
		t.Fatalf("want schedule for Q15, got %v (%v)", choice.Strategy, choice)
	}
}

func TestChooserScheduleNeverWorseThanSimpleEstimate(t *testing.T) {
	dict, st := xmarkStore(t, 0.5)
	ch := NewChooser(st)
	for _, src := range []string{"/site//item", "//keyword", "/site/people/person/emailaddress"} {
		path := xpath.MustParse(dict, src).Simplify().Steps
		choice := ch.Choose(path)
		if choice.Schedule.Cost > choice.Simple.Cost {
			t.Fatalf("%s: schedule estimate (%v) worse than simple (%v)", src, choice.Schedule.Cost, choice.Simple.Cost)
		}
	}
}

func TestChooserDecisionMatchesMeasurement(t *testing.T) {
	// The chooser must agree with actual simulated cost on the paper's
	// extreme queries (Q7-like scan win, Q15-like schedule win).
	dict, st := xmarkStore(t, 1)
	ch := NewChooser(st)
	st.SetBufferCapacity(64)

	queries := []string{
		"/site//description",
		"/site/closed_auctions/closed_auction/annotation/description/parlist/listitem/parlist/listitem/text/emph/keyword",
	}
	for _, src := range queries {
		path := xpath.MustParse(dict, src).Simplify().Steps
		st.ResetForRun() // the runs below start cold; so must the choice
		choice := ch.Choose(path)

		measure := func(s core.Strategy) stats.Ticks {
			st.ResetForRun()
			core.BuildPlan(st, path, []storage.NodeID{st.Root()}, s, core.PlanOptions{}).Count()
			return st.Ledger().Total()
		}
		sched := measure(core.StrategySchedule)
		scan := measure(core.StrategyScan)
		var fasterIs core.Strategy
		if scan < sched {
			fasterIs = core.StrategyScan
		} else {
			fasterIs = core.StrategySchedule
		}
		if choice.Strategy != fasterIs {
			t.Errorf("%s: chooser picked %v but %v measured faster (sched=%v scan=%v)",
				src, choice.Strategy, fasterIs, sched, scan)
		}
	}
}

// buildAuto is what every production caller does with a request under Auto:
// Resolve, then core.BuildPlan with the resolved strategy and the request's
// evaluator.
func buildAuto(ch *Chooser, st *storage.Store, path []xpath.Step, pred core.PredEval) (*core.Plan, *Choice) {
	strat, choice := ch.Resolve(path, true, core.StrategySchedule)
	return core.BuildPlan(st, path, []storage.NodeID{st.Root()}, strat, core.PlanOptions{PredEval: pred}), choice
}

func TestBuildReturnsRunnablePlan(t *testing.T) {
	dict, st := xmarkStore(t, 0.5)
	ch := NewChooser(st)
	path := xpath.MustParse(dict, "/site//item").Simplify().Steps
	st.ResetForRun()
	p, choice := buildAuto(ch, st, path, core.PredAuto)
	if p.Strategy != choice.Strategy {
		t.Fatal("plan strategy mismatch")
	}
	if n := p.Count(); n == 0 {
		t.Fatal("plan returned no items")
	}
}

func TestChoiceString(t *testing.T) {
	dict, st := xmarkStore(t, 0.2)
	ch := NewChooser(st)
	choice := ch.Choose(xpath.MustParse(dict, "//keyword").Simplify().Steps)
	if choice.String() == "" {
		t.Fatal("empty choice string")
	}
}

// TestChooserRefreshMatchesFreshWalk validates the incremental statistics
// path: after a series of committed inserts and deletes, Refresh (which
// folds in only the rewritten clusters via their synopses) must equal a
// NewChooser over the same version exactly, and both must stay within the
// rewritten pages of the whole-document walk: a rewritten cluster's Below
// keeps the tags its previous version had.
func TestChooserRefreshMatchesFreshWalk(t *testing.T) {
	dict, st := xmarkStore(t, 0.25)
	ch := NewChooser(st)

	mgr, err := txn.NewManager(st, txn.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer mgr.Close()

	parentPath := xpath.MustParse(dict, "/site/regions").Simplify().Steps
	rs := core.BuildPlan(st, parentPath, st.Roots(), core.StrategySimple, core.PlanOptions{}).Run()
	if len(rs) == 0 {
		t.Fatal("no /site/regions in fixture")
	}
	parent := rs[0].Node

	probe := dict.Intern("refreshprobe")
	kw := dict.Intern("keyword")
	var inserted []storage.NodeID
	for i := 0; i < 5; i++ {
		err := mgr.Update(func(tx *txn.Tx) error {
			e := xmltree.NewElement(probe)
			k := xmltree.NewElement(kw)
			k.AppendChild(xmltree.NewText("delta"))
			e.AppendChild(k)
			id, err := tx.InsertSubtree(parent, storage.InvalidNodeID, e)
			inserted = append(inserted, id)
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	for _, id := range inserted[:2] {
		if err := mgr.Update(func(tx *txn.Tx) error { return tx.DeleteSubtree(id) }); err != nil {
			t.Fatal(err)
		}
	}

	snap := mgr.Snapshot()
	defer snap.Release()
	view := snap.View(stats.NewLedger())

	// Pages rewritten since the chooser's base epoch bound the drift from
	// the walk below.
	changed := 0
	view.WrittenSince(ch.epoch, func(vdisk.PageID, uint64) { changed++ })

	ch.Refresh(view)
	// The commit path registered every rewritten cluster's synopsis, so the
	// refresh folds them in without loading a page.
	if reads := view.Ledger().PageReads; reads != 0 {
		t.Fatalf("refresh read %d pages, want 0", reads)
	}
	fresh := NewChooser(view)
	if reads := view.Ledger().PageReads; reads != 0 {
		t.Fatalf("a fresh chooser read %d pages, want 0", reads)
	}

	if ch.epoch != fresh.epoch {
		t.Fatalf("epoch: refreshed %d, fresh %d", ch.epoch, fresh.epoch)
	}
	if ch.live != fresh.live {
		t.Errorf("live records: refreshed %d, fresh %d", ch.live, fresh.live)
	}
	for _, d := range statsDiff(dict, ch.Stats(), fresh.Stats(), 0) {
		t.Errorf("refreshed vs fresh: %s", d)
	}
	walk := walkStats(view)
	for name, c := range map[string]*Chooser{"refreshed": ch, "fresh": fresh} {
		for _, d := range statsDiff(dict, c.Stats(), walk, changed) {
			t.Errorf("%s vs the walk, beyond %d rewritten pages: %s", name, changed, d)
		}
	}

	for _, src := range []string{
		"/site/regions//item",
		"/site//description",
		"/site/closed_auctions/closed_auction/annotation/description/parlist/listitem/parlist/listitem/text/emph/keyword",
	} {
		p := xpath.MustParse(dict, src).Simplify().Steps
		if a, b := ch.Choose(p), fresh.Choose(p); a.Strategy != b.Strategy {
			t.Errorf("%s: refreshed chooser picks %v, fresh walk picks %v\nrefreshed: %v\nfresh:     %v",
				src, a.Strategy, b.Strategy, a, b)
		}
	}
}

// TestChooserPredEval checks the evaluator the choice reports: a joinable
// branching predicate picks the structural join, a non-joinable
// (reverse-axis) predicate and a predicate-free path stay nested.
func TestChooserPredEval(t *testing.T) {
	dict, st := xmarkStore(t, 1)
	ch := NewChooser(st)

	joinSrc := "//text[keyword]"
	choice := ch.Choose(xpath.MustParse(dict, joinSrc).Simplify().Steps)
	if choice.PredEval != core.PredJoin {
		t.Fatalf("want join for %s, got %v (%v)", joinSrc, choice.PredEval, choice)
	}

	nestedSrc := "//mail[ancestor::item]"
	choice = ch.Choose(xpath.MustParse(dict, nestedSrc).Simplify().Steps)
	if choice.PredEval != core.PredNested {
		t.Fatalf("want nested for reverse-axis %s, got %v (%v)", nestedSrc, choice.PredEval, choice)
	}

	choice = ch.Choose(xpath.MustParse(dict, "//keyword").Simplify().Steps)
	if choice.PredEval != core.PredNested {
		t.Fatalf("predicate-free path: %v", choice.PredEval)
	}
}

// TestChooserPredEvalMatchesMeasurement: the choice picks the join on
// branching queries with wide and with narrow candidate sets, and once the
// join's levels are resident it measures no dearer than per-candidate
// probing on the virtual clock, on a resident pool under the chosen
// strategy.
func TestChooserPredEvalMatchesMeasurement(t *testing.T) {
	dict, st := xmarkStore(t, 1)
	ch := NewChooser(st)
	for _, src := range []string{
		"//text[keyword]",        // wide candidate set
		"//listitem[.//keyword]", // overlapping subtree probes
		"//item[mailbox/mail]",   // few candidates, cheap probes
		"//open_auction[bidder/increase]",
	} {
		path := xpath.MustParse(dict, src).Simplify().Steps
		choice := ch.Choose(path)
		if choice.PredEval != core.PredJoin {
			t.Errorf("%s: chose %v, want the join", src, choice.PredEval)
		}
		measure := func(pe core.PredEval) stats.Ticks {
			before := st.Ledger().Total()
			core.BuildPlan(st, path, []storage.NodeID{st.Root()}, choice.Strategy,
				core.PlanOptions{PredEval: pe}).Count()
			return st.Ledger().Total() - before
		}
		measure(core.PredJoin) // builds the levels
		if nested, join := measure(core.PredNested), measure(core.PredJoin); join > nested {
			t.Errorf("%s: the join over resident levels measured dearer (nested=%v join=%v)", src, nested, join)
		}
	}
}

// TestBuildAppliesPredChoice verifies the plan applies the evaluator the
// choice reports (PredAuto resolves to the join, an explicit setting wins),
// and that Resolve keeps a forced strategy without a Choice, which reports
// Auto only.
func TestBuildAppliesPredChoice(t *testing.T) {
	dict, st := xmarkStore(t, 0.5)
	ch := NewChooser(st)
	path := xpath.MustParse(dict, "//text[keyword]").Simplify().Steps
	st.ResetForRun()
	p, choice := buildAuto(ch, st, path, core.PredAuto)
	if choice.PredEval != core.PredJoin {
		t.Fatalf("expected join pick, got %v", choice.PredEval)
	}
	if n := p.Count(); n == 0 {
		t.Fatal("plan returned no items")
	}
	desc := p.Describe(dict)
	if !strings.Contains(desc, "XJoin") {
		t.Fatalf("PredAuto did not resolve to the choice's join pick:\n%s", desc)
	}
	st.ResetForRun()
	p, _ = buildAuto(ch, st, path, core.PredNested)
	if desc := p.Describe(dict); strings.Contains(desc, "XJoin") {
		t.Fatalf("explicit PredNested overridden:\n%s", desc)
	}
	if strat, forced := ch.Resolve(path, false, core.StrategyScan); strat != core.StrategyScan || forced != nil {
		t.Fatalf("forced scan resolved to %v (choice %v), want xscan and no choice", strat, forced)
	}
}
