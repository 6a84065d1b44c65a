package core

import (
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"pathdb/internal/ordpath"
	"pathdb/internal/rng"
	"pathdb/internal/stats"
	"pathdb/internal/storage"
	"pathdb/internal/txn"
	"pathdb/internal/xmltree"
	"pathdb/internal/xpath"
)

// levelForms are the benchmark's branch_sorted predicate forms, a literal
// filled in and the union split in two.
var levelForms = []string{
	"/site//item[mailbox/mail//keyword]",
	"/site//parlist[(listitem/parlist){1,2}]",
	`/site//item[.//keyword="soul"]`,
	`/site//closed_auction[annotation//keyword="soul"]`,
	"/site//open_auction[annotation//keyword]",
}

// TestSemiJoinKeepMatchesPairwise holds the top-down merge to a pairwise
// check of every context against every level entry, on the keys of random
// trees, for each axis the level read joins on.
func TestSemiJoinKeepMatchesPairwise(t *testing.T) {
	r := rng.New(11)
	for trial := 0; trial < 40; trial++ {
		dict, doc := buildTree(uint64(trial), 80)
		st := importTree(t, dict, doc, 512, storage.LayoutNatural)
		all := BuildPlan(st, xpath.MustParse(dict, "//*").Simplify().Steps, st.Roots(), StrategySimple, PlanOptions{}).Run()
		SortResults(all)
		pick := func(p float64) []ordpath.Key {
			var out []ordpath.Key
			for _, res := range all {
				if r.Bool(p) {
					out = append(out, res.Ord)
				}
			}
			return out
		}
		anc, desc := pick(0.3), pick(0.5)
		if trial%4 == 0 {
			anc = []ordpath.Key{ordpath.Root()}
		}
		for _, rel := range []relKind{relChild, relDesc, relDescOrSelf} {
			keep := make([]bool, len(desc))
			semiJoinKeep(anc, desc, rel, keep)
			for k, d := range desc {
				want := slices.ContainsFunc(anc, func(a ordpath.Key) bool {
					switch rel {
					case relChild:
						return a.IsAncestorOf(d) && a.Level() == d.Level()-1
					case relDesc:
						return a.IsAncestorOf(d)
					default:
						return ancestorOrSelf(a, d)
					}
				})
				if keep[k] != want {
					t.Fatalf("trial %d, rel %d: entry %v kept=%v, pairwise %v", trial, rel, d, keep[k], want)
				}
			}
		}
	}
}

// TestLevelReadTouchesNoPage: once its levels and sets are resident, a
// predicate read from the roots runs no XStep and touches no page — no
// read, no node visit, no swizzle on its view's ledger — under every
// strategy, and returns the nested evaluator's nodes.
func TestLevelReadTouchesNoPage(t *testing.T) {
	dict, st := xmarkFixture(t)
	for _, src := range levelForms {
		steps := xpath.MustParse(dict, src).Simplify().Steps
		want := resultKeySet(st, runStrategy(t, st, steps, StrategySimple, PlanOptions{PredEval: PredNested}))
		runStrategy(t, st, steps, StrategySimple, PlanOptions{PredEval: PredJoin}) // builds the levels
		for _, strat := range allStrategies {
			led := stats.NewLedger()
			view := st.Reader(led)
			p := BuildPlan(view, steps, view.Roots(), strat, PlanOptions{PredEval: PredJoin})
			if desc := p.Describe(dict); !p.LevelRead() || strings.Contains(desc, "XStep") {
				t.Fatalf("%s [%v]: the plan navigates:\n%s", src, strat, desc)
			}
			got := resultKeySet(st, p.Run())
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s [%v]: %d nodes, nested %d", src, strat, len(got), len(want))
			}
			if led.PageReads != 0 || led.NodesVisited != 0 || led.Swizzles != 0 {
				t.Fatalf("%s [%v]: %d page reads, %d node visits, %d swizzles over resident levels",
					src, strat, led.PageReads, led.NodesVisited, led.Swizzles)
			}
		}
	}
}

// TestLevelReadAcrossCommits: commits that insert and delete item subtrees
// move the item level, so the advance drops the cached candidate set of
// /site//item and the next read builds it again — equal to what
// navigation finds at the new version — and every read returns the nested
// evaluator's nodes.
func TestLevelReadAcrossCommits(t *testing.T) {
	dict, st := xmarkFixture(t)
	mgr, err := txn.NewManager(st, txn.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer mgr.Close()
	forms := levelForms[:3]
	itemSteps := xpath.MustParse(dict, "/site//item").Simplify().Steps
	europe := BuildPlan(st, xpath.MustParse(dict, "/site/regions/europe").Simplify().Steps, st.Roots(), StrategySimple, PlanOptions{}).Run()[0].Node
	check := func(round int) int {
		t.Helper()
		for _, src := range forms {
			steps := xpath.MustParse(dict, src).Simplify().Steps
			want := resultKeySet(st, runStrategy(t, st, steps, StrategySimple, PlanOptions{PredEval: PredNested}))
			for _, strat := range allStrategies {
				if got := resultKeySet(st, runStrategy(t, st, steps, strat, PlanOptions{PredEval: PredJoin})); !reflect.DeepEqual(got, want) {
					t.Fatalf("round %d, %s [%v]: join %d nodes, nested %d", round, src, strat, len(got), len(want))
				}
			}
		}
		_, key := predPlan(st, xpath.MustParse(dict, forms[0]).Simplify().Steps, st.Roots(), PredJoin)
		dcache, epoch, _ := st.Derived()
		v, ok := dcache.Get(epoch, key)
		if !ok {
			t.Fatalf("round %d: no candidate set resident at epoch %d", round, epoch)
		}
		items := BuildPlan(st, itemSteps, st.Roots(), StrategySimple, PlanOptions{PredEval: PredNested}).Run()
		ids := make([]storage.NodeID, len(items))
		for k, res := range items {
			ids[k] = res.Node
		}
		if cs := v.(*candSet); !slices.Equal(cs.ids, ids) {
			t.Fatalf("round %d: cached candidate set holds %d items, navigation finds %d", round, len(cs.ids), len(ids))
		}
		return len(ids)
	}
	n := check(0)
	for round := 1; round <= 6; round++ {
		if err := mgr.Update(func(tx *txn.Tx) error {
			if round%2 == 1 {
				item, mailbox, mail, kw := xmltree.NewElement(dict.Intern("item")), xmltree.NewElement(dict.Intern("mailbox")),
					xmltree.NewElement(dict.Intern("mail")), xmltree.NewElement(dict.Intern("keyword"))
				item.AppendChild(mailbox.AppendChild(mail.AppendChild(kw.AppendChild(xmltree.NewText("soul")))))
				_, err := tx.InsertSubtree(europe, storage.InvalidNodeID, item)
				return err
			}
			// The appended item is europe's last.
			items := BuildPlan(st, xpath.MustParse(dict, "/site/regions/europe/item").Simplify().Steps, st.Roots(), StrategySimple, PlanOptions{}).Run()
			return tx.DeleteSubtree(items[len(items)-1].Node)
		}); err != nil {
			t.Fatal(err)
		}
		want := n
		if round%2 == 1 {
			want++
		}
		if got := check(round); got != want {
			t.Fatalf("round %d: %d items, want %d", round, got, want)
		}
	}
}

// TestDescribeRenderings pins Describe's rendering of a navigated plan, of
// a plan that reads its path from levels — one Levels operator under the
// XJoin of its last step — and of a join plan the level read does not
// apply to, whose XJoin filters what navigation finds.
func TestDescribeRenderings(t *testing.T) {
	dict, st := xmarkFixture(t)
	for _, c := range []struct {
		src   string
		strat Strategy
		want  string
	}{
		{"/site/regions//item", StrategySchedule, `XAssembly(|π|=3, feedback→XSchedule queue)
  XStep₃(descendant::item)
    XStep₂(child::regions)
      XStep₁(child::site)
        XSchedule(k=100, speculative=false)
          Context(1 nodes)
order: none
`},
		{"/site//item[mailbox/mail//keyword]", StrategySimple, `XJoin(step 2, 1 predicates, structural semi-join)
  Levels(child::site/descendant::item)
order: document (no sort)
`},
		{"/site//item[mailbox]/name", StrategyScan, `XAssembly(|π|=3, feedback→none (scan plan))
  XStep₃(child::name)
    XJoin(step 2, 1 predicates, structural semi-join)
      XStep₂(descendant::item[child::mailbox])
        XStep₁(child::site)
          XScan(` + "%d" + ` clusters, sequential)
            Context(1 nodes)
order: none
`},
	} {
		want := c.want
		if strings.Contains(want, "%d") {
			want = fmt.Sprintf(want, st.NumDataPages())
		}
		steps := xpath.MustParse(dict, c.src).Simplify().Steps
		if got := BuildPlan(st, steps, st.Roots(), c.strat, PlanOptions{PredEval: PredJoin}).Describe(dict); got != want {
			t.Errorf("%s [%v]:\ngot\n%s\nwant\n%s", c.src, c.strat, got, want)
		}
	}
}
