package core

import (
	"context"
	"reflect"
	"sync"
	"testing"

	"pathdb/internal/ordpath"
	"pathdb/internal/stats"
	"pathdb/internal/storage"
	"pathdb/internal/txn"
	"pathdb/internal/xmltree"
	"pathdb/internal/xpath"
)

// joinRun evaluates src with the given evaluator over whatever the derived
// cache holds (no reset) and returns the result's key set.
func joinRun(t testing.TB, st *storage.Store, src string, opts PlanOptions) []string {
	t.Helper()
	steps := xpath.MustParse(st.Dict(), src).Simplify().Steps
	return resultKeySet(st, BuildPlan(st, steps, st.Roots(), StrategySimple, opts).Run())
}

// cachedLevels snapshots every level of the store's derived generation that
// the given tests name, by value.
func cachedLevels(t testing.TB, st *storage.Store, tests ...string) map[string]storage.Level {
	t.Helper()
	dcache, epoch, _ := st.Derived()
	out := map[string]storage.Level{}
	for _, name := range tests {
		step := xpath.MustParse(st.Dict(), "//"+name).Simplify().Steps[0]
		if v, ok := dcache.Get(epoch, LevelKey(st.Dict(), step)); ok {
			lv := *v.(*storage.Level)
			lv.Ords = append([]ordpath.Key(nil), lv.Ords...)
			lv.IDs = append([]storage.NodeID(nil), lv.IDs...)
			out[name] = lv
		}
	}
	return out
}

// TestLevelsSharedNeverMutated interleaves joins that select different
// subsets of the same cached levels — by literal, by nested predicate, by
// the levels below — and holds each to the nested evaluator. A level that a
// query filtered in place (as the per-branch build filtered its own D_j)
// would make a later query lose nodes; the cached levels themselves must
// read the same before and after, and one build must have served them all.
func TestLevelsSharedNeverMutated(t *testing.T) {
	_, _, st := xjoinFixture(t)
	srcs := []string{
		`//book[meta/year="1992"]`, `//book[meta/year]`, `//book[meta[year]]`, `//book[meta/year="1990"]`,
		`//lib[book/meta]`, `//book[meta]`, `//book[.//year="1991"]`, `//book[title="t9"]`, `//book[title]`,
		`//book[meta/year="1992"]`,
	}
	joinRun(t, st, srcs[0], PlanOptions{PredEval: PredJoin})
	before := cachedLevels(t, st, "meta", "year")
	if len(before) != 2 || before["year"].Ends == nil {
		t.Fatalf("first join cached %d of the levels meta and year (with values)", len(before))
	}
	for _, src := range srcs {
		want := joinRun(t, st, src, PlanOptions{PredEval: PredNested})
		if got := joinRun(t, st, src, PlanOptions{PredEval: PredJoin}); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s over shared levels:\nwant %v\ngot  %v", src, want, got)
		}
	}
	if after := cachedLevels(t, st, "meta", "year"); !reflect.DeepEqual(after, before) {
		t.Fatal("a query changed a cached level")
	}
	dcache, _, _ := st.Derived()
	if _, misses := dcache.Stats(); misses > 12 {
		// 4 levels and 4 literal-free branches miss once each.
		t.Fatalf("%d derived-cache misses: levels are being rebuilt", misses)
	}
}

// countdownCtx reports cancellation from its n-th Err poll on — a
// deterministic stand-in for a deadline that strikes mid-build.
type countdownCtx struct {
	context.Context
	polls int
}

func (c *countdownCtx) Err() error {
	if c.polls--; c.polls < 0 {
		return context.Canceled
	}
	return nil
}

// TestCancelledBuildAdmitsNothing: whenever the query's context ends
// between the first candidate and the last admission, the derived cache
// holds nothing but complete artifacts afterwards — the next query over it,
// join or nested, returns the nested oracle's nodes.
func TestCancelledBuildAdmitsNothing(t *testing.T) {
	_, _, st := xjoinFixture(t)
	const src = `//book[meta/year="1992"][title]`
	want := joinRun(t, st, src, PlanOptions{PredEval: PredNested})
	admitted := 0
	for polls := 0; polls < 60; polls++ {
		st.ResetForRun()
		joinRun(t, st, src, PlanOptions{PredEval: PredJoin, Ctx: &countdownCtx{Context: context.Background(), polls: polls}})
		for name, lv := range cachedLevels(t, st, "meta", "year", "title") {
			admitted++
			if full := buildLevel(NewEvalState(st, nil), xpath.MustParse(st.Dict(), "//"+name).Simplify().Steps[0]); !reflect.DeepEqual(lv.Ords, full.Ords) {
				t.Fatalf("polls=%d: level %s admitted with %d of %d entries", polls, name, len(lv.Ords), len(full.Ords))
			}
		}
		if got := joinRun(t, st, src, PlanOptions{PredEval: PredJoin}); !reflect.DeepEqual(got, want) {
			t.Fatalf("polls=%d: join after a cancelled build:\nwant %v\ngot  %v", polls, want, got)
		}
	}
	if admitted == 0 {
		t.Fatal("no run got as far as admitting a level: the sweep tests nothing")
	}
}

// TestConcurrentLevelBuilds: workers that miss the same levels at the same
// time each build them and publish identical content; whatever order the
// admissions land in, every worker's result and the surviving generation
// are the ones a single build produces. Run under -race.
func TestConcurrentLevelBuilds(t *testing.T) {
	_, _, st := xjoinFixture(t)
	const src = `//book[meta/year="1992"]`
	want := joinRun(t, st, src, PlanOptions{PredEval: PredNested})
	st.ResetForRun()
	joinRun(t, st, src, PlanOptions{PredEval: PredJoin})
	solo := cachedLevels(t, st, "meta", "year")
	for round := 0; round < 20; round++ {
		st.ResetForRun()
		var wg sync.WaitGroup
		got := make([][]string, 4)
		for w := range got {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				got[w] = joinRun(t, st.Reader(stats.NewLedger()), src, PlanOptions{PredEval: PredJoin})
			}(w)
		}
		wg.Wait()
		for w := range got {
			if !reflect.DeepEqual(got[w], want) {
				t.Fatalf("round %d worker %d:\nwant %v\ngot  %v", round, w, want, got[w])
			}
		}
		after := cachedLevels(t, st, "meta", "year")
		for name, lv := range after {
			lv.Vals, lv.Ends = nil, nil // a level without values may be admitted last
			s := solo[name]
			s.Vals, s.Ends = nil, nil
			if !reflect.DeepEqual(lv, s) {
				t.Fatalf("round %d: level %s differs from a solo build", round, name)
			}
		}
		if len(after) != 2 {
			t.Fatalf("round %d: %d levels resident, want 2", round, len(after))
		}
	}
}

// TestConcurrentAdvance: workers that first read the levels after a commit
// race to advance them; one advance publishes, the others find the
// generation at their epoch, and every worker's result is nested's. Run
// under -race.
func TestConcurrentAdvance(t *testing.T) {
	dict, _, st := xjoinFixture(t)
	const src = `//book[meta/year="1992"]`
	mgr, err := txn.NewManager(st, txn.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer mgr.Close()
	lib := BuildPlan(st, xpath.MustParse(dict, "/lib").Simplify().Steps, st.Roots(), StrategySimple, PlanOptions{}).Run()[0].Node
	for round := 0; round < 10; round++ {
		joinRun(t, st, src, PlanOptions{PredEval: PredJoin})
		book, meta, year := xmltree.NewElement(dict.Intern("book")), xmltree.NewElement(dict.Intern("meta")), xmltree.NewElement(dict.Intern("year"))
		book.AppendChild(meta.AppendChild(year.AppendChild(xmltree.NewText("1992"))))
		if err := mgr.Update(func(tx *txn.Tx) error {
			_, err := tx.InsertSubtree(lib, storage.InvalidNodeID, book)
			return err
		}); err != nil {
			t.Fatal(err)
		}
		want := joinRun(t, st, src, PlanOptions{PredEval: PredNested})
		dcache, _, _ := st.Derived()
		before := dcache.Metrics()
		var wg sync.WaitGroup
		got := make([][]string, 4)
		for w := range got {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				got[w] = joinRun(t, st.Reader(stats.NewLedger()), src, PlanOptions{PredEval: PredJoin})
			}(w)
		}
		wg.Wait()
		for w := range got {
			if !reflect.DeepEqual(got[w], want) {
				t.Fatalf("round %d worker %d:\nwant %v\ngot  %v", round, w, want, got[w])
			}
		}
		if m := dcache.Metrics(); m.LevelAdvances-before.LevelAdvances != 2 || m.LevelBuilds != before.LevelBuilds {
			t.Fatalf("round %d: %d level advances, %d builds; want the two levels advanced once", round,
				m.LevelAdvances-before.LevelAdvances, m.LevelBuilds-before.LevelBuilds)
		}
	}
}

// The four benchmarks below time the join's phases on the XMark fixture:
// a query whose sets are resident, the enumeration of one level, its advance
// across a commit, and the per-query selection of a literal from a resident
// level.

func BenchmarkJoinResident(b *testing.B) {
	dict, st := xmarkFixture(b)
	steps := xpath.MustParse(dict, "/site//item[mailbox/mail//keyword]").Simplify().Steps
	arena := NewArena()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		BuildPlan(st, steps, st.Roots(), StrategySimple, PlanOptions{Arena: arena, PredEval: PredJoin}).Count()
	}
}

var levelSink *storage.Level

func BenchmarkLevelBuild(b *testing.B) {
	dict, st := xmarkFixture(b)
	step := xpath.MustParse(dict, "//keyword").Simplify().Steps[0]
	es := NewEvalState(st, nil)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		levelSink = buildLevel(es, step)
	}
}

// BenchmarkLevelAdvance advances the keyword level, with its string values,
// over the pages one commit wrote: the benchmark's write epilogue inserts a
// fragment under a person.
func BenchmarkLevelAdvance(b *testing.B) {
	dict, st := xmarkFixture(b)
	kw := levelOf(NewEvalState(st, nil), xpath.MustParse(dict, "//keyword").Simplify().Steps[0], true)
	since := st.VersionEpoch()
	person := BuildPlan(st, xpath.MustParse(dict, "/site/people/person").Simplify().Steps, st.Roots(), StrategySimple, PlanOptions{}).Run()[0].Node
	mgr, err := txn.NewManager(st, txn.Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer mgr.Close()
	pad, note := xmltree.NewElement(dict.Intern("benchpad")), xmltree.NewElement(dict.Intern("note"))
	pad.AppendChild(note.AppendChild(xmltree.NewText("cost sensitive")))
	if err := mgr.Update(func(tx *txn.Tx) error {
		_, err := tx.InsertSubtree(person, storage.InvalidNodeID, pad)
		return err
	}); err != nil {
		b.Fatal(err)
	}
	snap := mgr.Snapshot()
	defer snap.Release()
	view := snap.View(stats.NewLedger())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		levels := map[string]any{"keyword": kw}
		if _, pages, _ := storage.AdvanceLevels(view, since, levels); pages == 0 {
			b.Fatal("the commit wrote no page")
		}
		levelSink = levels["keyword"].(*storage.Level)
	}
}

func BenchmarkLiteralSelect(b *testing.B) {
	dict, st := xmarkFixture(b)
	step := xpath.MustParse(dict, "//keyword").Simplify().Steps[0]
	es := NewEvalState(st, nil)
	lit := &xpath.Predicate{HasLit: true, Literal: "soul"}
	selectLevel(es, step, lit)
	b.ReportAllocs()
	b.ResetTimer()
	n := 0
	for i := 0; i < b.N; i++ {
		n += len(selectLevel(es, step, lit))
	}
	if n == 0 {
		b.Fatal("no keyword of the fixture equals the literal")
	}
}
