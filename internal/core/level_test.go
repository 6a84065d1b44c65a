package core

import (
	"context"
	"fmt"
	"reflect"
	"slices"
	"sync"
	"testing"

	"pathdb/internal/buffer"
	"pathdb/internal/ordpath"
	"pathdb/internal/stats"
	"pathdb/internal/storage"
	"pathdb/internal/txn"
	"pathdb/internal/vdisk"
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

// completeLevels fails unless every level of the given tests that the
// derived cache holds equals a full build, and returns how many it holds.
func completeLevels(t *testing.T, st *storage.Store, label string, tests ...string) int {
	t.Helper()
	held := cachedLevels(t, st, tests...)
	for name, lv := range held {
		if full := buildLevel(NewEvalState(st, nil), xpath.MustParse(st.Dict(), "//"+name).Simplify().Steps[0]); !reflect.DeepEqual(lv.Ords, full.Ords) {
			t.Fatalf("%s: level %s admitted with %d of %d entries", label, name, len(lv.Ords), len(full.Ords))
		}
	}
	return len(held)
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
	for polls := 0; polls < 100; polls++ { // through the last admission, the fourth level
		st.ResetForRun()
		joinRun(t, st, src, PlanOptions{PredEval: PredJoin, Ctx: &countdownCtx{Context: context.Background(), polls: polls}})
		admitted += completeLevels(t, st, fmt.Sprintf("polls=%d", polls), "book", "meta", "year", "title")
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

// flatRun streams the predicate-free src from the roots, read from levels
// where the rule allows (levels set, as the chooser's Choice.LevelRead asks)
// or navigated, over whatever the derived cache holds, and returns the
// nodes' keys in delivery order.
func flatRun(t testing.TB, st *storage.Store, src string, levels bool, ctx context.Context) []string {
	t.Helper()
	steps := xpath.MustParse(st.Dict(), src).Simplify().Steps
	p := BuildPlan(st, steps, st.Roots(), StrategySimple, PlanOptions{LevelRead: levels, Ctx: ctx})
	if p.LevelRead() != levels {
		t.Fatalf("%s: the plan reads levels %v, want %v", src, p.LevelRead(), levels)
	}
	var out []string
	root := p.Root()
	root.Open()
	defer root.Close()
	for {
		inst, ok := root.Next()
		if !ok {
			return out
		}
		out = append(out, inst.Ord.String())
	}
}

// TestFlatLevelReadCancelled: whenever the query's context ends, a
// predicate-free level read has delivered a prefix of its document-ordered
// answer, the derived cache holds nothing but complete levels, and the next
// read returns navigation's nodes. No read caches its answer.
func TestFlatLevelReadCancelled(t *testing.T) {
	_, _, st := xjoinFixture(t)
	const src = "/lib//year"
	want := flatRun(t, st, src, false, nil)
	cut := 0
	for polls := 0; polls < len(want)+20; polls++ {
		st.ResetForRun()
		got := flatRun(t, st, src, true, &countdownCtx{Context: context.Background(), polls: polls})
		if len(got) > len(want) || !slices.Equal(got, want[:len(got)]) {
			t.Fatalf("polls=%d: a cancelled read delivered %v, not a prefix of %v", polls, got, want)
		}
		if len(got) < len(want) {
			cut++
		}
		completeLevels(t, st, fmt.Sprintf("polls=%d", polls), "lib", "year")
		if got := flatRun(t, st, src, true, nil); !reflect.DeepEqual(got, want) {
			t.Fatalf("polls=%d: read after a cancelled one:\nwant %v\ngot  %v", polls, want, got)
		}
	}
	if cut == 0 || cut == len(want)+20 {
		t.Fatalf("%d of %d reads were cut short: the sweep tests little", cut, len(want)+20)
	}
	dcache, epoch, _ := st.Derived()
	if dcache.Contains(epoch, stepsKey("levels:", st.Dict(), xpath.MustParse(st.Dict(), src).Simplify().Steps)) {
		t.Fatal("a predicate-free read cached its answer")
	}
}

// TestFlatLevelReadFaultAdmitsNothing sweeps seeded read faults, one
// attempt per read, over a predicate-free level read whose levels are not
// resident: a build that unwinds on a page fault fails the read with a
// storage page error and admits no partial level, so the next read returns
// navigation's nodes.
func TestFlatLevelReadFaultAdmitsNothing(t *testing.T) {
	_, _, st := xjoinFixture(t)
	const src = "/lib//year"
	want := flatRun(t, st, src, false, nil)
	st.Buffer().SetRetryPolicy(buffer.RetryPolicy{Attempts: 1})
	defer st.Buffer().SetRetryPolicy(buffer.DefaultRetryPolicy())
	failed := 0
	for seed := uint64(1); seed <= 40; seed++ {
		st.ResetForRun()
		st.Disk().SetFaults(vdisk.Faults{Seed: seed, ReadError: 0.05})
		pe := func() (pe *storage.PageError) {
			defer func() {
				if r := recover(); r != nil {
					var ok bool
					if pe, ok = storage.AsPageFault(r); !ok {
						panic(r)
					}
				}
			}()
			flatRun(t, st, src, true, nil)
			return nil
		}()
		st.Disk().SetFaults(vdisk.Faults{})
		if pe != nil {
			failed++
			if pe.Kind != storage.PageIO {
				t.Fatalf("seed %d: the read failed with %v, want an I/O page error", seed, pe)
			}
		}
		completeLevels(t, st, fmt.Sprintf("seed %d", seed), "lib", "year")
		if got := flatRun(t, st, src, true, nil); !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d (failed: %v): read after the faulted one:\nwant %v\ngot  %v", seed, pe != nil, want, got)
		}
	}
	if failed < 5 || failed == 40 {
		t.Fatalf("%d of 40 faulted reads failed: the sweep tests little", failed)
	}
}

// TestConcurrentAdvance: workers that first read the levels after a commit
// race to advance them — half of them joining, half streaming a
// predicate-free path from levels; one advance publishes, the others find
// the generation at their epoch, and every join returns nested's nodes and
// every stream navigation's. Run under -race.
func TestConcurrentAdvance(t *testing.T) {
	dict, _, st := xjoinFixture(t)
	const src, flat = `//book[meta/year="1992"]`, "/lib//year"
	mgr, err := txn.NewManager(st, txn.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer mgr.Close()
	lib := BuildPlan(st, xpath.MustParse(dict, "/lib").Simplify().Steps, st.Roots(), StrategySimple, PlanOptions{}).Run()[0].Node
	for round := 0; round < 10; round++ {
		joinRun(t, st, src, PlanOptions{PredEval: PredJoin})
		flatRun(t, st, flat, true, nil)
		book, meta, year := xmltree.NewElement(dict.Intern("book")), xmltree.NewElement(dict.Intern("meta")), xmltree.NewElement(dict.Intern("year"))
		book.AppendChild(meta.AppendChild(year.AppendChild(xmltree.NewText("1992"))))
		if err := mgr.Update(func(tx *txn.Tx) error {
			_, err := tx.InsertSubtree(lib, storage.InvalidNodeID, book)
			return err
		}); err != nil {
			t.Fatal(err)
		}
		want := [2][]string{joinRun(t, st, src, PlanOptions{PredEval: PredNested}), flatRun(t, st, flat, false, nil)}
		dcache, _, _ := st.Derived()
		before := dcache.Metrics()
		var wg sync.WaitGroup
		got := make([][]string, 6)
		for w := range got {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				if view := st.Reader(stats.NewLedger()); w%2 == 0 {
					got[w] = joinRun(t, view, src, PlanOptions{PredEval: PredJoin})
				} else {
					got[w] = flatRun(t, view, flat, true, nil)
				}
			}(w)
		}
		wg.Wait()
		for w := range got {
			if !reflect.DeepEqual(got[w], want[w%2]) {
				t.Fatalf("round %d worker %d:\nwant %v\ngot  %v", round, w, want[w%2], got[w])
			}
		}
		// Four levels: book, which the join reads its step from, meta and
		// year, which its predicate joins over, and lib, which the stream
		// reads its first step from.
		if m := dcache.Metrics(); m.LevelAdvances-before.LevelAdvances != 4 || m.LevelBuilds != before.LevelBuilds {
			t.Fatalf("round %d: %d level advances, %d builds; want the four levels advanced once", round,
				m.LevelAdvances-before.LevelAdvances, m.LevelBuilds-before.LevelBuilds)
		}
	}
}

// The benchmarks below time the join's phases on the XMark fixture: a
// query whose sets are resident, read from levels from the roots and fed by
// navigation from a relative context, a predicate-free path read from
// levels and navigated, the enumeration of one level, its advance across a
// commit, and the per-query selection of a literal from a resident level.

// BenchmarkJoinResident times /site//item[mailbox/mail//keyword] over
// resident sets: the plan reads both steps from levels.
func BenchmarkJoinResident(b *testing.B) {
	dict, st := xmarkFixture(b)
	steps := xpath.MustParse(dict, "/site//item[mailbox/mail//keyword]").Simplify().Steps
	arena := NewArena()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		BuildPlan(st, steps, st.Roots(), StrategySimple, PlanOptions{Arena: arena, PredEval: PredJoin}).Count()
	}
}

// BenchmarkJoinNavigated times the same predicate from the site element,
// //item[mailbox/mail//keyword] as a relative path: the level read does
// not apply, so the XJoin filters candidates an XStep navigates to.
func BenchmarkJoinNavigated(b *testing.B) {
	dict, st := xmarkFixture(b)
	site := BuildPlan(st, xpath.MustParse(dict, "/site").Simplify().Steps, st.Roots(), StrategySimple, PlanOptions{}).Run()[0].Node
	steps := xpath.MustParse(dict, "/site//item[mailbox/mail//keyword]").Simplify().Steps[1:]
	contexts := []storage.NodeID{site}
	arena := NewArena()
	if p := BuildPlan(st, steps, contexts, StrategySimple, PlanOptions{PredEval: PredJoin}); p.LevelRead() {
		b.Fatal("the relative plan reads from levels")
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		BuildPlan(st, steps, contexts, StrategySimple, PlanOptions{Arena: arena, PredEval: PredJoin}).Count()
	}
}

// BenchmarkFlatResident times Q6′ and a Q7 path read from resident
// levels, as an Auto read on a resident pool runs them: the prefix steps
// semi-joined top-down from the roots, the last level streamed through the
// merge.
func BenchmarkFlatResident(b *testing.B) { benchFlat(b, true) }

// BenchmarkFlatNavigated times the same paths navigated by forced Simple.
func BenchmarkFlatNavigated(b *testing.B) { benchFlat(b, false) }

func benchFlat(b *testing.B, levels bool) {
	dict, st := xmarkFixture(b)
	arena := NewArena()
	for name, src := range map[string]string{"Q6": "/site/regions//item", "Q7description": "/site//description"} {
		steps := xpath.MustParse(dict, src).Simplify().Steps
		b.Run(name, func(b *testing.B) {
			BuildPlan(st, steps, st.Roots(), StrategySimple, PlanOptions{Arena: arena, LevelRead: levels}).Count() // builds the levels
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				BuildPlan(st, steps, st.Roots(), StrategySimple, PlanOptions{Arena: arena, LevelRead: levels}).Count()
			}
		})
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
