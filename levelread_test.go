package pathdb

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"testing"

	"pathdb/internal/core"
	"pathdb/internal/rng"
	"pathdb/internal/xpath"
)

// randLevelPath draws an absolute downward path: the root element, then one
// to three child or '//' steps over names, with a predicate on the last
// step, on a middle one, or on both. It reports whether the level read
// applies, that is whether the last step is the only predicated one.
func randLevelPath(r *rng.RNG, root string, tags []string, lit string) (string, bool) {
	tag := func() string { return tags[r.Intn(len(tags))] }
	pred := func() string {
		switch r.Intn(4) {
		case 0:
			return "[" + tag() + "]"
		case 1:
			return "[.//" + tag() + "]"
		case 2:
			return "[" + tag() + "/" + tag() + "]"
		default:
			return "[.//" + tag() + `="` + lit + `"]`
		}
	}
	n := r.IntRange(1, 3)
	middle, last := -1, n-1
	switch r.Intn(3) {
	case 0:
		middle = r.Intn(n)
		last = -1
	case 1:
		middle = r.Intn(n)
	}
	var b strings.Builder
	b.WriteString("/" + root)
	for i := 0; i < n; i++ {
		if r.Bool(0.5) {
			b.WriteString("//")
		} else {
			b.WriteString("/")
		}
		b.WriteString(tag())
		if i == middle || i == last {
			b.WriteString(pred())
		}
	}
	return b.String(), middle == -1 || middle == n-1
}

// levelReadModes are the delivery modes every level read is compared in.
var levelReadModes = []struct {
	name  string
	opts  QueryOptions
	limit bool
}{
	{"sorted", QueryOptions{Sorted: true}, false},
	{"unsorted", QueryOptions{}, false},
	{"sorted limit 3", QueryOptions{Sorted: true, Limit: 3}, true},
	{"unsorted limit 3", QueryOptions{Limit: 3}, true},
}

// nodeKeys renders nodes as their ids and ord paths, in result order.
func nodeKeys(nodes []Node) []string {
	out := make([]string, len(nodes))
	for i, n := range nodes {
		out[i] = fmt.Sprintf("%d|%s", n.ID(), n.OrdPath())
	}
	return out
}

// TestLevelReadDifferential holds join plans to the nested evaluator: on
// XMark (branch_sorted's forms, its union, and random paths with a
// predicate on the last step, a middle step or both) and on a
// three-document collection (random paths, several roots), under every
// strategy, sorted, unsorted and limited, through the facade and the
// engine — on the fresh volume and after commits that insert and delete
// subtrees, which move a level the reads take a step from. Paths whose only
// predicate is on the last step read from levels; the others navigate.
func TestLevelReadDifferential(t *testing.T) {
	ctx := context.Background()
	r := rng.New(35)
	docs := make([][]byte, 3)
	for i := range docs {
		docs[i] = []byte(randDoc(r))
	}
	coll, err := LoadXMLCollection(docs, Options{PageSize: 1024})
	if err != nil {
		t.Fatal(err)
	}
	type volume struct {
		name  string
		db    *DB
		paths []string
		reads map[string]bool // the paths whose plans read from levels
		// commit inserts (odd rounds) or deletes (even rounds) a subtree
		// that moves a level the paths read from.
		commit func(t *testing.T, db *DB, round int)
	}
	xm := engineFixture(t)
	xmPaths := append(slices.Clone(autoForms), "/site//item[mailbox/mail//keyword] | /site//open_auction[annotation//keyword]")
	xmReads, collReads := map[string]bool{}, map[string]bool{}
	for _, path := range xmPaths {
		xmReads[path] = true
	}
	for i := 0; i < 12; i++ {
		path, reads := randLevelPath(r, "site", xmarkTags, "soul")
		xmPaths, xmReads[path] = append(xmPaths, path), reads
	}
	var collPaths []string
	for i := 0; i < 16; i++ {
		path, reads := randLevelPath(r, "r", propTags, "t0")
		collPaths, collReads[path] = append(collPaths, path), reads
	}
	commit := func(parent, frag, victim string) func(t *testing.T, db *DB, round int) {
		return func(t *testing.T, db *DB, round int) {
			update(t, db, func(tx *Tx, nodes func(string) []Node) error {
				if round%2 == 1 {
					_, err := tx.InsertXML(nodes(parent)[0], frag)
					return err
				}
				vs := nodes(victim)
				return tx.Delete(vs[len(vs)-1])
			})
		}
	}
	vols := []volume{
		{"xmark", xm, xmPaths, xmReads, commit("/site/regions/europe",
			`<item><mailbox><mail><keyword>soul</keyword></mail></mailbox><description><parlist><listitem><parlist/></listitem></parlist></description></item>`,
			"/site/regions/europe/item")},
		{"collection", coll, collPaths, collReads, commit("/r", `<a><b><c>t0</c></b><d><e>t0</e></d></a>`, "/r/a")},
	}
	for _, v := range vols {
		eng := v.db.NewEngine(EngineConfig{})
		ses := eng.NewSession()
		branches, levelReads, nonEmpty := 0, 0, 0
		for round := 0; round <= 4; round++ {
			if round > 0 {
				v.commit(t, v.db, round)
			}
			for _, path := range v.paths {
				union, err := parseUnion(v.db, path)
				if err != nil {
					t.Fatal(err)
				}
				for _, steps := range union {
					branches++
					reads := core.BuildPlan(v.db.store, steps, v.db.store.Roots(), core.StrategySimple, core.PlanOptions{PredEval: core.PredJoin}).LevelRead()
					if reads != v.reads[path] {
						t.Fatalf("%s: the join plan reads levels %v, want %v", path, reads, v.reads[path])
					}
					if reads {
						levelReads++
					}
				}
				for _, strat := range joinDiffStrategies {
					ref, err := v.db.QueryCtx(ctx, path, QueryOptions{Sorted: true, Strategy: strat, PredEval: PredNested})
					if err != nil {
						t.Fatal(err)
					}
					want := nodeKeys(ref.Nodes)
					if len(want) > 0 {
						nonEmpty++
					}
					for _, m := range levelReadModes {
						opts := m.opts
						opts.Strategy, opts.PredEval = strat, PredJoin
						for via, run := range map[string]func() (ExecResult, error){
							"facade": func() (ExecResult, error) { return v.db.QueryCtx(ctx, path, opts) },
							"engine": func() (ExecResult, error) { return ses.Do(ctx, path, opts) },
						} {
							res, err := run()
							if err != nil {
								t.Fatal(err)
							}
							got := nodeKeys(res.Nodes)
							label := fmt.Sprintf("%s round %d: %s [%v, %s, %s]", v.name, round, path, strat, m.name, via)
							switch {
							case m.limit && m.opts.Sorted:
								if n := min(3, len(want)); !slices.Equal(got, want[:n]) {
									t.Fatalf("%s: %v, nested's first %d %v", label, got, n, want[:n])
								}
							case m.limit:
								if len(got) != min(3, len(want)) || slices.ContainsFunc(got, func(k string) bool { return !slices.Contains(want, k) }) {
									t.Fatalf("%s: %v is not %d of nested's nodes", label, got, min(3, len(want)))
								}
							case m.opts.Sorted:
								if !slices.Equal(got, want) {
									t.Fatalf("%s: %d nodes, nested %d", label, len(got), len(want))
								}
							default:
								slices.Sort(got)
								sorted := slices.Clone(want)
								slices.Sort(sorted)
								if !slices.Equal(got, sorted) {
									t.Fatalf("%s: %d nodes, nested %d", label, len(got), len(want))
								}
							}
						}
					}
				}
			}
		}
		eng.Close()
		t.Logf("%s: %d of %d branches read from levels, %d of %d references non-empty", v.name, levelReads, branches, nonEmpty, 15*len(v.paths))
		if levelReads == 0 || levelReads == branches || nonEmpty < 15*len(v.paths)/4 {
			t.Fatalf("%s: %d of %d branches read from levels, %d of %d references non-empty: the draw tests little",
				v.name, levelReads, branches, nonEmpty, 15*len(v.paths))
		}
	}
}

// TestLevelReadRootsOnly: the level read applies only where its rule does
// — contexts at the volume roots, name tests and child and descendant axes
// on every step, and a predicate on the last step only; elsewhere the
// predicate's XJoin is fed by navigation.
func TestLevelReadRootsOnly(t *testing.T) {
	db := engineFixture(t)
	st := db.store
	people := mustOne(t, db, "/site/people")
	for _, c := range []struct {
		src      string
		contexts []Node
		want     bool
	}{
		{"/site//item[mailbox/mail//keyword]", nil, true},
		{"/site//item[mailbox][name]", nil, true},
		{"/site//item[mailbox]/name", nil, false},
		{"/site/regions[.//item]//item[mailbox]", nil, false},
		{"person[profile/interest]", []Node{people}, false},
		{"/site//*[mailbox]", nil, false},
		{"/site//mail/parent::mailbox[mail]", nil, false},
		{"/site/regions/europe/item[mailbox]/following-sibling::item[name]", nil, false},
	} {
		steps := xpath.MustParse(db.dict, c.src).Simplify().Steps
		roots := st.Roots()
		if c.contexts != nil {
			roots = nil
			for _, n := range c.contexts {
				roots = append(roots, n.id)
			}
		}
		if got := core.BuildPlan(st, steps, roots, core.StrategySimple, core.PlanOptions{PredEval: core.PredJoin}).LevelRead(); got != c.want {
			t.Errorf("%s: reads from levels %v, want %v", c.src, got, c.want)
		}
	}
}
