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
	name string
	opts QueryOptions
}{
	{"sorted", QueryOptions{Sorted: true}},
	{"unsorted", QueryOptions{}},
	{"sorted limit 3", QueryOptions{Sorted: true, Limit: 3}},
	{"unsorted limit 3", QueryOptions{Limit: 3}},
}

// checkMode holds got, delivered under opts, to the reference want (in
// document order): a sorted answer equals it, a limited one is its first
// nodes when sorted or as many of its nodes otherwise, an unsorted one is
// the same set.
func checkMode(t *testing.T, label string, opts QueryOptions, got, want []string) {
	t.Helper()
	switch n := min(opts.Limit, len(want)); {
	case opts.Limit > 0 && opts.Sorted:
		if !slices.Equal(got, want[:n]) {
			t.Fatalf("%s: %v, the reference's first %d %v", label, got, n, want[:n])
		}
	case opts.Limit > 0:
		if len(got) != n || slices.ContainsFunc(got, func(k string) bool { return !slices.Contains(want, k) }) {
			t.Fatalf("%s: %v is not %d of the reference's nodes", label, got, n)
		}
	case opts.Sorted:
		if !slices.Equal(got, want) {
			t.Fatalf("%s: %d nodes, the reference %d", label, len(got), len(want))
		}
	default:
		got, want = slices.Clone(got), slices.Clone(want)
		slices.Sort(got)
		slices.Sort(want)
		if !slices.Equal(got, want) {
			t.Fatalf("%s: %d nodes, the reference %d", label, len(got), len(want))
		}
	}
}

// appendDelete returns a volume's commit for round: odd rounds append frag
// under the first parent node, even rounds delete the last victim node.
func appendDelete(parent, frag, victim string) func(t *testing.T, db *DB, round int) {
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
	vols := []volume{
		{"xmark", xm, xmPaths, xmReads, appendDelete("/site/regions/europe",
			`<item><mailbox><mail><keyword>soul</keyword></mail></mailbox><description><parlist><listitem><parlist/></listitem></parlist></description></item>`,
			"/site/regions/europe/item")},
		{"collection", coll, collPaths, collReads, appendDelete("/r", `<a><b><c>t0</c></b><d><e>t0</e></d></a>`, "/r/a")},
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
							checkMode(t, fmt.Sprintf("%s round %d: %s [%v, %s, %s]", v.name, round, path, strat, m.name, via), m.opts, nodeKeys(res.Nodes), want)
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

// flatPaths are the seven predicate-free paths of the benchmark's flat mix
// (benchmark/workloads.go): Q6′, Q7's three, Q15 and two child paths.
var flatPaths = []string{
	"/site/regions//item", "/site//description", "/site//annotation", "/site//emailaddress",
	"/site/closed_auctions/closed_auction/annotation/description/parlist/listitem/parlist/listitem/text/emph/keyword",
	"/site/people/person/name", "/site/open_auctions/open_auction/bidder/increase",
}

// randFlatPath draws a predicate-free absolute path: the root element, then
// one to three child or '//' steps over names.
func randFlatPath(r *rng.RNG, root string, tags []string) string {
	var b strings.Builder
	b.WriteString("/" + root)
	for n := r.IntRange(1, 3); n > 0; n-- {
		if r.Bool(0.5) {
			b.WriteString("//")
		} else {
			b.WriteString("/")
		}
		b.WriteString(tags[r.Intn(len(tags))])
	}
	return b.String()
}

// TestFlatLevelReadDifferential holds Auto reads of predicate-free paths to
// forced-Simple navigation — the flat mix and random paths on XMark, random
// paths on a three-document collection — sorted, unsorted and limited,
// through the facade and the engine, on the fresh volume and after commits
// that append and delete subtrees. On the resident pool Auto reads every
// path with a '//' step from levels, which looks them up in the derived
// cache, and navigates the child-only ones, which look nothing up; forced
// strategies navigate them all. A stream cancelled after its first nodes
// has delivered the first nodes in document order and fails as cancelled.
func TestFlatLevelReadDifferential(t *testing.T) {
	ctx := context.Background()
	r := rng.New(36)
	docs := make([][]byte, 3)
	for i := range docs {
		docs[i] = []byte(randDoc(r))
	}
	coll, err := LoadXMLCollection(docs, Options{PageSize: 1024})
	if err != nil {
		t.Fatal(err)
	}
	xmPaths := slices.Clone(flatPaths)
	for i := 0; i < 8; i++ {
		xmPaths = append(xmPaths, randFlatPath(r, "site", xmarkTags))
	}
	var collPaths []string
	for i := 0; i < 12; i++ {
		collPaths = append(collPaths, randFlatPath(r, "r", propTags))
	}
	vols := []struct {
		name   string
		db     *DB
		paths  []string
		commit func(t *testing.T, db *DB, round int)
	}{
		{"xmark", engineFixture(t), xmPaths, appendDelete("/site/regions/europe",
			`<item><name>flat</name><description><text>flat</text></description><annotation><description/></annotation></item>`,
			"/site/regions/europe/item")},
		{"collection", coll, collPaths, appendDelete("/r", `<a><b><c>t0</c></b><d><e>t0</e></d></a>`, "/r/a")},
	}
	lookups := func(db *DB) uint64 { m := db.DerivedMetrics(); return m.Hits + m.Misses }
	for _, v := range vols {
		eng := v.db.NewEngine(EngineConfig{})
		loadAll(v.db)
		ses := eng.NewSession()
		levelReads, navigated := 0, 0
		for round := 0; round <= 4; round++ {
			if round > 0 {
				v.commit(t, v.db, round)
			}
			for _, path := range v.paths {
				ref, err := v.db.QueryCtx(ctx, path, QueryOptions{Sorted: true, Strategy: Simple})
				if err != nil {
					t.Fatal(err)
				}
				want := nodeKeys(ref.Nodes)
				levels := strings.Contains(path, "//")
				for _, m := range levelReadModes {
					for via, run := range map[string]func(QueryOptions) (ExecResult, error){
						"facade": func(o QueryOptions) (ExecResult, error) { return v.db.QueryCtx(ctx, path, o) },
						"engine": func(o QueryOptions) (ExecResult, error) { return ses.Do(ctx, path, o) },
					} {
						label := fmt.Sprintf("%s round %d: %s [%s, %s]", v.name, round, path, m.name, via)
						before := lookups(v.db)
						res, err := run(m.opts)
						if err != nil {
							t.Fatal(err)
						}
						if read := lookups(v.db) != before; read != levels {
							t.Fatalf("%s: reads from levels %v, want %v (choice %+v)", label, read, levels, res.Choice)
						}
						checkMode(t, label, m.opts, nodeKeys(res.Nodes), want)
						if levels {
							levelReads++
						} else {
							navigated++
						}
					}
				}
				for _, strat := range joinDiffStrategies {
					before := lookups(v.db)
					if _, err := v.db.QueryCtx(ctx, path, QueryOptions{Strategy: strat}); err != nil {
						t.Fatal(err)
					}
					if _, err := ses.Do(ctx, path, QueryOptions{Strategy: strat}); err != nil {
						t.Fatal(err)
					}
					if lookups(v.db) != before {
						t.Fatalf("%s round %d: %s forced %v reads from levels", v.name, round, path, strat)
					}
				}
				if !levels || len(want) < 3 {
					continue
				}
				cctx, cancel := context.WithCancel(ctx)
				cur, err := v.db.QueryStream(cctx, path, QueryOptions{})
				if err != nil {
					t.Fatal(err)
				}
				var first []Node
				for len(first) < 2 && cur.Next() {
					first = append(first, cur.Node())
				}
				cancel()
				for cur.Next() {
				}
				if got := nodeKeys(first); !slices.Equal(got, want[:2]) || KindOf(cur.Err()) != KindCanceled {
					t.Fatalf("%s round %d: %s cancelled after %v (err %v), want %v and a cancellation", v.name, round, path, got, cur.Err(), want[:2])
				}
				cur.Close()
			}
		}
		eng.Close()
		t.Logf("%s: %d reads from levels, %d navigated", v.name, levelReads, navigated)
		if levelReads == 0 || navigated == 0 {
			t.Fatalf("%s: %d reads from levels, %d navigated: the draw tests little", v.name, levelReads, navigated)
		}
	}
}
