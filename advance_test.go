package pathdb

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

	"pathdb/internal/core"
	"pathdb/internal/ordpath"
	"pathdb/internal/rng"
	"pathdb/internal/storage"
	"pathdb/internal/xpath"
)

// freshLevel is the level of test (a name, or @name) as a first join builds
// it at the store's current version: every node the whole-document Simple
// plan finds, sorted by key, with string values when vals is set. It also
// returns the level's key in the derived cache.
func freshLevel(db *DB, test string, vals bool) (string, *storage.Level) {
	st := db.store
	steps := xpath.MustParse(db.dict, "//"+test).Simplify().Steps
	rs := core.BuildPlan(st, steps, st.Roots(), core.StrategySimple, core.PlanOptions{}).Run()
	core.SortResults(rs)
	lv := &storage.Level{}
	for _, r := range rs {
		lv.Ords, lv.IDs = append(lv.Ords, r.Ord), append(lv.IDs, r.Node)
		if vals {
			lv.Vals = st.AppendStringValue(lv.Vals, r.Node)
			lv.Ends = append(lv.Ends, uint32(len(lv.Vals)))
		}
	}
	return core.LevelKey(db.dict, steps[len(steps)-1]), lv
}

// advanceVolume is a volume TestLevelAdvanceMatchesBuild commits to: the
// predicate paths it joins, the level tests they read (true: the level
// carries string values, a path compares a literal against it), and one
// commit of its seeded mix per call.
type advanceVolume struct {
	name   string
	db     *DB
	paths  []string
	levels map[string]bool
	commit func(i int) string
}

// update commits fn over nodes resolved afresh: relocations invalidate
// handles, so every operation finds its targets by path. They are resolved
// by navigation (forced Simple), so finding them builds no level.
func update(t *testing.T, db *DB, fn func(tx *Tx, nodes func(path string) []Node) error) {
	t.Helper()
	nodes := func(path string) []Node {
		q, err := db.Query(path)
		if err != nil {
			t.Fatal(err)
		}
		return q.WithStrategy(Simple).Nodes()
	}
	if err := db.Update(func(tx *Tx) error { return fn(tx, nodes) }); err != nil {
		t.Fatal(err)
	}
}

func advanceVolumes(t *testing.T) []advanceVolume {
	r := rng.New(28)
	pick := func(ns []Node) Node { return ns[r.Intn(len(ns))] }
	// before inserts frag twice into the gap before a child picked at
	// random, the first child included: before the child, then before the
	// first insert.
	before := func(tx *Tx, parent Node, kids []Node, frag string) error {
		n, err := tx.InsertXMLBefore(parent, pick(kids), frag)
		if err == nil {
			_, err = tx.InsertXMLBefore(parent, n, frag)
		}
		return err
	}

	// fill commits eight inserts, each under the next of the nodes on the
	// page holding most of them: their proxies crowd the page until one does
	// not fit and makeRoom relocates a subtree.
	fill := func(db *DB, path, frag string) {
		for k := 0; k < 8; k++ {
			update(t, db, func(tx *Tx, nodes func(string) []Node) error {
				by, best := map[uint64][]Node{}, uint64(0)
				for _, n := range nodes(path) {
					p := n.ID() >> 32
					if by[p] = append(by[p], n); len(by[p]) > len(by[best]) {
						best = p
					}
				}
				_, err := tx.InsertXML(by[best][k%len(by[best])], frag)
				return err
			})
		}
	}

	// deep returns the elements below the ones path selects, or those when
	// they have none: text inserted there changes their string values,
	// often from a page that holds none of them.
	deep := func(nodes func(string) []Node, path string) []Node {
		if ns := nodes(path + "//*"); len(ns) > 0 {
			return ns
		}
		return nodes(path)
	}

	xm := engineFixture(t)
	xmark := advanceVolume{
		name: "xmark", db: xm,
		paths: []string{
			"/site//item[mailbox/mail//keyword]",
			"/site//parlist[(listitem/parlist){1,2}]",
			`/site//item[.//keyword="moved"]`,
			`/site//closed_auction[annotation//keyword="moved"]`,
			"/site//item[mailbox/mail//keyword] | /site//open_auction[annotation//keyword]",
		},
		levels: map[string]bool{"mailbox": false, "mail": false, "keyword": true, "parlist": false, "listitem": false, "annotation": false},
	}
	xmark.commit = func(i int) string {
		op := []string{"append", "text", "delete", "fill"}[i%4]
		if i == 21 {
			op = "before"
		}
		if op == "fill" {
			fill(xm, "/site//keyword", `<emph>moved</emph>`)
			return op
		}
		update(t, xm, func(tx *Tx, nodes func(string) []Node) error {
			var err error
			switch op {
			case "append":
				_, err = tx.InsertXML(pick(nodes("/site/regions//item")),
					`<mailbox><mail><text>a <keyword>moved</keyword></text></mail></mailbox>`)
			case "text":
				_, err = tx.InsertXML(pick(deep(nodes, "/site//keyword")), `<emph>moved</emph>`)
			case "delete":
				if i != 6 {
					return tx.Delete(pick(nodes("/site/regions//item")))
				}
				region := nodes("/site/regions/namerica")[0]
				q, _ := region.Query(".//*")
				pages := map[uint64]bool{}
				for _, n := range q.WithStrategy(Simple).Nodes() {
					pages[n.ID()>>32] = true
				}
				if len(pages) < 3 {
					t.Fatalf("the region spans %d clusters", len(pages))
				}
				err = tx.Delete(region)
			case "before":
				kids := nodes("/site/regions/europe/item")
				err = before(tx, nodes("/site/regions/europe")[0], kids, `<item><mailbox><mail><keyword>moved</keyword></mail></mailbox></item>`)
			}
			return err
		})
		return op
	}

	st, err := LoadXMLString(randDoc(r), Options{PageSize: 512, Layout: Shuffled, LayoutSeed: 5})
	if err != nil {
		t.Fatal(err)
	}
	stressed := advanceVolume{
		name: "stressed", db: st,
		paths:  []string{`/r[.//a="t1"]`, `/r//b[c="t0"]`, "//a[b//c]", `//d[.//a="t1"]`, "//e[@k]", "//b[(a/b){1,2}]", `//c[@k="v"]`},
		levels: map[string]bool{"a": true, "b": false, "c": true, "@k": true},
	}
	stressed.commit = func(i int) string {
		op := []string{"append", "text", "delete", "fill"}[i%4]
		if i == 21 {
			op = "before"
		}
		if op == "fill" {
			fill(st, "/r//*", `<d><a>t1</a></d>`)
			return op
		}
		update(t, st, func(tx *Tx, nodes func(string) []Node) error {
			var err error
			switch op {
			case "append":
				_, err = tx.InsertXML(pick(nodes("/r//*")), fmt.Sprintf(`<b k="%d"><c>t0</c><a><b/></a></b>`, i))
			case "text":
				_, err = tx.InsertXML(pick(deep(nodes, "//c")), `<e>t1</e>`)
			case "delete":
				err = tx.Delete(pick(nodes("/r/*/*")))
			case "before":
				err = before(tx, nodes("/r")[0], nodes("/r/*"), `<d k="v"><a>t1</a></d>`)
			}
			return err
		})
		return op
	}
	return []advanceVolume{xmark, stressed}
}

// TestLevelAdvanceMatchesBuild commits a seeded mix to two volumes — appends
// of fragments carrying level tags, text under (the descendants of) an
// element a literal level compares, subtree deletes across clusters, inserts
// crowding one page until it relocates subtrees (makeRoom), two inserts
// into one gap before an existing child — and after every commit holds each level the joins read
// to a fresh build at the same version, byte for byte: keys, NodeIDs and
// string-value slab, advanced and never rebuilt. Every path's join result
// equals nested.
func TestLevelAdvanceMatchesBuild(t *testing.T) {
	for _, v := range advanceVolumes(t) {
		db := v.db
		check := func(step string) {
			for _, path := range v.paths {
				if join, nested := joinFingerprint(t, db, path, Simple, PredJoin), joinFingerprint(t, db, path, Simple, PredNested); join != nested {
					t.Fatalf("%s %s: %s join differs from nested", v.name, step, path)
				}
			}
		}
		check("before any commit") // builds every level
		builds := db.DerivedMetrics().LevelBuilds
		prev := map[string]*storage.Level{}
		relocated, ops := 0, map[string]int{}
		for i := 0; i < 40; i++ {
			op := v.commit(i)
			ops[op]++
			check(fmt.Sprintf("commit %d (%s)", i, op))
			dc, epoch, _ := db.store.Derived()
			for test, vals := range v.levels {
				key, want := freshLevel(db, test, vals)
				got, ok := dc.Get(epoch, key)
				if !ok {
					t.Fatalf("%s commit %d (%s): level %s not resident: %+v", v.name, i, op, test, db.DerivedMetrics())
				}
				lv := got.(*storage.Level)
				if vals != (lv.Ends != nil) || !slices.EqualFunc(lv.Ords, want.Ords, func(a, b ordpath.Key) bool { return bytes.Equal(a, b) }) ||
					!slices.Equal(lv.IDs, want.IDs) || !bytes.Equal(lv.Vals, want.Vals) || !slices.Equal(lv.Ends, want.Ends) {
					t.Fatalf("%s commit %d (%s): advanced level %s (%d entries) differs from a fresh build (%d)", v.name, i, op, test, len(lv.IDs), len(want.IDs))
				}
				// A node that kept its key under a new NodeID was relocated.
				if was := prev[test]; was != nil {
					for k, ord := range lv.Ords {
						if j, found := slices.BinarySearchFunc(was.Ords, ord, ordpath.Compare); found && was.IDs[j] != lv.IDs[k] {
							relocated++
						}
					}
				}
				prev[test] = lv
			}
		}
		m := db.DerivedMetrics()
		t.Logf("%s: %v commits, %d relocated entries, %+v", v.name, ops, relocated, m)
		if m.LevelBuilds != builds || m.GenerationsDropped != 0 || relocated == 0 {
			t.Fatalf("%s: %d level builds after the first round, %d generations dropped, %d relocated entries",
				v.name, m.LevelBuilds-builds, m.GenerationsDropped, relocated)
		}
	}
}
