package pathdb

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"pathdb/internal/core"
	"pathdb/internal/ordpath"
	"pathdb/internal/rng"
	"pathdb/internal/storage"
	"pathdb/internal/xpath"
)

// xmarkTags are the XMark element names the random downward paths draw from.
var xmarkTags = []string{"site", "regions", "europe", "item", "description", "parlist", "listitem",
	"text", "keyword", "emph", "people", "person", "name", "closed_auction", "annotation", "mailbox", "mail"}

// shapeVolume is a volume the path-shape rule is checked on, with the tag
// alphabet and the attribute name its random paths draw from.
type shapeVolume struct {
	name       string
	db         *DB
	root, attr string
	tags       []string
}

// shapeVolumes: XMark; a random document on 512-byte clusters whose
// subtrees updates chain across many clusters (a saturated child list,
// deletes, inserts before existing children); a collection of several
// documents, whose roots are the contexts.
func shapeVolumes(t *testing.T) []shapeVolume {
	t.Helper()
	r := rng.New(25)
	stressed, err := LoadXMLString(randDoc(r), Options{PageSize: 512, Layout: Shuffled, LayoutSeed: 5})
	if err != nil {
		t.Fatal(err)
	}
	// Relocations invalidate handles: every operation re-resolves its nodes.
	update := func(fn func(tx *Tx, root Node, kids []Node) error) {
		t.Helper()
		q, err := stressed.Query("/r/*")
		if err != nil {
			t.Fatal(err)
		}
		root, kids := mustOne(t, stressed, "/r"), q.Nodes()
		if err := stressed.Update(func(tx *Tx) error { return fn(tx, root, kids) }); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 150; i++ {
		update(func(tx *Tx, root Node, _ []Node) error {
			_, err := tx.InsertXML(root, fmt.Sprintf(`<b k="%d"><c>t0</c><a><b/></a></b>`, i))
			return err
		})
	}
	for i := 0; i < 40; i++ {
		update(func(tx *Tx, _ Node, kids []Node) error { return tx.Delete(kids[(i*7)%len(kids)]) })
	}
	// Inserts before existing children go where an ordinal is free to the
	// left: a second insert into one gap gets a key inside the left
	// sibling's subtree (ordpath.Between; ROADMAP), and keys then disagree
	// with the document order every plan navigates.
	free := func(left, right Node) bool {
		l, r := ordpath.Key(left.OrdKey()).Components(), ordpath.Key(right.OrdKey()).Components()
		return len(l) == len(r) && r[len(r)-1]-l[len(l)-1] >= 2
	}
	for i := 0; i < 30; i++ {
		update(func(tx *Tx, root Node, kids []Node) error {
			j := 1 + (i*11)%(len(kids)-1)
			for !free(kids[j-1], kids[j]) {
				j = 1 + j%(len(kids)-1)
			}
			_, err := tx.InsertXMLBefore(root, kids[j], `<d k="v"><a>t1</a></d>`)
			return err
		})
	}
	docs := make([][]byte, 4)
	for i := range docs {
		docs[i] = []byte(randDoc(r))
	}
	coll, err := LoadXMLCollection(docs, Options{PageSize: 1024})
	if err != nil {
		t.Fatal(err)
	}
	return []shapeVolume{
		{"xmark", engineFixture(t), "site", "id", xmarkTags},
		{"stressed", stressed, "r", "k", propTags},
		{"collection", coll, "r", "k", propTags},
	}
}

// randDownwardPath draws an absolute path of one to four downward steps —
// child, '//', descendant, self and attribute, over names and '*' — with
// occasional predicates. Half of them start at the root element.
func randDownwardPath(r *rng.RNG, v shapeVolume) string {
	tag := func() string { return v.tags[r.Intn(len(v.tags))] }
	attr := v.attr
	var b strings.Builder
	if r.Bool(0.5) {
		b.WriteString("/" + v.root)
	}
	for i, n := 0, r.IntRange(1, 3); i < n; i++ {
		if r.Bool(0.5) {
			b.WriteString("//")
		} else {
			b.WriteString("/")
		}
		switch r.Intn(10) {
		case 0:
			b.WriteString("*")
		case 1:
			b.WriteString("@" + attr)
		case 2:
			b.WriteString("self::" + tag())
		case 3:
			b.WriteString("descendant::" + tag())
		default:
			b.WriteString(tag())
		}
		if r.Bool(0.25) {
			switch r.Intn(3) {
			case 0:
				b.WriteString("[" + tag() + "]")
			case 1:
				b.WriteString("[.//" + tag() + "]")
			default:
				b.WriteString("[@" + attr + "]")
			}
		}
	}
	return b.String()
}

// rawChain is a Simple plan's border-crossing step chain alone, without the
// Distinct and the sort the shape rule decides about.
func rawChain(st *storage.Store, path []xpath.Step, pe core.PredEval) (*core.EvalState, core.Operator) {
	es := core.NewEvalState(st, path)
	op := core.Operator(core.NewContextOp(es, st.Roots()))
	for i := 1; i <= len(path); i++ {
		xs := core.NewXStep(es, op, i)
		xs.CrossBorders = true
		op = xs
		if len(path[i-1].Predicates) > 0 {
			if pe == core.PredJoin {
				op = core.NewXJoin(es, op, i)
			} else {
				op = core.NewPredFilter(es, op, i)
			}
		}
	}
	return es, op
}

func drainOp(op core.Operator) []core.Result {
	op.Open()
	defer op.Close()
	var out []core.Result
	for inst, ok := op.Next(); ok; inst, ok = op.Next() {
		out = append(out, core.Result{Node: inst.NR, Ord: inst.Ord})
	}
	return out
}

// shapeOracle is the plan the rule replaces: the chain, Distinct, sort.
func shapeOracle(st *storage.Store, path []xpath.Step, pe core.PredEval) []core.Result {
	es, op := rawChain(st, path, pe)
	return drainOp(core.NewSortByDocumentOrder(es, core.NewDistinct(es, op)))
}

func hasDuplicate(rs []core.Result) bool {
	seen := make(map[storage.NodeID]bool, len(rs))
	for _, r := range rs {
		if seen[r.Node] {
			return true
		}
		seen[r.Node] = true
	}
	return false
}

// inDocOrder reports whether rs is in document order, which is when
// ordpath.SortStable would move nothing.
func inDocOrder(rs []core.Result) bool {
	return slices.IsSortedFunc(rs, func(a, b core.Result) int { return ordpath.Compare(a.Ord, b.Ord) })
}

// TestPathShapeProperty checks core.PathShape on random downward paths,
// under both predicate evaluators, on the three shape volumes: where it
// says dup-free the Simple plan has no Distinct and yields no node twice,
// where it says ordered the plan has no sort and its output is already in
// document order (sorting it moves nothing), and every output equals the
// Distinct + sort oracle once sorted. A join plan that reads its path from
// levels claims at least as much as PathShape, and is held to its own
// claims. Two named witnesses keep the rule from being vacuous: what it
// rejects really does go wrong on XMark.
func TestPathShapeProperty(t *testing.T) {
	vols := shapeVolumes(t)
	for vi, v := range vols {
		st := v.db.store
		r := rng.New(7 + uint64(vi))
		var dupFree, ordered, nonEmpty, levelRead int
		for trial := 0; trial < 150; trial++ {
			src := randDownwardPath(r, v)
			path := xpath.MustParse(v.db.dict, src).Simplify().Steps
			df, ord := core.PathShape(path)
			for _, pe := range []core.PredEval{core.PredNested, core.PredJoin} {
				label := fmt.Sprintf("%s %s [%v]", v.name, src, pe)
				p := core.BuildPlan(st, path, st.Roots(), core.StrategySimple, core.PlanOptions{PredEval: pe})
				got := p.Run()
				_, distinct := p.Root().(*core.Distinct)
				// A plan that reads its path from levels may claim more than
				// PathShape, never less; its own claims are held against
				// its output.
				if p.LevelRead() {
					levelRead++
					if ord && !p.Ordered || df && distinct {
						t.Fatalf("%s: level read claims Ordered=%v Distinct=%v, weaker than PathShape (%v, %v)", label, p.Ordered, distinct, df, ord)
					}
				} else if p.Ordered != ord || distinct == df {
					t.Fatalf("%s: plan Ordered=%v Distinct=%v, PathShape (%v, %v)", label, p.Ordered, distinct, df, ord)
				}
				if !distinct && hasDuplicate(got) {
					t.Fatalf("%s: no Distinct, yet a node comes twice", label)
				}
				if p.Ordered && !inDocOrder(got) {
					t.Fatalf("%s: ordered by its plan, yet out of document order", label)
				}
				want := shapeOracle(st, path, pe)
				core.SortResults(got)
				if !slices.EqualFunc(got, want, func(a, b core.Result) bool { return a.Node == b.Node }) {
					t.Fatalf("%s: %d nodes, the Distinct + sort oracle %d", label, len(got), len(want))
				}
				if len(got) > 0 && pe == core.PredNested {
					nonEmpty++
				}
			}
			if df {
				dupFree++
			}
			if ord {
				ordered++
			}
		}
		t.Logf("%s: %d dup-free, %d ordered, %d non-empty of 150 paths, %d join plans read levels", v.name, dupFree, ordered, nonEmpty, levelRead)
		if dupFree == 150 || ordered == 0 || nonEmpty < 30 || levelRead < 10 {
			t.Fatalf("%s: the draw exercises too little (%d dup-free, %d ordered, %d non-empty, %d level reads)", v.name, dupFree, ordered, nonEmpty, levelRead)
		}
	}

	// The witnesses run the bare chain: what the rule rejects goes wrong.
	xm := vols[0].db
	for src, want := range map[string]string{"/site//parlist/listitem": "out of order", "/site//parlist//listitem": "duplicates"} {
		path := xpath.MustParse(xm.dict, src).Simplify().Steps
		_, raw := rawChain(xm.store, path, core.PredNested)
		rs := drainOp(raw)
		df, ord := core.PathShape(path)
		switch {
		case want == "out of order" && (!df || ord || inDocOrder(rs)):
			t.Fatalf("%s: PathShape (%v, %v); bare chain in order: %v — want dup-free, unordered, and out of order", src, df, ord, inDocOrder(rs))
		case want == "duplicates" && (df || !hasDuplicate(rs)):
			t.Fatalf("%s: PathShape dup-free=%v; bare chain duplicates: %v — want both to say duplicates", src, df, hasDuplicate(rs))
		}
	}
}
