package pathdb

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"pathdb/internal/ordpath"
	"pathdb/internal/storage"
	"pathdb/internal/xpath"
)

// diffPaths exercises every supported axis and node-test kind: the
// benchmark queries (Q6', the Q7 family, Q15) plus steps that force the
// reverse axes, sibling axes, wildcard, attribute, and kind tests through
// the bitmap-batched navigation and the per-node reference walk.
var diffPaths = []string{
	"/site/regions//item", // Q6'
	"/site//description",  // Q7
	"/site//annotation",   // Q7
	"/site//emailaddress", // Q7
	"/site/closed_auctions/closed_auction/annotation/description/parlist/listitem/parlist/listitem/text/emph/keyword", // Q15
	"/site/regions/*",                                   // wildcard child
	"/site/regions/europe/item/@id",                     // attribute axis
	"/site//keyword/ancestor::listitem",                 // ancestor
	"/site//parlist/ancestor-or-self::*",                // ancestor-or-self + wildcard
	"/site//parlist/parent::description",                // parent
	"/site/regions/europe/item/following-sibling::item", // following-sibling
	"/site/regions/europe/item/preceding-sibling::*",    // preceding-sibling
	"/site//description/self::description",              // self
	"/site//emph/text()",                                // text() kind test
	"/site/people/person/node()",                        // node() kind test
	"/site/regions/europe/item/descendant::keyword",     // verbose descendant
	"/site/open_auctions/open_auction//node()",          // descendant-or-self + node()
}

// renderNodes is the byte-exact rendition the differential compares: node
// identity, document-order position and name, one line per node.
func renderNodes(nodes []Node) string {
	var b strings.Builder
	for _, n := range nodes {
		fmt.Fprintf(&b, "%d|%s|%s\n", n.ID(), n.OrdPath(), n.Name())
	}
	return b.String()
}

// fingerprint runs path with the given strategy and renders the sorted
// result set.
func fingerprint(t *testing.T, db *DB, path string, strat Strategy) string {
	t.Helper()
	res, err := db.QueryCtx(context.Background(), path, QueryOptions{Sorted: true, Strategy: strat})
	if err != nil {
		t.Fatalf("%s [%v]: %v", path, strat, err)
	}
	return renderNodes(res.Nodes)
}

// perNodeNav is the reference the bitmap-batched navigation is checked
// against: the node-at-a-time walk of the paper's system. Every axis is
// spelled out over two primitives — a record's child list and its parent
// pointer, each followed across cluster borders — and every candidate is
// tested on its own with NodeTest.Matches. It asks Store.Step only for
// those one-level lists, under node(), so it shares none of the pre-order
// ranges, tag bitsets and test masks that Step answers name tests and the
// descendant axes with.
type perNodeNav struct{ st *storage.Store }

func (o perNodeNav) list(c storage.Cursor, axis xpath.Axis, test xpath.NodeTest) []storage.Cursor {
	it := o.st.Step(c, axis, test)
	defer it.Release()
	var out []storage.Cursor
	for {
		r, ok := it.Next()
		if !ok {
			return out
		}
		out = append(out, r)
	}
}

// children returns c's logical children in document order.
func (o perNodeNav) children(c storage.Cursor) []storage.Cursor {
	var out []storage.Cursor
	for _, k := range o.list(c, xpath.Child, xpath.AnyNode()) {
		if k.IsBorder() {
			out = append(out, o.children(o.st.Swizzle(k.Target()))...)
		} else {
			out = append(out, k)
		}
	}
	return out
}

// parent returns c's logical parent; ok is false on the document node.
func (o perNodeNav) parent(c storage.Cursor) (storage.Cursor, bool) {
	for {
		up := o.list(c, xpath.Parent, xpath.AnyNode())
		if len(up) == 0 {
			return storage.Cursor{}, false
		}
		if !up[0].IsBorder() {
			return up[0], true
		}
		c = o.st.Swizzle(up[0].Target())
	}
}

func (o perNodeNav) descendants(c storage.Cursor, out []storage.Cursor) []storage.Cursor {
	for _, k := range o.children(c) {
		out = o.descendants(k, append(out, k))
	}
	return out
}

// axis enumerates one axis from c, untested.
func (o perNodeNav) axis(c storage.Cursor, axis xpath.Axis) []storage.Cursor {
	switch axis {
	case xpath.Self:
		return []storage.Cursor{c}
	case xpath.Child:
		return o.children(c)
	case xpath.Descendant:
		return o.descendants(c, nil)
	case xpath.DescendantOrSelf:
		return o.descendants(c, []storage.Cursor{c})
	case xpath.Parent, xpath.Ancestor, xpath.AncestorOrSelf:
		var out []storage.Cursor
		if axis == xpath.AncestorOrSelf {
			out = append(out, c)
		}
		for p, ok := o.parent(c); ok; p, ok = o.parent(p) {
			out = append(out, p)
			if axis == xpath.Parent {
				break
			}
		}
		return out
	case xpath.FollowingSibling, xpath.PrecedingSibling:
		p, ok := o.parent(c)
		if !ok {
			return nil
		}
		sibs := o.children(p)
		for i, s := range sibs {
			if s.ID() == c.ID() {
				if axis == xpath.FollowingSibling {
					return sibs[i+1:]
				}
				return sibs[:i]
			}
		}
	}
	panic(fmt.Sprintf("perNodeNav: axis %v", axis))
}

// eval evaluates an absolute, predicate-free path and renders the result
// like fingerprint does: duplicate-free, in document order.
func (o perNodeNav) eval(db *DB, path string) string {
	ctx := []storage.Cursor{o.st.Swizzle(o.st.Root())}
	for _, step := range xpath.MustParse(db.dict, path).Steps {
		var next []storage.Cursor
		seen := map[storage.NodeID]bool{}
		for _, c := range ctx {
			var cands []storage.Cursor
			if step.Axis == xpath.AttributeAxis {
				// Attributes are enumerated per node in production too.
				cands = o.list(c, step.Axis, step.Test)
			} else {
				for _, r := range o.axis(c, step.Axis) {
					if step.Test.Matches(r.Kind(), r.Tag()) {
						cands = append(cands, r)
					}
				}
			}
			for _, r := range cands {
				if !seen[r.ID()] {
					seen[r.ID()] = true
					next = append(next, r)
				}
			}
		}
		ctx = next
	}
	nodes := make([]Node, len(ctx))
	for i, c := range ctx {
		nodes[i] = Node{db: db, id: c.ID(), ord: c.OrdKey()}
	}
	ordpath.SortStable(nodes, func(n *Node) ordpath.Key { return n.ord })
	return renderNodes(nodes)
}

// TestBitmapNavDifferential pins the correctness contract of the
// cluster-resident name-test bitmaps (batched navigation plus cluster
// skipping): for every axis and node-test kind, under both physical
// strategies, the result set is byte-identical to the per-node reference
// walk — on the freshly loaded volume, and again after a batch of mixed
// writes has rewritten clusters and invalidated synopses.
func TestBitmapNavDifferential(t *testing.T) {
	t.Parallel()
	db := engineFixture(t)

	compare := func(label string) {
		t.Helper()
		oracle := perNodeNav{db.store}
		nonEmpty := 0
		for _, p := range diffPaths {
			want := oracle.eval(db, p)
			// Simple drops its Distinct and sort where the path's shape
			// allows; XSchedule and XScan dedup in XAssembly's R regardless.
			for _, strat := range []Strategy{Simple, Schedule, Scan} {
				if got := fingerprint(t, db, p, strat); got != want {
					t.Errorf("%s: %s [%v] diverges from the per-node walk:\nref %d bytes, got %d bytes",
						label, p, strat, len(want), len(got))
				}
			}
			if want != "" {
				nonEmpty++
			}
		}
		if nonEmpty < len(diffPaths)/2 {
			t.Fatalf("%s: only %d/%d differential queries matched nodes; fixture too small to be meaningful", label, nonEmpty, len(diffPaths))
		}
	}

	compare("fresh volume")

	// Mixed writes: grow some clusters (insert), shrink others (delete),
	// across several commits so page epochs advance and synopses rebuild.
	regions := mustOne(t, db, "/site/regions")
	var probes []Node
	for i := 0; i < 3; i++ {
		err := db.Update(func(tx *Tx) error {
			n, err := tx.InsertXML(regions, fmt.Sprintf(
				`<probe round='%d'><description><keyword>delta</keyword></description></probe>`, i))
			if err != nil {
				return err
			}
			probes = append(probes, n)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Update(func(tx *Tx) error { return tx.Delete(probes[0]) }); err != nil {
		t.Fatal(err)
	}

	compare("after mixed writes")
}

// TestEpochCacheInvalidationDifferential pins the epoch-keyed decoded-
// cluster cache's invalidation contract: a query that warmed the cache
// must observe every later commit — the pre-commit and post-commit result
// sets differ by exactly the committed mutation, across several commits
// so the page epoch advances repeatedly. A stale cached decode would
// surface here as a missing (or resurrected) probe node. The derived cache
// is held to the same contract through a literal predicate evaluated by the
// join: every commit changes the values of the level it is compared with.
func TestEpochCacheInvalidationDifferential(t *testing.T) {
	db := engineFixture(t)
	regions := mustOne(t, db, "/site/regions")

	const probePath = "/site/regions/epochprobe"
	const kwPath = "/site//keyword"
	baseKw := countPath(t, db, kwPath) // warms the decoded-cluster cache
	litCount := func() int {
		t.Helper()
		res, err := db.QueryCtx(context.Background(), `/site//epochprobe[keyword="epoch"]`, QueryOptions{PredEval: PredJoin})
		if err != nil {
			t.Fatal(err)
		}
		return len(res.Nodes)
	}
	if got := litCount(); got != 0 { // caches both levels, and the keyword level's values
		t.Fatalf("%d probes before the first commit", got)
	}

	var probes []Node
	for round := 1; round <= 4; round++ {
		err := db.Update(func(tx *Tx) error {
			n, err := tx.InsertXML(regions, `<epochprobe><keyword>epoch</keyword></epochprobe>`)
			if err != nil {
				return err
			}
			probes = append(probes, n)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if got := countPath(t, db, probePath); got != round {
			t.Fatalf("after commit %d: %d probes visible, want %d (stale cached decode?)", round, got, round)
		}
		if got := countPath(t, db, kwPath); got != baseKw+round {
			t.Fatalf("after commit %d: keyword count %d, want %d", round, got, baseKw+round)
		}
		if got := litCount(); got != round {
			t.Fatalf("after commit %d: the join finds %d probes by their literal, want %d (stale level?)", round, got, round)
		}
	}

	// Deletes must invalidate just as precisely: each removal drops exactly
	// one probe from the visible set.
	for i, p := range probes {
		if err := db.Update(func(tx *Tx) error { return tx.Delete(p) }); err != nil {
			t.Fatal(err)
		}
		want := len(probes) - i - 1
		if got := countPath(t, db, probePath); got != want {
			t.Fatalf("after delete %d: %d probes visible, want %d", i+1, got, want)
		}
		if got := litCount(); got != want {
			t.Fatalf("after delete %d: the join finds %d probes by their literal, want %d (stale level?)", i+1, got, want)
		}
	}
	if got := countPath(t, db, kwPath); got != baseKw {
		t.Fatalf("after all deletes: keyword count %d, want %d", got, baseKw)
	}
}

// TestBitmapNavDifferentialUnderFaults re-runs the differential with the
// seeded fault plane armed: transient read errors and latency spikes must
// never make a query disagree with the per-node walk (taken fault-free, on
// an identically generated volume, so the faulted one still reads every
// page through the fault plane). Terminal typed faults are retried (the
// schedule is seeded, so a retry draws new outcomes); a silent divergence
// fails the test.
func TestBitmapNavDifferentialUnderFaults(t *testing.T) {
	t.Parallel()
	clean := engineFixture(t)
	oracle := perNodeNav{clean.store}
	db := engineFixture(t)
	db.SetFaults(FaultConfig{Seed: 99, ReadError: 0.03, Latency: 0.05})
	defer db.SetFaults(FaultConfig{})

	for _, p := range diffPaths {
		want := oracle.eval(clean, p)
		for _, strat := range []Strategy{Simple, Schedule} {
			for attempt := 0; ; attempt++ {
				res, err := db.QueryCtx(context.Background(), p, QueryOptions{Sorted: true, Strategy: strat})
				if err != nil {
					if attempt > 50 {
						t.Fatalf("%s: still faulting after %d attempts: %v", p, attempt, err)
					}
					continue
				}
				if got := renderNodes(res.Nodes); got != want {
					t.Errorf("%s [%v]: diverges from the per-node walk under faults (%d vs %d bytes)",
						p, strat, len(want), len(got))
				}
				break
			}
		}
	}
}
