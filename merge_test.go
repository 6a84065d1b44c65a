package pathdb

import (
	"bytes"
	"context"
	"fmt"
	"slices"
	"strings"
	"testing"
)

// unionOracle is a sorted union's result built the long way: every
// branch's nodes — each branch a query of its own, navigated by Simple —
// deduplicated by NodeID, stably sorted by order key, truncated to limit
// (0: all of them).
func unionOracle(t *testing.T, db *DB, path string, limit int) []uint64 {
	t.Helper()
	var all []Node
	seen := map[uint64]bool{}
	for _, branch := range strings.Split(path, " | ") {
		res, err := db.QueryCtx(context.Background(), branch, QueryOptions{Strategy: Simple})
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range res.Nodes {
			if !seen[n.ID()] {
				seen[n.ID()] = true
				all = append(all, n)
			}
		}
	}
	slices.SortStableFunc(all, func(a, b Node) int { return bytes.Compare(a.OrdKey(), b.OrdKey()) })
	if limit > 0 && len(all) > limit {
		all = all[:limit]
	}
	return resultIDs(ExecResult{Nodes: all})
}

// TestSortedUnionMergeDifferential: a sorted union is the merge of its
// branches, each ordered in its own plan and capped at the Limit. Under
// Limit 0, 1 and 10, QueryCtx, QueryStream, Session.Do, Session.Stream and
// Query.Nodes all yield the oracle's nodes — for branches read from
// resident levels, navigating branches under each forced strategy,
// overlapping branches, and attribute branches whose nodes share their
// owner's key — and QueryCtx costs what Session.Do costs, to the tick, on
// two volumes built and queried alike. A limited sorted union stops early.
func TestSortedUnionMergeDifferential(t *testing.T) {
	ctx := context.Background()
	direct, engined := engineFixture(t), engineFixture(t)
	eng := engined.NewEngine(EngineConfig{})
	defer eng.Close()
	ses := eng.NewSession()
	lookups := func(db *DB) uint64 { m := db.DerivedMetrics(); return m.Hits + m.Misses }

	const q7 = "/site//description | /site//annotation | /site//emailaddress"
	cases := []struct {
		path     string
		strats   []Strategy
		resident bool // Auto reads flat branches from levels on a resident pool
	}{
		{q7, []Strategy{Auto}, true},
		{"/site/regions//item/name | /site/people/person/name | /site/closed_auctions/closed_auction/price",
			[]Strategy{Simple, Schedule, Scan}, false},
		{"/site/regions//item | /site/regions/europe/item | /site//item/name", []Strategy{Auto, Schedule, Scan}, false},
		{"/site/catgraph/edge/@to | /site/catgraph/edge/@*", []Strategy{Auto, Simple, Schedule, Scan}, false},
		{"/site/people/person/@id | /site/people/person/@*", []Strategy{Auto, Simple, Schedule, Scan}, false},
	}
	for _, tc := range cases {
		for _, strat := range tc.strats {
			for _, limit := range []int{0, 1, 10} {
				label := fmt.Sprintf("%s [%v, limit %d]", tc.path, strat, limit)
				opts := QueryOptions{Strategy: strat, Sorted: true, Limit: limit}
				for _, db := range []*DB{direct, engined} {
					db.ResetStats()
					if tc.resident {
						loadAll(db)
					}
				}
				want := unionOracle(t, direct, tc.path, limit)
				if limit > 0 && len(want) < limit || len(want) == 0 {
					t.Fatalf("%s: the fixture yields %d nodes", label, len(want))
				}
				unionOracle(t, engined, tc.path, limit) // keep the twins alike

				before := lookups(direct)
				got, err := direct.QueryCtx(ctx, tc.path, opts)
				if err != nil {
					t.Fatal(err)
				}
				if tc.resident && lookups(direct) == before {
					t.Errorf("%s: QueryCtx read no level", label)
				}
				do, err := ses.Do(ctx, tc.path, opts)
				if err != nil {
					t.Fatal(err)
				}
				if got.CostV != do.CostV {
					t.Errorf("%s: QueryCtx costs %v, Session.Do %v", label, got.CostV, do.CostV)
				}

				cur, err := ses.Stream(ctx, tc.path, opts)
				if err != nil {
					t.Fatal(err)
				}
				stream := streamIDs(t, cur)
				if cur, err = direct.QueryStream(ctx, tc.path, opts); err != nil {
					t.Fatal(err)
				}
				live := streamIDs(t, cur)
				var nodes [2][]uint64
				for i, db := range []*DB{direct, engined} {
					q, err := db.Query(tc.path)
					if err != nil {
						t.Fatal(err)
					}
					q.opts = opts
					nodes[i] = resultIDs(ExecResult{Nodes: q.Nodes()})
				}

				for surface, ids := range map[string][]uint64{
					"QueryCtx": resultIDs(got), "Session.Do": resultIDs(do), "Session.Stream": stream,
					"QueryStream": live, "Query.Nodes": nodes[0], "Query.Nodes on the twin": nodes[1],
				} {
					if !sameSeq(ids, want) {
						t.Errorf("%s: %s yields %d nodes, not the oracle's %d", label, surface, len(ids), len(want))
					}
				}
			}
		}
	}

	// A limited sorted union stops early: every branch of Q7 reads its
	// first ten nodes from resident levels and stops.
	direct.ResetStats()
	loadAll(direct)
	var cost [2]ExecResult
	for round := 0; round < 2; round++ { // the first round builds the levels
		for i, limit := range []int{0, 10} {
			res, err := direct.QueryCtx(ctx, q7, QueryOptions{Sorted: true, Limit: limit})
			if err != nil {
				t.Fatal(err)
			}
			cost[i] = res
		}
	}
	if full, ten := cost[0], cost[1]; ten.CostV*10 > full.CostV {
		t.Errorf("Q7 sorted: %d nodes cost %v, the first %d cost %v", len(full.Nodes), full.CostV, len(ten.Nodes), ten.CostV)
	}
}
