package shard

import (
	"context"
	"fmt"
	"testing"

	"pathdb"
	"pathdb/internal/ordpath"
	"pathdb/internal/rng"
)

// sliceStream is a pre-filled nodeStream: one shard's sorted result, held
// in memory and rewindable, so the merge can be driven without engines.
type sliceStream struct {
	nodes []pathdb.Node
	pos   int
}

func (s *sliceStream) Next() bool                         { s.pos++; return s.pos <= len(s.nodes) }
func (s *sliceStream) Node() pathdb.Node                  { return s.nodes[s.pos-1] }
func (s *sliceStream) Err() error                         { return nil }
func (s *sliceStream) Summary() (pathdb.ExecResult, bool) { return pathdb.ExecResult{}, true }
func (s *sliceStream) Close() error                       { return nil }

// prefilledMerge holds what a merge over n shards of the test corpus
// consumes, evaluated once: each shard's sorted result for path and the
// spine's key set.
type prefilledMerge struct {
	cl        *Cluster
	lists     [][]pathdb.Node
	spineOrds map[string]bool
	total     int // merged nodes, spine replicas counted once
}

func newPrefilledMerge(tb testing.TB, shards int, path string) *prefilledMerge {
	tb.Helper()
	cfg := Config{Shards: shards}.withDefaults()
	set, err := pathdb.GenerateXMarkSharded(testXMarkConfig(), pathdb.Options{}, shards,
		NewRing(cfg.Shards, cfg.Replicas).Place)
	if err != nil {
		tb.Fatal(err)
	}
	sorted := func(db *pathdb.DB) []pathdb.Node {
		res, err := db.QueryCtx(context.Background(), path, pathdb.QueryOptions{Sorted: true})
		if err != nil {
			tb.Fatal(err)
		}
		return res.Nodes
	}
	// The merge reads the coordinator's policy and shard count only.
	pm := &prefilledMerge{
		cl:        &Cluster{cfg: cfg, sessions: make([]*pathdb.Session, shards)},
		spineOrds: map[string]bool{},
	}
	for _, sn := range sorted(set.Spine) {
		pm.spineOrds[string(sn.OrdKey())] = true
	}
	for _, db := range set.Shards {
		pm.lists = append(pm.lists, sorted(db))
		pm.total += len(pm.lists[len(pm.lists)-1])
	}
	pm.total -= (shards - 1) * len(pm.spineOrds)
	return pm
}

// open returns a primed merge over fresh streams of the pre-filled lists.
func (pm *prefilledMerge) open(tb testing.TB) *StreamCursor {
	sc := &StreamCursor{c: pm.cl, cancel: func() {}, spineOrds: pm.spineOrds}
	for i, nodes := range pm.lists {
		sc.streams = append(sc.streams, &shardStream{shard: i, cur: &sliceStream{nodes: nodes}})
	}
	if err := sc.prime(); err != nil {
		tb.Fatal(err)
	}
	return sc
}

// The typed heap pops stream heads by (order key, shard), and a push+pop
// pair on a heap that has reached its size allocates nothing.
func TestMergeHeapOrderAndAllocs(t *testing.T) {
	r := rng.New(3)
	var h mergeHeap
	const n = 64
	for i := 0; i < n; i++ {
		key := ordpath.Root().BulkChild(r.Intn(4)).BulkChild(r.Intn(4))
		h.push(mergeEntry{key: key, node: ShardNode{Shard: r.Intn(8)}})
	}
	var prev mergeEntry
	for i := 0; i < n; i++ {
		e := h.pop()
		if i > 0 {
			d := ordpath.Compare(prev.key, e.key)
			if d > 0 || (d == 0 && prev.node.Shard > e.node.Shard) {
				t.Fatalf("pop %d: (%s, shard %d) after (%s, shard %d)",
					i, e.key, e.node.Shard, prev.key, prev.node.Shard)
			}
		}
		prev = e
	}
	if len(h) != 0 {
		t.Fatalf("%d entries left after popping all", len(h))
	}

	for s := 0; s < 4; s++ {
		h.push(mergeEntry{key: ordpath.FromComponents(2, uint64(2*s+2)), node: ShardNode{Shard: s}})
	}
	if a := testing.AllocsPerRun(1000, func() { h.push(h.pop()) }); a != 0 {
		t.Fatalf("heap push+pop: %v allocs, want 0", a)
	}
}

// Merging pre-filled streams yields every node once, in (key, shard) order,
// and a merged node in steady state costs no allocation.
func TestPrefilledMergeOrderAndAllocs(t *testing.T) {
	pm := newPrefilledMerge(t, 4, "/site/regions//item")
	sc := pm.open(t)
	var prev ShardNode
	n := 0
	for ; sc.Next(); n++ {
		cur := sc.Node()
		if n > 0 {
			d := pathdb.CompareDocOrder(prev.Node, cur.Node)
			if d > 0 || (d == 0 && prev.Shard >= cur.Shard) {
				t.Fatalf("node %d out of (key, shard) order", n)
			}
		}
		prev = cur
	}
	if n != pm.total || sc.Err() != nil {
		t.Fatalf("merged %d nodes (err %v), want %d", n, sc.Err(), pm.total)
	}

	sc = pm.open(t)
	if a := testing.AllocsPerRun(pm.total/2, func() {
		if !sc.Next() {
			t.Fatal("merge ran dry")
		}
	}); a != 0 {
		t.Fatalf("merged node: %v allocs, want 0", a)
	}
}

// BenchmarkStreamMerge is the coordinator's share of a streamed node: one
// StreamCursor.Next over 2 and 4 pre-filled shard streams (heap pop, refill
// from the popped stream, push, spine dedup). Re-opening the merge when a
// pass is exhausted is not timed.
func BenchmarkStreamMerge(b *testing.B) {
	for _, shards := range []int{2, 4} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			pm := newPrefilledMerge(b, shards, "/site//description")
			sc := pm.open(b)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if !sc.Next() {
					b.StopTimer()
					sc = pm.open(b)
					b.StartTimer()
					if !sc.Next() {
						b.Fatal("empty merge")
					}
				}
			}
		})
	}
}
