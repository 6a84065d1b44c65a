package shard

import (
	"context"
	"errors"
	"testing"

	"pathdb"
)

// drainStream consumes a StreamCursor fully, failing the test on a merge
// error, and returns the yielded nodes in order.
func drainStream(t *testing.T, sc *StreamCursor) []ShardNode {
	t.Helper()
	var nodes []ShardNode
	for sc.Next() {
		nodes = append(nodes, sc.Node())
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("stream merge failed: %v", err)
	}
	sc.Close()
	return nodes
}

// sameMerge reports whether two merged sequences are identical — same
// nodes, same shards, same order.
func sameMerge(a []ShardNode, b []ShardNode) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Shard != b[i].Shard || a[i].Node.ID() != b[i].Node.ID() {
			return false
		}
	}
	return true
}

// The streamed k-way merge must yield byte-for-byte the buffered merge's
// node sequence: same global document order, same shard attribution, spine
// replicas contributed exactly once, cross-shard order-key collisions (two
// distinct entities sharing a local key) kept apart.
func TestStreamMatchesBufferedMerge(t *testing.T) {
	cl := newTestCluster(t, Config{})
	for _, path := range testPaths {
		want := bufferedMerge(t, cl, path, pathdb.QueryOptions{})
		sc, err := cl.Stream(context.Background(), path, pathdb.QueryOptions{})
		if err != nil {
			t.Fatalf("Stream(%q): %v", path, err)
		}
		got := drainStream(t, sc)
		if !sameMerge(got, want.Nodes) {
			t.Errorf("%q: streamed merge (%d nodes) differs from buffered merge (%d nodes)",
				path, len(got), len(want.Nodes))
		}
		sum, ok := sc.Summary()
		if !ok {
			t.Fatalf("%q: no summary after drain", path)
		}
		if sum.Count != want.Count {
			t.Errorf("%q: streamed count %d, buffered %d", path, sum.Count, want.Count)
		}
		if sum.SpineMatches != want.SpineMatches {
			t.Errorf("%q: streamed spine matches %d, buffered %d", path, sum.SpineMatches, want.SpineMatches)
		}
		if sum.Partial || len(sum.Degraded) != 0 {
			t.Errorf("%q: healthy cluster reported partial/degraded", path)
		}
	}
}

// A pure-spine path is replicated on every shard; the streamed merge must
// still emit it exactly once.
func TestStreamSpineDedup(t *testing.T) {
	cl := newTestCluster(t, Config{})
	sc, err := cl.Stream(context.Background(), "/site/regions", pathdb.QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	nodes := drainStream(t, sc)
	if len(nodes) != 1 {
		t.Fatalf("/site/regions streamed %d nodes, want 1 (replicas merged once)", len(nodes))
	}
	if sum, _ := sc.Summary(); sum.SpineMatches != 1 {
		t.Fatalf("spine matches %d, want 1", sum.SpineMatches)
	}
}

// Limit caps the merged sequence at exactly the first N of the buffered
// merge — the pushed-down per-shard limit must never starve the true
// global prefix.
func TestStreamLimit(t *testing.T) {
	cl := newTestCluster(t, Config{})
	const path = "/site//description"
	want := bufferedMerge(t, cl, path, pathdb.QueryOptions{})
	if len(want.Nodes) < 20 {
		t.Fatalf("fixture too small: %d nodes", len(want.Nodes))
	}
	for _, limit := range []int{1, 7, 19} {
		sc, err := cl.Stream(context.Background(), path, pathdb.QueryOptions{Limit: limit})
		if err != nil {
			t.Fatal(err)
		}
		got := drainStream(t, sc)
		if !sameMerge(got, want.Nodes[:limit]) {
			t.Fatalf("limit %d: streamed prefix differs from buffered merge's first %d", limit, limit)
		}
	}
}

// Closing the merge mid-stream settles every shard cursor without error,
// and the summary reports what each shard contributed so far.
func TestStreamEarlyClose(t *testing.T) {
	cl := newTestCluster(t, Config{})
	sc, err := cl.Stream(context.Background(), "/site//description", pathdb.QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5 && sc.Next(); i++ {
	}
	if err := sc.Close(); err != nil {
		t.Fatal(err)
	}
	if sc.Next() {
		t.Fatal("Next after Close must report false")
	}
	if err := sc.Close(); err != nil {
		t.Fatal("Close must be idempotent")
	}
	sum, ok := sc.Summary()
	if !ok {
		t.Fatal("closed stream must still summarize")
	}
	if sum.Count != 5 {
		t.Fatalf("summary count %d, want 5", sum.Count)
	}
	if len(sum.PerShard) != cl.Shards() {
		t.Fatalf("summary covers %d shards, want %d", len(sum.PerShard), cl.Shards())
	}
}

// Under the quorum policy a shard lost to storage faults drops out of the
// merge — at open or mid-stream — and the stream completes with the
// trailing summary reporting the degradation, never a merge error.
func TestStreamDegradedShard(t *testing.T) {
	const bad = 2
	cl := faultedCluster(t, Config{}, bad, 1)
	sc, err := cl.Stream(context.Background(), "/site//description", pathdb.QueryOptions{})
	if err != nil {
		t.Fatalf("stream open under one dead shard: %v (quorum must absorb it)", err)
	}
	prev := ShardNode{}
	n := 0
	for sc.Next() {
		cur := sc.Node()
		if cur.Shard == bad {
			t.Fatalf("node %d attributed to the dead shard", n)
		}
		if n > 0 && pathdb.CompareDocOrder(prev.Node, cur.Node) > 0 {
			t.Fatalf("nodes %d and %d out of document order in degraded merge", n-1, n)
		}
		prev = cur
		n++
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("degraded merge errored: %v", err)
	}
	sc.Close()
	sum, _ := sc.Summary()
	if !sum.Partial || len(sum.Degraded) != 1 || sum.Degraded[0].Shard != bad {
		t.Fatalf("summary %+v, want partial with shard %d degraded", sum, bad)
	}
	if k := sum.Degraded[0].Kind; k != pathdb.KindIO && k != pathdb.KindCorrupt {
		t.Fatalf("degradation kind %v, want a storage kind", k)
	}
	if n == 0 {
		t.Fatal("degraded merge yielded nothing")
	}
}

// Losing more shards than the quorum tolerates fails the stream with a
// QuorumError; PolicyAll refuses degradation outright.
func TestStreamQuorumAndPolicyAll(t *testing.T) {
	cl := faultedCluster(t, Config{}, 1, 1)
	cl.SetFaults(2, pathdb.FaultConfig{Seed: 11, ReadError: 1})
	sc, err := cl.Stream(context.Background(), "/site//description", pathdb.QueryOptions{})
	if err == nil {
		for sc.Next() {
		}
		err = sc.Err()
		sc.Close()
	}
	var qe *QuorumError
	if !errors.As(err, &qe) {
		t.Fatalf("two dead shards of four: err=%v (%T), want *QuorumError", err, err)
	}

	cl2 := faultedCluster(t, Config{Policy: PolicyAll}, 3, 1)
	sc, err = cl2.Stream(context.Background(), "/site//description", pathdb.QueryOptions{})
	if err == nil {
		for sc.Next() {
		}
		err = sc.Err()
		sc.Close()
	}
	if err == nil {
		t.Fatal("PolicyAll streamed past a dead shard")
	}
	if k := pathdb.KindOf(err); k != pathdb.KindIO && k != pathdb.KindCorrupt {
		t.Fatalf("PolicyAll stream error classifies as %v, want a storage kind", k)
	}
}
