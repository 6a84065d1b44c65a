package shard

import (
	"context"
	"errors"
	"testing"
	"time"

	"pathdb"
	"pathdb/internal/ordpath"
)

// The query set the equivalence tests sweep: the q6/q7/q15 mix plus a spine
// path and an attribute path.
var testPaths = []string{
	"/site/regions//item",
	"/site//description",
	"/site//annotation",
	"/site//emailaddress",
	"/site/people/person/name",
	"/site/regions",
}

func testXMarkConfig() pathdb.XMarkConfig {
	return pathdb.XMarkConfig{ScaleFactor: 0.25, Seed: 42, EntityScale: 0.1}
}

func testOptions(buffer int) pathdb.Options {
	return pathdb.Options{Layout: pathdb.Shuffled, LayoutSeed: 42, BufferPages: buffer}
}

func newTestCluster(t *testing.T, cfg Config) *Cluster {
	t.Helper()
	if cfg.Shards == 0 {
		cfg.Shards = 4
	}
	cl, err := NewXMark(testXMarkConfig(), testOptions(256), cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = cl.Shutdown(ctx)
	})
	return cl
}

func singleVolume(t *testing.T) *pathdb.DB {
	t.Helper()
	db, err := pathdb.GenerateXMark(testXMarkConfig(), testOptions(256))
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func mustQuery(t *testing.T, cl *Cluster, path string, wantNodes bool) *Merged {
	t.Helper()
	m, err := cl.Query(context.Background(), path, pathdb.QueryOptions{}, wantNodes)
	if err != nil {
		t.Fatalf("query %q: %v", path, err)
	}
	return m
}

// bufferedMerge is the reference node merge the streamed one is held to,
// built without it: every shard's full result by Session.Do, replicas of
// the spine probe's order keys dropped after the first shard, and a stable
// sort by key — the nodes are appended in shard order, so that is the
// (key, shard) order. Count is the merged length.
func bufferedMerge(t *testing.T, cl *Cluster, path string, opts pathdb.QueryOptions) *Merged {
	t.Helper()
	ctx := context.Background()
	m := &Merged{}
	spine := map[string]bool{}
	if cl.spineSes != nil {
		res, err := cl.spineSes.Do(ctx, path, opts)
		if err != nil {
			t.Fatalf("spine probe %q: %v", path, err)
		}
		m.SpineMatches = res.Count()
		for _, n := range res.Nodes {
			spine[string(n.OrdKey())] = true
		}
	}
	for i, ses := range cl.sessions {
		res, err := ses.Do(ctx, path, opts)
		if err != nil {
			t.Fatalf("shard %d %q: %v", i, path, err)
		}
		m.PerShard = append(m.PerShard, ShardStat{Shard: i, Count: res.Count()})
		for _, n := range res.Nodes {
			if i == 0 || !spine[string(n.OrdKey())] {
				m.Nodes = append(m.Nodes, ShardNode{Shard: i, Node: n})
			}
		}
	}
	ordpath.SortStable(m.Nodes, func(sn *ShardNode) ordpath.Key { return sn.Node.OrdKey() })
	m.Count = len(m.Nodes)
	return m
}

// Scatter-gather counts must equal a single volume holding the same
// corpus, for every path, both on the executing pass and on the cached
// pass that follows it.
func TestClusterCountEquivalence(t *testing.T) {
	cl := newTestCluster(t, Config{})
	db := singleVolume(t)
	for _, path := range testPaths {
		res, err := db.QueryCtx(context.Background(), path, pathdb.QueryOptions{})
		if err != nil {
			t.Fatalf("single volume %q: %v", path, err)
		}
		want := res.Count()
		if got := mustQuery(t, cl, path, false).Count; got != want {
			t.Errorf("%q: merged count %d, single volume %d", path, got, want)
		}
		// Second pass: all shards unchanged, so counts may come from the
		// epoch-keyed cache — and must be identical.
		m := mustQuery(t, cl, path, false)
		if m.Count != want {
			t.Errorf("%q: cached merged count %d, single volume %d", path, m.Count, want)
		}
		for _, ps := range m.PerShard {
			if !ps.Cached {
				t.Errorf("%q: shard %d executed on the second pass (cache miss with no commits)", path, ps.Shard)
			}
		}
	}
}

// Node merges must come back in global document order with each
// replicated spine match contributed exactly once: the reference merge has
// those properties, and Query's node mode yields exactly its sequence.
func TestClusterNodeMergeDocOrder(t *testing.T) {
	cl := newTestCluster(t, Config{})
	for _, path := range testPaths {
		m := bufferedMerge(t, cl, path, pathdb.QueryOptions{})
		if got := mustQuery(t, cl, path, true); got.Count != m.Count || !sameMerge(got.Nodes, m.Nodes) {
			t.Fatalf("%q: Query merged %d nodes (count %d), reference %d", path, len(got.Nodes), got.Count, m.Count)
		}
		if want := mustQuery(t, cl, path, false).Count; m.Count != want {
			t.Fatalf("%q: %d merged nodes but count %d", path, m.Count, want)
		}
		for i := 1; i < len(m.Nodes); i++ {
			a, b := m.Nodes[i-1], m.Nodes[i]
			d := pathdb.CompareDocOrder(a.Node, b.Node)
			if d > 0 {
				t.Fatalf("%q: nodes %d and %d out of document order", path, i-1, i)
			}
			// Entities on different shards may share a local order key (the
			// shard tiebreak makes the merge deterministic), but within one
			// shard keys are unique.
			if d == 0 && a.Shard == b.Shard {
				t.Fatalf("%q: shard %d contributed order key %s twice",
					path, a.Shard, a.Node.OrdPath())
			}
			if d == 0 && a.Shard > b.Shard {
				t.Fatalf("%q: equal-key nodes %d and %d not shard-ordered", path, i-1, i)
			}
		}
	}

	// A spine match is replicated on every shard; len(Nodes) == Count above
	// proves the merge emits it once, and a pure-spine path pins it down.
	m := bufferedMerge(t, cl, "/site/regions", pathdb.QueryOptions{})
	if m.SpineMatches != 1 || m.Count != 1 || len(m.Nodes) != 1 {
		t.Fatalf("/site/regions: spine=%d count=%d nodes=%d, want 1/1/1 (replicas merged once)",
			m.SpineMatches, m.Count, len(m.Nodes))
	}
}

// An insert with a spine parent lands on exactly one ring-chosen shard and
// becomes visible cluster-wide; /site keeps resolving to one node.
func TestClusterInsertRouting(t *testing.T) {
	cl := newTestCluster(t, Config{})
	ctx := context.Background()

	before := mustQuery(t, cl, "/site//padtest", false).Count
	if before != 0 {
		t.Fatalf("corpus already has %d padtest nodes", before)
	}
	res, err := cl.Insert(ctx, "/site", "<padtest/>")
	if err != nil {
		t.Fatal(err)
	}
	if res.Shard < 0 || res.Shard >= cl.Shards() {
		t.Fatalf("insert reported owner shard %d of %d", res.Shard, cl.Shards())
	}
	if res.Epoch == 0 {
		t.Fatalf("insert reported no publish epoch")
	}

	m := mustQuery(t, cl, "/site//padtest", false)
	if m.Count != 1 {
		t.Fatalf("after insert: cluster count %d, want 1", m.Count)
	}
	for _, ps := range m.PerShard {
		want := 0
		if ps.Shard == res.Shard {
			want = 1
		}
		if ps.Count != want {
			t.Fatalf("shard %d reports %d padtest matches, want %d (owner %d)",
				ps.Shard, ps.Count, want, res.Shard)
		}
	}
	if m := mustQuery(t, cl, "/site", false); m.Count != 1 {
		t.Fatalf("/site resolves to %d nodes after insert", m.Count)
	}
}

// The epoch-keyed cache must stay exactly consistent across commits: an
// update-independent insert leaves cached counts valid (and the owner
// shard's entries are revalidated, not just invalidated), while an insert
// that can affect a path forces re-execution and the new count.
func TestClusterCountCacheRevalidation(t *testing.T) {
	cl := newTestCluster(t, Config{})
	ctx := context.Background()
	const itemPath = "/site//item"

	itemsBefore := mustQuery(t, cl, itemPath, false).Count
	regionItems := mustQuery(t, cl, "/site/regions//item", false).Count

	// Independent insert: fragment shares no name token with either path.
	if _, err := cl.Insert(ctx, "/site", "<cachepad/>"); err != nil {
		t.Fatal(err)
	}
	m := mustQuery(t, cl, "/site/regions//item", false)
	if m.Count != regionItems {
		t.Fatalf("independent insert changed cached count %d -> %d", regionItems, m.Count)
	}
	for _, ps := range m.PerShard {
		if !ps.Cached {
			t.Errorf("shard %d re-executed after an update-independent insert (revalidation failed)", ps.Shard)
		}
	}

	// Dependent insert: <item/> shares the path's final step name, so the
	// owner's cache entry must be dropped and the new count observed.
	res, err := cl.Insert(ctx, "/site", "<item><name>cache-test</name></item>")
	if err != nil {
		t.Fatal(err)
	}
	m = mustQuery(t, cl, itemPath, false)
	if m.Count != itemsBefore+1 {
		t.Fatalf("dependent insert: count %d, want %d", m.Count, itemsBefore+1)
	}
	for _, ps := range m.PerShard {
		if ps.Shard == res.Shard && ps.Cached {
			t.Errorf("owner shard %d served a cached count across a dependent insert", ps.Shard)
		}
	}
}

// Deletes fan out to every shard (and the spine volume) so replicas never
// diverge; the cluster-wide deleted count de-duplicates spine matches.
func TestClusterDeleteFanout(t *testing.T) {
	cl := newTestCluster(t, Config{})
	ctx := context.Background()

	for i := 0; i < 3; i++ {
		if _, err := cl.Insert(ctx, "/site", "<fanpad/>"); err != nil {
			t.Fatal(err)
		}
	}
	if got := mustQuery(t, cl, "/site//fanpad", false).Count; got != 3 {
		t.Fatalf("inserted 3 fanpad nodes, cluster counts %d", got)
	}
	res, err := cl.Delete(ctx, "/site//fanpad")
	if err != nil {
		t.Fatal(err)
	}
	if res.Deleted != 3 {
		t.Fatalf("delete removed %d, want 3", res.Deleted)
	}
	if got := mustQuery(t, cl, "/site//fanpad", false).Count; got != 0 {
		t.Fatalf("%d fanpad nodes survive the fan-out delete", got)
	}

	// A spine-replicated delete must count once cluster-wide.
	if got := mustQuery(t, cl, "/site/catgraph", false); got.Count == 1 && got.SpineMatches == 1 {
		res, err := cl.Delete(ctx, "/site/catgraph")
		if err != nil {
			t.Fatal(err)
		}
		if res.Deleted != 1 {
			t.Fatalf("spine delete counted %d, want 1 (replicas must merge)", res.Deleted)
		}
	}
}

// faultedCluster builds a 4-shard cluster with a tiny buffer pool (so
// queries keep reading the device) and a heavy read-fault schedule on one
// shard. The count cache is disabled: cached counts at an unchanged epoch
// are legitimately served without touching storage, which would let the
// degraded shard answer from memory.
func faultedCluster(t *testing.T, cfg Config, shard int, readError float64) *Cluster {
	t.Helper()
	cfg.Shards = 4
	cfg.NoCountCache = true
	cl, err := NewXMark(testXMarkConfig(), testOptions(8), cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = cl.Shutdown(ctx)
	})
	cl.SetFaults(shard, pathdb.FaultConfig{Seed: 7, ReadError: readError})
	return cl
}

// Under the quorum policy, a shard lost to storage faults yields a typed
// partial result whose count is exactly the merge of the answering shards
// — not an error, and never a wrong total.
func TestClusterDegradedShardPartial(t *testing.T) {
	const bad = 2
	cl := faultedCluster(t, Config{}, bad, 0) // faults installed below
	ctx := context.Background()
	const path = "/site//description"

	// Fault-free baseline: per-shard counts and the spine count.
	base := mustQuery(t, cl, path, false)
	perShard := make([]int, cl.Shards())
	for _, ps := range base.PerShard {
		perShard[ps.Shard] = ps.Count
	}
	expectPartial := 0
	answered := 0
	for s, c := range perShard {
		if s == bad {
			continue
		}
		expectPartial += c
		answered++
	}
	expectPartial -= (answered - 1) * base.SpineMatches

	cl.SetFaults(bad, pathdb.FaultConfig{Seed: 7, ReadError: 0.5})
	partials := 0
	for i := 0; i < 40; i++ {
		m, err := cl.Query(ctx, path, pathdb.QueryOptions{}, false)
		if err != nil {
			t.Fatalf("query %d under faults: %v (quorum policy must absorb one shard)", i, err)
		}
		if !m.Partial {
			if m.Count != base.Count {
				t.Fatalf("query %d: complete result count %d, want %d", i, m.Count, base.Count)
			}
			continue
		}
		partials++
		if len(m.Degraded) != 1 || m.Degraded[0].Shard != bad {
			t.Fatalf("query %d: degraded set %+v, want shard %d only", i, m.Degraded, bad)
		}
		if k := m.Degraded[0].Kind; k != pathdb.KindIO && k != pathdb.KindCorrupt {
			t.Fatalf("query %d: degradation kind %v, want a storage kind", i, k)
		}
		if m.Count != expectPartial {
			t.Fatalf("query %d: partial count %d, want %d (merge must stay exact)",
				i, m.Count, expectPartial)
		}
	}
	if partials == 0 {
		t.Fatalf("no partial results in 40 queries at 50%% read faults")
	}
	if hits := cl.Metrics()[bad].DegradedHits; hits < int64(partials) {
		t.Fatalf("shard %d records %d degraded hits, saw %d partials", bad, hits, partials)
	}
	if cl.Partials() != int64(partials) {
		t.Fatalf("cluster counts %d partials, saw %d", cl.Partials(), partials)
	}
}

// Losing more shards than the quorum tolerates fails the query with a
// QuorumError that still classifies under the typed taxonomy.
func TestClusterQuorumLoss(t *testing.T) {
	cl := faultedCluster(t, Config{}, 1, 1)
	cl.SetFaults(2, pathdb.FaultConfig{Seed: 11, ReadError: 1})

	_, err := cl.Query(context.Background(), "/site//description", pathdb.QueryOptions{}, false)
	if err == nil {
		t.Fatal("two dead shards of four: query succeeded past the quorum")
	}
	var qe *QuorumError
	if !errors.As(err, &qe) {
		t.Fatalf("error %v (%T), want *QuorumError", err, err)
	}
	if qe.Healthy != 2 || qe.Needed != 3 {
		t.Fatalf("quorum error reports %d healthy need %d, want 2/3", qe.Healthy, qe.Needed)
	}
	if k := pathdb.KindOf(err); k != pathdb.KindIO && k != pathdb.KindCorrupt {
		t.Fatalf("quorum error classifies as %v, want a storage kind", k)
	}
}

// PolicyAll refuses partial results: one faulted shard fails the whole
// query with the shard's typed storage error.
func TestClusterPolicyAllFailsFast(t *testing.T) {
	cl := faultedCluster(t, Config{Policy: PolicyAll}, 3, 1)

	_, err := cl.Query(context.Background(), "/site//description", pathdb.QueryOptions{}, false)
	if err == nil {
		t.Fatal("PolicyAll returned a result with a dead shard")
	}
	if k := pathdb.KindOf(err); k != pathdb.KindIO && k != pathdb.KindCorrupt {
		t.Fatalf("PolicyAll error classifies as %v, want a storage kind", k)
	}
	if cl.Partials() != 0 {
		t.Fatalf("PolicyAll recorded %d partial results", cl.Partials())
	}
}
