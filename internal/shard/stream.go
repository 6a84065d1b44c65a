package shard

import (
	"bytes"
	"context"

	"pathdb"
	"pathdb/internal/ordpath"
)

// StreamSummary is what a scatter reports besides its nodes: the trailing
// summary of a streamed merge, and the body of every Merged result.
type StreamSummary struct {
	// Count is the cluster-wide match count, spine replicas counted once:
	// how many merged nodes a stream yielded (for a Limit-capped stream,
	// the cap), or sum(local counts) - (answered-1) * SpineMatches for a
	// count-only scatter.
	Count int
	// SpineMatches is how many matches fall on the replicated spine —
	// the spine probe's result (0 for single-shard clusters).
	SpineMatches int
	// PerShard has one entry per shard, including failed ones; a stream's
	// Count there is the number of nodes the shard fed into the merge
	// before dedup.
	PerShard []ShardStat
	// Degraded lists shards lost to tolerable storage faults; Partial is
	// true when the result excludes at least one of them.
	Degraded []ShardFailure
	Partial  bool
}

// StreamCursor is a streaming k-way merge over per-shard cursors: nodes
// surface in global document order as the shards produce them, and the
// coordinator holds only the heap of stream heads plus the spine probe's
// order-key set — never the merged result. Spine replicas (identical
// order keys on every answering shard) are deduplicated on the fly,
// keeping the lowest answering shard's copy; distinct entities that
// coincide on a local order key across shards are NOT spine replicas and
// all surface, in shard order — which is why the probe against the spine
// volume is required rather than deduplicating on order-key equality
// alone. It is the cluster's one node merge: Query's node mode and the
// router's JSON node responses drain it.
//
// Close is mandatory and idempotent; it closes every shard cursor, which
// cancels their queries and withdraws in-flight prefetches.
//
// A StreamCursor is not safe for concurrent use.
type StreamCursor struct {
	c      *Cluster
	cancel context.CancelFunc
	limit  int

	h       mergeHeap
	streams []*shardStream

	// spineOrds is the replicated spine's order-key set for this path,
	// keyed by the raw key bytes; only these keys deduplicate (the spine
	// volume is a few pages, so the probe is cheap relative to any scatter).
	spineOrds    map[string]bool
	spineMatches int

	node     ShardNode
	lastKey  ordpath.Key // raw key of the node last yielded
	yielded  int
	failures []ShardFailure
	stats    []ShardStat

	done   bool
	closed bool
	err    error
	sum    *StreamSummary
}

// nodeStream is what the merge needs of one shard's sorted result: a
// *pathdb.Cursor in service, a pre-filled slice in the merge's own tests
// and benchmark.
type nodeStream interface {
	Next() bool
	Node() pathdb.Node
	Err() error
	Summary() (pathdb.ExecResult, bool)
	Close() error
}

// shardStream is one shard's contribution to the merge.
type shardStream struct {
	shard  int
	cur    nodeStream
	count  int // nodes fed into the merge
	closed bool
}

// mergeEntry is one stream head waiting in the heap. key is the node's raw
// order key, read once when the head is pulled: the heap compares keys, it
// never goes back to the node.
type mergeEntry struct {
	key  ordpath.Key
	node ShardNode
	src  *shardStream
}

// mergeHeap is a binary min-heap of stream heads ordered by (order key,
// shard), at most one entry per shard. It is typed — entries are stored and
// returned by value — so push and pop allocate nothing once the backing
// array has grown to the shard count.
type mergeHeap []mergeEntry

func (h mergeHeap) less(a, b int) bool {
	if d := ordpath.Compare(h[a].key, h[b].key); d != 0 {
		return d < 0
	}
	return h[a].node.Shard < h[b].node.Shard
}

func (h *mergeHeap) push(e mergeEntry) {
	*h = append(*h, e)
	s := *h
	for i := len(s) - 1; i > 0; {
		parent := (i - 1) / 2
		if !s.less(i, parent) {
			break
		}
		s[i], s[parent] = s[parent], s[i]
		i = parent
	}
}

// pop removes and returns the least entry; the heap must not be empty.
func (h *mergeHeap) pop() mergeEntry {
	s := *h
	top := s[0]
	n := len(s) - 1
	s[0] = s[n]
	s[n] = mergeEntry{} // drop the node and stream references
	s = s[:n]
	for i := 0; ; {
		least := i
		if l := 2*i + 1; l < n && s.less(l, least) {
			least = l
		}
		if r := 2*i + 2; r < n && s.less(r, least) {
			least = r
		}
		if least == i {
			break
		}
		s[i], s[least] = s[least], s[i]
		i = least
	}
	*h = s
	return top
}

// Stream fans path across every shard as sorted per-shard streams and
// returns a cursor merging them in global document order. Admission is
// non-blocking per shard (an overloaded shard fails the open, like the
// count-only scatter's TryDo); the failure policy applies both at open and
// mid-merge — under PolicyQuorum a shard lost to a storage fault mid-way
// is dropped from the heap (its already-merged prefix stands, and the
// trailing summary reports it degraded), under PolicyAll any failure
// aborts the stream.
//
// opts.Sorted is implied (the merge requires per-shard document order);
// opts.Limit caps the merged sequence, and is also pushed down to each
// shard — the global first N in document order draws at most N from any
// single shard.
func (c *Cluster) Stream(ctx context.Context, path string, opts pathdb.QueryOptions) (*StreamCursor, error) {
	opts.Sorted = true
	sctx, cancel := context.WithCancel(ctx)
	sc := &StreamCursor{c: c, cancel: cancel, limit: opts.Limit}

	// Spine probe: the replica dedup below keys on the spine's order-key
	// set (order-key equality alone is not replication — distinct entities
	// on different shards may share a local key). The probe must see every
	// spine match, so the caller's Limit does not apply to it.
	if c.spineSes != nil {
		popts := opts
		popts.Limit = 0
		res, err := c.spineSes.Do(sctx, path, popts)
		if err != nil {
			sc.close()
			return nil, err
		}
		sc.spineMatches = res.Count()
		sc.spineOrds = make(map[string]bool, res.Count())
		for _, sn := range res.Nodes {
			sc.spineOrds[string(sn.OrdKey())] = true
		}
	}

	for i := range c.sessions {
		cur, err := c.sessions[i].TryStream(sctx, path, opts)
		if err != nil {
			if err = sc.drop(i, err); err != nil {
				sc.close()
				return nil, err
			}
			continue
		}
		sc.streams = append(sc.streams, &shardStream{shard: i, cur: cur})
	}

	if err := sc.prime(); err != nil {
		sc.close()
		return nil, err
	}
	return sc, nil
}

// prime puts each stream's head on the heap. The first merged node needs
// every head anyway (it is their minimum), so this is the stream's genuine
// time-to-first-result, not an implementation stall.
func (sc *StreamCursor) prime() error {
	for _, s := range sc.streams {
		if err := sc.advance(s); err != nil {
			return err
		}
	}
	return nil
}

// advance pulls the next node from s, pushing it on the heap; a drained
// stream is settled (summary harvested, cursor closed) and a failed one is
// classified under the policy. The returned error is fatal to the merge.
func (sc *StreamCursor) advance(s *shardStream) error {
	if s.cur.Next() {
		s.count++
		n := s.cur.Node()
		sc.h.push(mergeEntry{key: n.OrdKey(), node: ShardNode{Shard: s.shard, Node: n}, src: s})
		return nil
	}
	if err := s.cur.Err(); err != nil {
		sc.settle(s)
		return sc.drop(s.shard, err)
	}
	// Clean exhaustion: harvest the shard's execution stats.
	if res, ok := s.cur.Summary(); ok {
		sc.stats = append(sc.stats, ShardStat{
			Shard:    s.shard,
			Count:    s.count,
			Strategy: res.Strategy,
			Shared:   res.Shared,
			CostV:    res.CostV,
			VirtLat:  res.VirtualLatency,
			WallExec: res.WallExec.Nanoseconds(),
		})
	}
	sc.settle(s)
	return nil
}

// drop applies the failure policy to shard s failing with err, at open or
// mid-merge: under PolicyQuorum a tolerable storage fault drops the shard
// (its merged prefix stands) as long as Quorum shards remain. It returns
// the error fatal to the merge, if any.
func (sc *StreamCursor) drop(s int, err error) error {
	if !tolerable(err) || sc.c.cfg.Policy != PolicyQuorum {
		return err
	}
	sc.failures = append(sc.failures, ShardFailure{Shard: s, Kind: pathdb.KindOf(err), Err: err})
	sc.c.degradedHits[s].Add(1)
	if healthy := len(sc.c.sessions) - len(sc.failures); healthy < sc.c.cfg.Quorum {
		return &QuorumError{Healthy: healthy, Needed: sc.c.cfg.Quorum, Failures: sc.failures}
	}
	return nil
}

// settle closes one shard cursor (idempotent).
func (sc *StreamCursor) settle(s *shardStream) {
	if !s.closed {
		s.closed = true
		s.cur.Close()
	}
}

// Next advances the merge to the next node in global document order,
// reporting false on exhaustion, failure, or the Limit cap. Err
// distinguishes afterwards.
func (sc *StreamCursor) Next() bool {
	if sc.done || sc.closed {
		return false
	}
	for {
		if len(sc.h) == 0 {
			sc.finish()
			return false
		}
		e := sc.h.pop()
		if err := sc.advance(e.src); err != nil {
			sc.fail(err)
			return false
		}
		// Spine replicas carry identical order keys on every answering
		// shard; the heap (order key, then shard) pops the lowest shard's
		// copy first, so an equal-key successor on a spine key is a
		// replica to drop. Equal keys off the spine are distinct entities
		// and all surface (the heap's shard tiebreak orders them).
		if sc.yielded > 0 && bytes.Equal(e.key, sc.lastKey) && sc.spineOrds[string(e.key)] {
			continue
		}
		sc.lastKey = e.key
		sc.node = e.node
		sc.yielded++
		if sc.limit > 0 && sc.yielded >= sc.limit {
			sc.finish()
		}
		return true
	}
}

// Node returns the node Next positioned the cursor on.
func (sc *StreamCursor) Node() ShardNode { return sc.node }

// Err returns the error that terminated the merge, nil on clean completion
// (including a Limit cut or an explicit Close).
func (sc *StreamCursor) Err() error { return sc.err }

// Count returns how many merged nodes the cursor has yielded so far.
func (sc *StreamCursor) Count() int { return sc.yielded }

// Summary returns the scatter's trailing summary once the merge has
// terminated.
func (sc *StreamCursor) Summary() (*StreamSummary, bool) {
	if sc.sum == nil {
		return nil, false
	}
	return sc.sum, true
}

// Drain consumes the rest of the merge and returns it as a Merged result
// holding the first keep merged nodes (all of them when keep < 0); Count
// and the rest of the summary cover the whole merge. Under PolicyQuorum a
// shard lost mid-merge keeps its merged prefix, as in the stream. Drain
// closes the cursor.
func (sc *StreamCursor) Drain(keep int) (*Merged, error) {
	var nodes []ShardNode
	for sc.Next() {
		if keep < 0 || len(nodes) < keep {
			nodes = append(nodes, sc.node)
		}
	}
	sc.Close()
	if sc.err != nil {
		return nil, sc.err
	}
	return &Merged{StreamSummary: *sc.sum, Nodes: nodes}, nil
}

// Close terminates the merge: every shard cursor is closed (cancelling its
// query and withdrawing prefetches). Idempotent; always returns nil.
func (sc *StreamCursor) Close() error {
	if sc.closed {
		return nil
	}
	sc.close()
	sc.closed = true
	if sc.sum == nil {
		sc.buildSummary()
	}
	return nil
}

func (sc *StreamCursor) close() {
	sc.cancel()
	for _, s := range sc.streams {
		sc.settle(s)
	}
	sc.h = nil
}

func (sc *StreamCursor) finish() {
	sc.done = true
	sc.close()
	sc.buildSummary()
}

func (sc *StreamCursor) fail(err error) {
	sc.err = err
	sc.done = true
	sc.close()
	sc.buildSummary()
}

func (sc *StreamCursor) buildSummary() {
	sum := &StreamSummary{
		Count:        sc.yielded,
		SpineMatches: sc.spineMatches,
		Degraded:     sc.failures,
		Partial:      len(sc.failures) > 0,
	}
	byShard := make(map[int]ShardStat, len(sc.c.sessions))
	for _, st := range sc.stats {
		byShard[st.Shard] = st
	}
	for _, f := range sc.failures {
		byShard[f.Shard] = ShardStat{Shard: f.Shard, Failed: true, Kind: f.Kind}
	}
	for i := range sc.c.sessions {
		st, ok := byShard[i]
		if !ok {
			// Closed or capped before this shard drained; report what it
			// contributed to the merge.
			for _, s := range sc.streams {
				if s.shard == i {
					st = ShardStat{Shard: i, Count: s.count}
					break
				}
			}
			st.Shard = i
		}
		sum.PerShard = append(sum.PerShard, st)
	}
	if sum.Partial {
		sc.c.partials.Add(1)
	}
	sc.sum = sum
}
