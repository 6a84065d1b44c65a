package shard

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"pathdb"
	"pathdb/internal/stats"
	"pathdb/internal/storage"
)

// Policy selects how the scatter-gather coordinator treats shard failures.
type Policy uint8

const (
	// PolicyQuorum tolerates degraded shards: a query succeeds with a
	// partial (typed, non-500) result as long as at least Quorum shards
	// answer. Only storage-level faults (KindIO, KindCorrupt) count as
	// tolerable degradation; overload, timeout and cancellation still fail
	// the whole request so backpressure and deadlines keep their meaning.
	PolicyQuorum Policy = iota
	// PolicyAll demands every shard: the first failure cancels the
	// remaining shard queries and fails the request.
	PolicyAll
)

// ParsePolicy parses "quorum" or "all".
func ParsePolicy(s string) (Policy, error) {
	switch s {
	case "", "quorum":
		return PolicyQuorum, nil
	case "all":
		return PolicyAll, nil
	}
	return PolicyQuorum, fmt.Errorf("shard: unknown policy %q (want quorum or all)", s)
}

func (p Policy) String() string {
	if p == PolicyAll {
		return "all"
	}
	return "quorum"
}

// Config tunes a Cluster.
type Config struct {
	// Shards is the volume count (>= 1).
	Shards int
	// Replicas is the ring's virtual-node count per shard
	// (DefaultReplicas when 0).
	Replicas int
	// Policy picks the degraded-shard behaviour (default PolicyQuorum).
	Policy Policy
	// Quorum is the minimum number of successfully answering shards for a
	// partial result under PolicyQuorum (default Shards/2+1).
	Quorum int
	// Engine configures each shard's engine (and the spine volume's).
	Engine pathdb.EngineConfig
}

func (c Config) withDefaults() Config {
	if c.Shards < 1 {
		c.Shards = 1
	}
	if c.Quorum <= 0 || c.Quorum > c.Shards {
		c.Quorum = c.Shards/2 + 1
	}
	return c
}

// ParentError reports an update whose parent path did not resolve to
// exactly one node cluster-wide — a client error, not a shard fault.
type ParentError struct {
	Path    string
	Matches int
}

func (e *ParentError) Error() string {
	if e.Matches == 0 {
		return fmt.Sprintf("shard: parent path %q matched no node", e.Path)
	}
	return fmt.Sprintf("shard: parent path %q matched %d nodes, want exactly 1", e.Path, e.Matches)
}

// QuorumError reports a scatter that lost too many shards to degradation.
// It unwraps to the first shard failure so the typed error taxonomy
// (pathdb.KindOf) still classifies it.
type QuorumError struct {
	Healthy  int
	Needed   int
	Failures []ShardFailure
}

func (e *QuorumError) Error() string {
	return fmt.Sprintf("shard: quorum lost: %d shards answered, need %d (%d degraded)",
		e.Healthy, e.Needed, len(e.Failures))
}

func (e *QuorumError) Unwrap() error { return e.Failures[0].Err }

// ShardFailure is one shard's failure within a scatter.
type ShardFailure struct {
	Shard int
	Kind  pathdb.ErrorKind
	Err   error
}

// ShardStat is one shard's contribution to a merged query result.
type ShardStat struct {
	Shard    int
	Count    int             // local matches (spine matches included)
	Strategy pathdb.Strategy // strategy the shard's own chooser picked
	Shared   bool
	CostV    stats.Ticks
	VirtLat  stats.Ticks // submit-to-done on the shard's virtual clock
	WallExec int64       // nanoseconds
	Failed   bool
	Kind     pathdb.ErrorKind // set when Failed
}

// ShardNode is one merged result node tagged with its source shard.
type ShardNode struct {
	Shard int
	Node  pathdb.Node
}

// Merged is a scatter-gather query result: the scatter's summary plus, when
// the caller asked for them, the merged nodes in global document order with
// spine replicas contributed once.
type Merged struct {
	StreamSummary
	Nodes []ShardNode
}

// Cluster is the scatter-gather coordinator over one ShardSet: N
// independent volumes, each behind its own engine, plus the spine volume
// used to merge replicated matches exactly once. All methods are safe for
// concurrent use.
type Cluster struct {
	cfg  Config
	ring *Ring
	set  *pathdb.ShardSet

	engines  []*pathdb.Engine
	sessions []*pathdb.Session

	spineEng *pathdb.Engine
	spineSes *pathdb.Session

	writeSeq     atomic.Uint64
	partials     atomic.Int64
	degradedHits []atomic.Int64
}

// New builds a Cluster over an already-split ShardSet. ring must cover
// len(set.Shards) shards; pass nil to build one from cfg.
func New(set *pathdb.ShardSet, ring *Ring, cfg Config) (*Cluster, error) {
	cfg.Shards = len(set.Shards)
	cfg = cfg.withDefaults()
	if ring == nil {
		ring = NewRing(cfg.Shards, cfg.Replicas)
	}
	if ring.Shards() != cfg.Shards {
		return nil, fmt.Errorf("shard: ring covers %d shards, set has %d", ring.Shards(), cfg.Shards)
	}
	c := &Cluster{
		cfg:          cfg,
		ring:         ring,
		set:          set,
		degradedHits: make([]atomic.Int64, cfg.Shards),
	}
	for _, db := range set.Shards {
		eng := db.NewEngine(cfg.Engine)
		db.ResetStats()
		c.engines = append(c.engines, eng)
		c.sessions = append(c.sessions, eng.NewSession())
	}
	if set.Spine != nil {
		// The spine volume is tiny; its engine serves one spine probe per
		// in-flight request.
		c.spineEng = set.Spine.NewEngine(pathdb.EngineConfig{
			MaxInFlight: cfg.Engine.MaxInFlight,
			QueueDepth:  cfg.Engine.QueueDepth,
		})
		set.Spine.ResetStats()
		c.spineSes = c.spineEng.NewSession()
	}
	return c, nil
}

// NewXMark generates the XMark corpus, splits it across cfg.Shards volumes
// placed by a fresh ring, and starts the cluster.
func NewXMark(x pathdb.XMarkConfig, opts pathdb.Options, cfg Config) (*Cluster, error) {
	cfg = cfg.withDefaults()
	ring := NewRing(cfg.Shards, cfg.Replicas)
	set, err := pathdb.GenerateXMarkSharded(x, opts, cfg.Shards, ring.Place)
	if err != nil {
		return nil, err
	}
	return New(set, ring, cfg)
}

// NewXML parses one XML document, splits it, and starts the cluster.
func NewXML(data []byte, opts pathdb.Options, cfg Config) (*Cluster, error) {
	cfg = cfg.withDefaults()
	ring := NewRing(cfg.Shards, cfg.Replicas)
	set, err := pathdb.LoadXMLSharded(data, opts, cfg.Shards, ring.Place)
	if err != nil {
		return nil, err
	}
	return New(set, ring, cfg)
}

// Shards returns the shard count.
func (c *Cluster) Shards() int { return len(c.engines) }

// Ring returns the placement ring (shared with the cluster; marking a
// shard degraded there steers PlaceWrite immediately).
func (c *Cluster) Ring() *Ring { return c.ring }

// Set returns the underlying ShardSet.
func (c *Cluster) Set() *pathdb.ShardSet { return c.set }

// CheckFragment validates an XML fragment without committing anything (all
// volumes share one dictionary, so shard 0 speaks for the cluster).
func (c *Cluster) CheckFragment(frag string) error {
	return c.set.Shards[0].CheckFragment(frag)
}

// SetFaults installs a fault schedule on one shard's volume — the seeded
// fault plane driving the degraded-shard story end to end.
func (c *Cluster) SetFaults(s int, f pathdb.FaultConfig) {
	c.set.Shards[s].SetFaults(f)
}

// MarkDegraded marks shard s degraded on the ring (writes route around
// it); reads keep scattering to it and rely on Policy to absorb faults.
func (c *Cluster) MarkDegraded(s int, v bool) { c.ring.SetDegraded(s, v) }

// Partials returns how many queries completed with a partial result.
func (c *Cluster) Partials() int64 { return c.partials.Load() }

// tolerable reports whether a shard failure counts as degradation the
// quorum policy may absorb: only storage faults. Everything else
// (overload, timeout, cancellation, closed) fails the request.
func tolerable(err error) bool {
	switch pathdb.KindOf(err) {
	case pathdb.KindIO, pathdb.KindCorrupt:
		return true
	}
	return false
}

// Query runs path through the cluster's one merge, Stream, and drains it:
// the merged nodes in global document order with wantNodes, the count
// alone without. A count is the merge's yield, so it follows the stream's
// failure policy, spine dedup and Limit cap exactly.
func (c *Cluster) Query(ctx context.Context, path string, opts pathdb.QueryOptions, wantNodes bool) (*Merged, error) {
	sc, err := c.Stream(ctx, path, opts)
	if err != nil {
		return nil, err
	}
	if wantNodes {
		return sc.Drain(-1)
	}
	return sc.Drain(0)
}

// InsertResult reports a routed insert.
type InsertResult struct {
	Shard int         // shard that now owns the inserted subtree
	Node  pathdb.Node // root of the inserted fragment
	Epoch uint64      // owning shard's publish epoch after commit
}

// Insert routes one insert to its owning shard. The parent path must
// resolve to exactly one node cluster-wide. A parent on the replicated
// spine exists on every shard, so the ring picks a healthy home for the
// new subtree (consistent hashing over parent+sequence keeps placement
// balanced and away from degraded shards); an entity parent lives on
// exactly one shard, which must take the write.
func (c *Cluster) Insert(ctx context.Context, parent, fragment string) (InsertResult, error) {
	m, err := c.Query(ctx, parent, pathdb.QueryOptions{}, false)
	if err != nil {
		return InsertResult{}, err
	}
	if m.Count != 1 {
		return InsertResult{}, &ParentError{Path: parent, Matches: m.Count}
	}

	owner := -1
	if m.SpineMatches == 1 || len(c.engines) == 1 {
		key := fmt.Sprintf("%s@%d", parent, c.writeSeq.Add(1))
		owner = c.ring.PlaceWrite(key)
	} else {
		for _, ps := range m.PerShard {
			if !ps.Failed && ps.Count == 1 {
				owner = ps.Shard
				break
			}
		}
		if owner == -1 {
			// The only copy of the parent sits on a shard that faulted.
			return InsertResult{}, m.Degraded[0].Err
		}
	}

	res, err := c.sessions[owner].Do(ctx, parent, pathdb.QueryOptions{})
	if err != nil {
		return InsertResult{}, err
	}
	if res.Count() != 1 {
		return InsertResult{}, &ParentError{Path: parent, Matches: res.Count()}
	}
	var inserted pathdb.Node
	epoch, err := c.engines[owner].UpdateEpoch(func(tx *pathdb.Tx) error {
		nd, err := tx.InsertXML(res.Nodes[0], fragment)
		if err != nil {
			return err
		}
		inserted = nd
		return nil
	})
	if err != nil {
		return InsertResult{}, err
	}
	return InsertResult{
		Shard: owner,
		Node:  inserted,
		Epoch: epoch,
	}, nil
}

// DeleteResult reports a fanned-out delete.
type DeleteResult struct {
	// Deleted is the cluster-wide number of subtree roots removed
	// (replicated spine matches counted once).
	Deleted int
	// PerShard is how many subtree roots each shard removed locally.
	PerShard []int
}

// Delete removes every match of path on every shard. Spine matches are
// replicated, so the delete must land on all shards (and on the spine
// volume, kept in lockstep for future merges); a shard failure therefore
// aborts the whole delete rather than leave replicas diverged — writes
// choose consistency where reads choose availability.
func (c *Cluster) Delete(ctx context.Context, path string) (DeleteResult, error) {
	m, err := c.Query(ctx, path, pathdb.QueryOptions{}, false)
	if err != nil {
		return DeleteResult{}, err
	}
	if m.Partial {
		return DeleteResult{}, m.Degraded[0].Err
	}
	out := DeleteResult{PerShard: make([]int, len(c.engines))}
	if m.Count == 0 {
		return out, nil
	}

	var wg sync.WaitGroup
	errs := make([]error, len(c.engines)+1)
	deleteOn := func(ses *pathdb.Session, eng *pathdb.Engine) (int, error) {
		res, err := ses.Do(ctx, path, pathdb.QueryOptions{})
		if err != nil {
			return 0, err
		}
		if res.Count() == 0 {
			return 0, nil
		}
		err = eng.Update(func(tx *pathdb.Tx) error {
			for _, nd := range res.Nodes {
				if err := tx.Delete(nd); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return 0, err
		}
		return res.Count(), nil
	}
	for i := range c.engines {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			out.PerShard[i], errs[i] = deleteOn(c.sessions[i], c.engines[i])
		}(i)
	}
	if c.spineSes != nil && m.SpineMatches > 0 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, errs[len(c.engines)] = deleteOn(c.spineSes, c.spineEng)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return DeleteResult{}, err
		}
	}
	out.Deleted = m.Count
	return out, nil
}

// ShardMetrics is one shard's full observability snapshot.
type ShardMetrics struct {
	Shard        int
	Pages        int
	Engine       pathdb.EngineMetrics
	Txn          pathdb.TxnMetrics
	Ledger       stats.Ledger
	Derived      storage.DerivedMetrics
	DegradedHits int64 // queries this shard failed with a tolerable storage fault
	// CacheHits always reads 0: a count runs through the merge, with no
	// cache in front of it. The benchmark's shard.count_cache_hit_frac
	// still reads it; both go with Benchmark v2.
	CacheHits int64
}

// Metrics snapshots every shard.
func (c *Cluster) Metrics() []ShardMetrics {
	out := make([]ShardMetrics, len(c.engines))
	for i, eng := range c.engines {
		out[i] = ShardMetrics{
			Shard:        i,
			Pages:        c.set.Shards[i].Pages(),
			Engine:       eng.Metrics(),
			Txn:          eng.TxnMetrics(),
			Ledger:       eng.CostLedger(),
			Derived:      c.set.Shards[i].DerivedMetrics(),
			DegradedHits: c.degradedHits[i].Load(),
		}
	}
	return out
}

// Shutdown drains every engine gracefully (spine included); ctx bounds the
// whole drain.
func (c *Cluster) Shutdown(ctx context.Context) error {
	engines := append([]*pathdb.Engine{}, c.engines...)
	if c.spineEng != nil {
		engines = append(engines, c.spineEng)
	}
	errs := make([]error, len(engines))
	var wg sync.WaitGroup
	for i, eng := range engines {
		wg.Add(1)
		go func(i int, eng *pathdb.Engine) {
			defer wg.Done()
			errs[i] = eng.Shutdown(ctx)
		}(i, eng)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Close hard-stops every engine.
func (c *Cluster) Close() {
	for _, eng := range c.engines {
		eng.Close()
	}
	if c.spineEng != nil {
		c.spineEng.Close()
	}
}
