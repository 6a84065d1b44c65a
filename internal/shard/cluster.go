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
	// NoCountCache disables the per-shard epoch-keyed count cache (on by
	// default). Count-only scatters reuse a shard's last count for a path
	// while that shard's publish epoch is unchanged — a commit on one
	// shard invalidates only that shard's entries, which is where a
	// sharded cluster earns read throughput a single volume cannot: under
	// a mixed workload, most shards' cached counts survive every write.
	NoCountCache bool
	// Txn tunes each shard volume's transaction manager; the zero value is
	// the library default, as on a single volume.
	Txn pathdb.TxnOptions
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
	Cached   bool // count served from the epoch-keyed cache, no execution
	CostV    stats.Ticks
	VirtLat  stats.Ticks // submit-to-done on the shard's virtual clock
	WallExec int64       // nanoseconds
	Failed   bool
	Kind     pathdb.ErrorKind // set when Failed
}

// countCache memoizes one volume's count per path, keyed by the volume's
// publish epoch: any commit on the volume bumps the epoch and silently
// invalidates every entry. Entries are only served while the stored epoch
// matches the volume's current one, so cached counts are always exactly
// what a fresh query would return.
type countCache struct {
	mu   sync.RWMutex
	m    map[string]countEntry
	hits atomic.Int64
}

type countEntry struct {
	epoch uint64
	count int
}

// countCacheLimit bounds distinct paths held per volume; the whole map is
// dropped past it (the workload re-warms in one round).
const countCacheLimit = 4096

func (cc *countCache) get(path string, epoch uint64) (int, bool) {
	cc.mu.RLock()
	e, ok := cc.m[path]
	cc.mu.RUnlock()
	if !ok || e.epoch != epoch {
		return 0, false
	}
	cc.hits.Add(1)
	return e.count, true
}

// getWalk is get with a second chance for stale entries: when the entry's
// epoch lags the volume's, keep may prove the intervening commits left the
// path's count unchanged (a journal walk), in which case the entry is
// carried forward and served. This catches the gap between a commit
// publishing its epoch and the writer journaling it — eager revalidation
// only runs once the commit's WAL flush has been acknowledged.
func (cc *countCache) getWalk(path string, epoch uint64, keep func(entryEpoch uint64, path string) bool) (int, bool) {
	cc.mu.RLock()
	e, ok := cc.m[path]
	cc.mu.RUnlock()
	if !ok {
		return 0, false
	}
	if e.epoch != epoch {
		if e.epoch > epoch || keep == nil || !keep(e.epoch, path) {
			return 0, false
		}
		cc.mu.Lock()
		if cur, ok := cc.m[path]; ok && cur.epoch == e.epoch {
			cur.epoch = epoch
			cc.m[path] = cur
		}
		cc.mu.Unlock()
	}
	cc.hits.Add(1)
	return e.count, true
}

// put stores a count computed while the volume sat at epoch. If a commit
// raced the query, the volume's epoch has already moved on and the stale
// entry simply never matches again.
func (cc *countCache) put(path string, epoch uint64, count int) {
	cc.mu.Lock()
	if cc.m == nil || len(cc.m) >= countCacheLimit {
		cc.m = make(map[string]countEntry)
	}
	cc.m[path] = countEntry{epoch: epoch, count: count}
	cc.mu.Unlock()
}

// revalidateTo carries an entry forward to epoch to when keep can prove,
// starting from the entry's own stored epoch, that every commit between
// them left the path's count unchanged. Each entry is judged against its
// own epoch, so group-committed windows and interleaved inserts revalidate
// entry by entry instead of all-or-nothing per window.
func (cc *countCache) revalidateTo(to uint64, keep func(entryEpoch uint64, path string) bool) {
	cc.mu.Lock()
	for p, e := range cc.m {
		if e.epoch < to && keep(e.epoch, p) {
			e.epoch = to
			cc.m[p] = e
		}
	}
	cc.mu.Unlock()
}

// pathTokensIfSimple returns path's step-name tokens when path is a simple
// downward path — name steps joined by / and //, possibly @-attribute
// steps, nothing else. Predicates, wildcards and functions disqualify it
// (second return false): through those, an insert could change the count
// in ways name disjointness cannot rule out.
func pathTokensIfSimple(path string) (map[string]bool, bool) {
	for i := 0; i < len(path); i++ {
		if c := path[i]; !isNameChar(c) && c != '/' && c != '@' {
			return nil, false
		}
	}
	return nameTokens(path), true
}

// updateIndependent conservatively decides whether inserting fragment can
// change the match count of path (the classic XPath/update independence
// test, reduced to its sound core): only simple downward paths are
// considered, and the inserted fragment must share no name token with the
// path. New nodes can only extend the matches of a path whose final step
// names one of them, and a simple path has no predicates or wildcards
// through which existing matches could be gained or lost, so disjoint
// names mean the count is provably unchanged.
func updateIndependent(path, fragment string) bool {
	ptoks, simple := pathTokensIfSimple(path)
	if !simple {
		return false
	}
	frag := nameTokens(fragment)
	for t := range ptoks {
		if frag[t] {
			return false
		}
	}
	return true
}

func isNameChar(c byte) bool {
	return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' ||
		c == '_' || c == '-' || c == '.' || c == ':'
}

// nameTokens returns the maximal name-character runs of s — for a
// fragment that over-approximates its tag and attribute names (text
// content included, which only errs toward dependence), for a path its
// step names.
func nameTokens(s string) map[string]bool {
	out := make(map[string]bool)
	start := -1
	for i := 0; i <= len(s); i++ {
		if i < len(s) && isNameChar(s[i]) {
			if start < 0 {
				start = i
			}
			continue
		}
		if start >= 0 {
			out[s[start:i]] = true
			start = -1
		}
	}
	return out
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

	// Per-shard count caches plus one for the spine volume; nil slices
	// when Config.NoCountCache is set.
	caches     []*countCache
	spineCache *countCache

	// parentNodes memoizes resolved insert-parent handles per shard
	// (path → pathdb.Node). MVCC keeps a node handle stable across
	// commits until the node is deleted, so inserts only invalidate
	// nothing and deletes clear the whole map; a handle lost to a racing
	// delete surfaces as the same conflict error the uncached path hits.
	parentNodes []sync.Map

	// journals records recent insert commits per shard, keyed by exact
	// publish epoch, so cache revalidation can attribute every epoch a
	// stale entry must cross — including epochs published by concurrent
	// group-committed inserts.
	journals []shardJournal

	writeSeq     atomic.Uint64
	partials     atomic.Int64
	degradedHits []atomic.Int64
}

// shardJournal is a short per-shard log of insert commits, each tagged
// with the exact epoch the transaction published (Engine.UpdateEpoch
// assigns it under the staging lock, so the mapping is unambiguous even
// when group commit interleaves writers). A cache entry stored at epoch E
// may carry forward to epoch E' only when every epoch in (E, E'] appears
// here with a fragment update-independent of the entry's path. Deletes
// never journal, so any delete in the window breaks attribution and the
// entry takes the full invalidation.
type shardJournal struct {
	mu      sync.Mutex
	commits []journalCommit
}

type journalCommit struct {
	epoch uint64
	toks  map[string]bool // inserted fragment's name tokens
}

// journalDepth bounds each shard's commit log; windows reaching further
// back than this simply fail attribution.
const journalDepth = 32

// attributable reports whether every epoch in (from, to] on shard s is a
// journaled insert whose fragment is update-independent of path — the
// proof obligation for carrying a cached count at epoch from forward to
// epoch to. Any unjournaled epoch in the window (a delete, an insert not
// yet acknowledged, or history evicted past journalDepth) fails it.
func (c *Cluster) attributable(s int, from, to uint64, path string) bool {
	if to <= from || to-from > journalDepth {
		return false
	}
	ptoks, simple := pathTokensIfSimple(path)
	if !simple {
		return false
	}
	j := &c.journals[s]
	j.mu.Lock()
	defer j.mu.Unlock()
	for e := from + 1; e <= to; e++ {
		ok := false
		for i := len(j.commits) - 1; i >= 0; i-- {
			if j.commits[i].epoch != e {
				continue
			}
			ok = true
			for t := range ptoks {
				if j.commits[i].toks[t] {
					return false
				}
			}
			break
		}
		if !ok {
			return false
		}
	}
	return true
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
		parentNodes:  make([]sync.Map, cfg.Shards),
		journals:     make([]shardJournal, cfg.Shards),
	}
	for _, db := range set.Shards {
		// Best effort: a volume that has already committed keeps the
		// options its first write froze.
		_ = db.SetTxnOptions(cfg.Txn)
		eng := db.NewEngine(cfg.Engine)
		db.ResetStats()
		c.engines = append(c.engines, eng)
		c.sessions = append(c.sessions, eng.NewSession())
	}
	if !cfg.NoCountCache {
		c.caches = make([]*countCache, cfg.Shards)
		for i := range c.caches {
			c.caches[i] = &countCache{}
		}
		c.spineCache = &countCache{}
	}
	if set.Spine != nil {
		_ = set.Spine.SetTxnOptions(cfg.Txn)
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

// Check compiles path against shard 0 (all volumes share one dictionary,
// so compilation is shard-independent) without executing anything. The
// router uses it to turn malformed paths into 400s before scattering.
func (c *Cluster) Check(path string) error {
	_, err := c.set.Shards[0].Query(path)
	return err
}

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

// Query fans path across every shard (and the spine volume), gathers with
// the configured failure policy, and merges the counts. With wantNodes it
// drains Stream instead, so the nodes come back in global document order.
// The caller's ctx deadline and cancellation propagate to every shard
// query; under PolicyAll the first shard failure cancels the rest of the
// scatter.
func (c *Cluster) Query(ctx context.Context, path string, opts pathdb.QueryOptions, wantNodes bool) (*Merged, error) {
	if wantNodes {
		sc, err := c.Stream(ctx, path, opts)
		if err != nil {
			return nil, err
		}
		return sc.Drain(-1)
	}
	n := len(c.engines)

	// Count-only scatters consult the epoch-keyed caches first: a shard
	// whose count for this path is still valid at its current publish
	// epoch is not queried at all.
	useCache := c.caches != nil
	hit := make([]bool, n)
	cachedCount := make([]int, n)
	epochs := make([]uint64, n)
	spineHit := false
	spineCachedCount := 0
	var spineEpoch uint64
	if useCache {
		for i := 0; i < n; i++ {
			epochs[i] = c.set.Shards[i].TxnMetrics().Epoch
			cachedCount[i], hit[i] = c.caches[i].getWalk(path, epochs[i],
				func(from uint64, p string) bool { return c.attributable(i, from, epochs[i], p) })
		}
		if c.spineSes != nil {
			spineEpoch = c.set.Spine.TxnMetrics().Epoch
			spineCachedCount, spineHit = c.spineCache.get(path, spineEpoch)
		}
	}

	scatterCtx := ctx
	var cancel context.CancelFunc
	if c.cfg.Policy == PolicyAll {
		scatterCtx, cancel = context.WithCancel(ctx)
		defer cancel()
	}

	type shardOut struct {
		res pathdb.ExecResult
		err error
	}
	outs := make([]shardOut, n)
	var spineRes pathdb.ExecResult
	var spineErr error

	var wg sync.WaitGroup
	if c.spineSes != nil && !spineHit {
		wg.Add(1)
		go func() {
			defer wg.Done()
			spineRes, spineErr = c.spineSes.Do(scatterCtx, path, opts)
		}()
	}
	for i := 0; i < n; i++ {
		if hit[i] {
			continue
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := c.sessions[i].TryDo(scatterCtx, path, opts)
			outs[i] = shardOut{res, err}
			if err != nil && cancel != nil {
				cancel()
			}
		}(i)
	}
	wg.Wait()

	if useCache {
		for i := 0; i < n; i++ {
			if !hit[i] && outs[i].err == nil {
				c.caches[i].put(path, epochs[i], outs[i].res.Count())
			}
		}
		if c.spineSes != nil && !spineHit && spineErr == nil {
			c.spineCache.put(path, spineEpoch, spineRes.Count())
		}
	}

	// Classify the gather: tolerable storage faults become degradation
	// candidates, anything else is fatal. Cancellation errors induced by
	// our own PolicyAll cancel must not mask the failure that caused them.
	var failures []ShardFailure
	var answered []int
	var fatal error
	for i := 0; i < n; i++ {
		if hit[i] {
			answered = append(answered, i)
			continue
		}
		err := outs[i].err
		if err == nil {
			answered = append(answered, i)
			continue
		}
		if tolerable(err) {
			failures = append(failures, ShardFailure{Shard: i, Kind: pathdb.KindOf(err), Err: err})
			c.degradedHits[i].Add(1)
			continue
		}
		if fatal == nil || (pathdb.KindOf(fatal) == pathdb.KindCanceled && pathdb.KindOf(err) != pathdb.KindCanceled) {
			fatal = err
		}
	}
	if fatal != nil && pathdb.KindOf(fatal) != pathdb.KindCanceled {
		return nil, fatal
	}
	// Under PolicyAll the first shard failure cancelled the scatter; the
	// cancellations it induced must not mask it.
	if len(failures) > 0 && c.cfg.Policy == PolicyAll {
		return nil, failures[0].Err
	}
	if fatal != nil {
		return nil, fatal
	}
	if len(answered) < c.cfg.Quorum {
		return nil, &QuorumError{Healthy: len(answered), Needed: c.cfg.Quorum, Failures: failures}
	}

	// Spine arithmetic. The spine query runs on a fault-free volume; an
	// error here is a deadline or cancellation shared with the scatter.
	spineCount := 0
	if c.spineSes != nil {
		if spineHit {
			spineCount = spineCachedCount
		} else {
			if spineErr != nil {
				return nil, spineErr
			}
			spineCount = spineRes.Count()
		}
	}

	m := &Merged{StreamSummary: StreamSummary{
		SpineMatches: spineCount,
		Degraded:     failures,
		Partial:      len(failures) > 0,
		PerShard:     make([]ShardStat, 0, n),
	}}
	if m.Partial {
		c.partials.Add(1)
	}
	localCount := func(i int) int {
		if hit[i] {
			return cachedCount[i]
		}
		return outs[i].res.Count()
	}
	for i := 0; i < n; i++ {
		if hit[i] {
			m.PerShard = append(m.PerShard, ShardStat{
				Shard:  i,
				Count:  cachedCount[i],
				Cached: true,
			})
			continue
		}
		if outs[i].err != nil {
			m.PerShard = append(m.PerShard, ShardStat{
				Shard:  i,
				Failed: true,
				Kind:   pathdb.KindOf(outs[i].err),
			})
			continue
		}
		r := &outs[i].res
		m.PerShard = append(m.PerShard, ShardStat{
			Shard:    i,
			Count:    r.Count(),
			Strategy: r.Strategy,
			Shared:   r.Shared,
			CostV:    r.CostV,
			VirtLat:  r.VirtualLatency,
			WallExec: r.WallExec.Nanoseconds(),
		})
	}

	// Merge counts: every answering shard reports the same spine matches
	// (replicated, identical order keys), so count them exactly once.
	for idx, i := range answered {
		m.Count += localCount(i)
		if idx > 0 {
			m.Count -= spineCount
		}
	}
	return m, nil
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

	var parentNode pathdb.Node
	if v, ok := c.parentNodes[owner].Load(parent); ok {
		parentNode = v.(pathdb.Node)
	} else {
		res, err := c.sessions[owner].Do(ctx, parent, pathdb.QueryOptions{})
		if err != nil {
			return InsertResult{}, err
		}
		if res.Count() != 1 {
			return InsertResult{}, &ParentError{Path: parent, Matches: res.Count()}
		}
		parentNode = res.Nodes[0]
		c.parentNodes[owner].Store(parent, parentNode)
	}
	var inserted pathdb.Node
	epoch, err := c.engines[owner].UpdateEpoch(func(tx *pathdb.Tx) error {
		nd, err := tx.InsertXML(parentNode, fragment)
		if err != nil {
			return err
		}
		inserted = nd
		return nil
	})
	if err != nil {
		c.parentNodes[owner].Delete(parent)
		return InsertResult{}, err
	}
	// Carry the owner's cached counts forward past this commit's epoch for
	// paths the intervening commits provably cannot affect. Each stale
	// entry walks the journal from its own epoch: every epoch it crosses
	// must be a journaled insert whose fragment is update-independent of
	// the entry's path, or the entry takes the full invalidation.
	if c.caches != nil {
		j := &c.journals[owner]
		j.mu.Lock()
		j.commits = append(j.commits, journalCommit{epoch: epoch, toks: nameTokens(fragment)})
		if len(j.commits) > journalDepth {
			j.commits = j.commits[len(j.commits)-journalDepth:]
		}
		j.mu.Unlock()
		c.caches[owner].revalidateTo(epoch, func(entryEpoch uint64, p string) bool {
			return c.attributable(owner, entryEpoch, epoch, p)
		})
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
	// Any deleted subtree may have been a memoized insert parent.
	for i := range c.parentNodes {
		c.parentNodes[i].Range(func(k, _ any) bool {
			c.parentNodes[i].Delete(k)
			return true
		})
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
	CacheHits    int64 // counts served from the epoch-keyed cache without execution
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
		if c.caches != nil {
			out[i].CacheHits = c.caches[i].hits.Load()
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
