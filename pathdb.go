// Package pathdb is a small XML path-query engine built around
// cost-sensitive reordering of navigational primitives (Kanne, Brantner,
// Moerkotte; SIGMOD 2005).
//
// Documents are stored in a paged tree store whose clusters (pages) are
// connected subtree fragments with explicit border nodes at inter-cluster
// edges. Location paths are evaluated by a physical algebra over *partial
// path instances*: cheap intra-cluster navigation runs immediately
// (XStep), while every expensive cluster load is pooled in a single
// I/O-performing operator — XSchedule (asynchronous, reordered I/O) or
// XScan (one sequential scan with speculative evaluation) — and a
// cost-based chooser picks between them per query.
//
// Quick start:
//
//	db, err := pathdb.LoadXMLString(`<a><b/><b/></a>`, pathdb.Options{})
//	q, err := db.Query("/a/b")
//	n := q.Count()
//
// All I/O runs against a deterministic simulated disk with a calibrated
// 2005-era cost model; db.CostReport() returns the virtual time, CPU
// share and physical counters of the work done since the last reset.
package pathdb

import (
	"context"
	"fmt"
	"io"
	"strings"

	"pathdb/internal/core"
	"pathdb/internal/engine"
	"pathdb/internal/ordpath"
	"pathdb/internal/plan"
	"pathdb/internal/stats"
	"pathdb/internal/storage"
	"pathdb/internal/txn"
	"pathdb/internal/vdisk"
	"pathdb/internal/xmark"
	"pathdb/internal/xmlparse"
	"pathdb/internal/xmltree"
	"pathdb/internal/xmlwrite"
	"pathdb/internal/xpath"
)

// Strategy selects the physical evaluation method.
type Strategy uint8

// Evaluation strategies. Auto lets the cost model pick the cheapest of
// the three for the path and the current state of the buffer pool:
// Schedule or Scan while pages still have to be read, Simple (the paper's
// baseline) once the volume is resident.
const (
	Auto Strategy = iota
	Simple
	Schedule
	Scan
)

func (s Strategy) String() string {
	switch s {
	case Auto:
		return "auto"
	case Simple:
		return "simple"
	case Schedule:
		return "xschedule"
	case Scan:
		return "xscan"
	default:
		return fmt.Sprintf("strategy(%d)", uint8(s))
	}
}

// ParseStrategy parses a strategy name, round-tripping Strategy.String:
// "auto", "simple", "xschedule" and "xscan" (case-insensitive; the
// paper-agnostic aliases "schedule" and "scan" are also accepted). Every
// command-line tool resolves its -strategy flag through this function.
func ParseStrategy(s string) (Strategy, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "auto":
		return Auto, nil
	case "simple":
		return Simple, nil
	case "xschedule", "schedule":
		return Schedule, nil
	case "xscan", "scan":
		return Scan, nil
	}
	return Auto, fmt.Errorf("pathdb: unknown strategy %q (want auto, simple, xschedule or xscan)", s)
}

func (s Strategy) internal() core.Strategy {
	switch s {
	case Simple:
		return core.StrategySimple
	case Scan:
		return core.StrategyScan
	default:
		return core.StrategySchedule
	}
}

// PredEval selects the evaluator for step predicates ([path] and
// [path = "lit"] filters).
type PredEval uint8

// Predicate evaluators. PredAuto picks the set-at-a-time structural
// semi-join (XJoin) when the path has a joinable predicate branch and the
// volume's derived cache has room for the levels the join lacks, and
// per-candidate probing (PredFilter) otherwise.
const (
	PredAuto PredEval = iota
	PredNested
	PredJoin
)

func (p PredEval) String() string {
	switch p {
	case PredAuto:
		return "auto"
	case PredNested:
		return "nested"
	case PredJoin:
		return "join"
	default:
		return fmt.Sprintf("predeval(%d)", uint8(p))
	}
}

func (p PredEval) internal() core.PredEval {
	switch p {
	case PredNested:
		return core.PredNested
	case PredJoin:
		return core.PredJoin
	default:
		return core.PredAuto
	}
}

func fromCorePredEval(p core.PredEval) PredEval {
	switch p {
	case core.PredNested:
		return PredNested
	case core.PredJoin:
		return PredJoin
	default:
		return PredAuto
	}
}

// Layout selects the physical cluster placement at load time.
type Layout uint8

// Cluster layouts (see the paper's introduction on why layout matters).
const (
	// Natural keeps document order but displaces a fraction of clusters,
	// modelling a database aged by updates. The default.
	Natural Layout = iota
	// Contiguous places clusters in document order — a freshly imported,
	// unfragmented database.
	Contiguous
	// Shuffled permutes all clusters randomly — heavy fragmentation.
	Shuffled
)

func (l Layout) internal() storage.Layout {
	switch l {
	case Contiguous:
		return storage.LayoutContiguous
	case Shuffled:
		return storage.LayoutShuffled
	default:
		return storage.LayoutNatural
	}
}

// Options configures document loading.
type Options struct {
	// PageSize in bytes (default 8192).
	PageSize int
	// BufferPages is the buffer-pool capacity (default 1000, the paper's
	// configuration).
	BufferPages int
	// Layout is the physical cluster placement (default Natural).
	Layout Layout
	// LayoutSeed makes fragmented layouts reproducible.
	LayoutSeed uint64
}

func (o Options) withDefaults() Options {
	if o.PageSize == 0 {
		o.PageSize = 8192
	}
	if o.BufferPages == 0 {
		o.BufferPages = storage.DefaultBufferPages
	}
	return o
}

// DB is one loaded document plus its evaluation machinery: the cost
// model's chooser and the MVCC transaction manager, both built when the
// document is loaded. Every reader pins a snapshot of the manager's
// current version, the initial one included. The embedded volumeAPI
// provides the write/transaction surface (Update, UpdateEpoch,
// TxnMetrics), shared with Engine.
type DB struct {
	volumeAPI

	dict  *xmltree.Dictionary
	store *storage.Store

	// chooser folds the clusters later commits rewrite into its statistics
	// by itself (plan.Chooser.Choose).
	chooser *plan.Chooser
	mgr     *txn.Manager
}

// newDB wires a loaded store into a DB, closing the volumeAPI self-link.
// The chooser sums the synopses the importer registered and reads no page;
// the manager writes none until the first commit.
func newDB(dict *xmltree.Dictionary, st *storage.Store) (*DB, error) {
	mgr, err := txn.NewManager(st, txn.Options{})
	if err != nil {
		return nil, err
	}
	db := &DB{dict: dict, store: st, chooser: plan.NewChooser(st), mgr: mgr}
	db.volumeAPI = volumeAPI{vol: db}
	return db, nil
}

// LoadXML parses an XML document and stores it.
func LoadXML(data []byte, opts Options) (*DB, error) {
	opts = opts.withDefaults()
	dict := xmltree.NewDictionary()
	doc, err := xmlparse.Parse(dict, data)
	if err != nil {
		return nil, err
	}
	return loadTree(dict, doc, opts)
}

// LoadXMLString is LoadXML over a string.
func LoadXMLString(src string, opts Options) (*DB, error) {
	return LoadXML([]byte(src), opts)
}

// LoadXMLCollection parses several XML documents and stores them in one
// volume. Absolute queries evaluate over the whole collection; a single
// XScan plan then serves all members with one sequential pass (Sec. 5.4.3
// of the paper covers collections explicitly).
func LoadXMLCollection(docs [][]byte, opts Options) (*DB, error) {
	opts = opts.withDefaults()
	dict := xmltree.NewDictionary()
	trees := make([]*xmltree.Node, len(docs))
	for i, data := range docs {
		t, err := xmlparse.Parse(dict, data)
		if err != nil {
			return nil, fmt.Errorf("document %d: %w", i, err)
		}
		trees[i] = t
	}
	disk := vdisk.New(vdisk.DefaultCostModel(), stats.NewLedger(), opts.PageSize)
	st, err := storage.ImportCollection(disk, dict, trees, storage.ImportOptions{
		PageSize: opts.PageSize,
		Layout:   opts.Layout.internal(),
		Seed:     opts.LayoutSeed,
	})
	if err != nil {
		return nil, err
	}
	st.SetBufferCapacity(opts.BufferPages)
	return newDB(dict, st)
}

// Documents returns the number of documents in the stored collection.
func (db *DB) Documents() int { return len(db.store.Roots()) }

// XMarkConfig configures the built-in XMark-shaped document generator.
type XMarkConfig struct {
	// ScaleFactor is the XMark scale factor (default 1).
	ScaleFactor float64
	// Seed makes the document reproducible.
	Seed uint64
	// EntityScale shrinks the standard XMark populations (default 0.1).
	EntityScale float64
}

// GenerateXMark builds and stores an XMark-shaped benchmark document.
func GenerateXMark(cfg XMarkConfig, opts Options) (*DB, error) {
	opts = opts.withDefaults()
	dict := xmltree.NewDictionary()
	doc := xmark.Generate(dict, xmark.Config{
		ScaleFactor: cfg.ScaleFactor,
		Seed:        cfg.Seed,
		EntityScale: cfg.EntityScale,
	})
	return loadTree(dict, doc, opts)
}

func loadTree(dict *xmltree.Dictionary, doc *xmltree.Node, opts Options) (*DB, error) {
	disk := vdisk.New(vdisk.DefaultCostModel(), stats.NewLedger(), opts.PageSize)
	st, err := storage.Import(disk, dict, doc, storage.ImportOptions{
		PageSize: opts.PageSize,
		Layout:   opts.Layout.internal(),
		Seed:     opts.LayoutSeed,
	})
	if err != nil {
		return nil, err
	}
	st.SetBufferCapacity(opts.withDefaults().BufferPages)
	return newDB(dict, st)
}

// Pages returns the number of data pages the document occupies, including
// clusters appended by updates.
func (db *DB) Pages() int { return db.store.NumDataPages() }

// ResetStats flushes the buffer pool and zeroes the cost ledger, so the
// next query is measured from a cold start.
func (db *DB) ResetStats() { db.store.ResetForRun() }

// DerivedMetrics returns the lifetime counters of the volume's derived
// cache: the structural join's levels, their builds and their advances
// across commits.
func (db *DB) DerivedMetrics() storage.DerivedMetrics {
	dc, _, _ := db.store.Derived()
	return dc.Metrics()
}

// CostReport is a snapshot of the virtual cost ledger.
type CostReport struct {
	Total       stats.Ticks
	CPU         stats.Ticks
	IOWait      stats.Ticks
	PageReads   int64
	SeqReads    int64
	BufferHits  int64
	BufferMiss  int64
	ClustersHit int64
}

// CostReport returns the work accounted since the last ResetStats.
func (db *DB) CostReport() CostReport {
	l := db.store.Ledger()
	return CostReport{
		Total:       l.Total(),
		CPU:         l.CPU,
		IOWait:      l.IOWait,
		PageReads:   l.PageReads,
		SeqReads:    l.SeqPageReads,
		BufferHits:  l.BufferHits,
		BufferMiss:  l.BufferMisses,
		ClustersHit: l.ClustersVisited,
	}
}

// String renders the report compactly.
func (r CostReport) String() string {
	cpuPct := 0.0
	if r.Total > 0 {
		cpuPct = 100 * float64(r.CPU) / float64(r.Total)
	}
	return fmt.Sprintf("total=%v cpu=%v (%.0f%%) reads=%d (seq=%d) hits=%d misses=%d",
		r.Total, r.CPU, cpuPct, r.PageReads, r.SeqReads, r.BufferHits, r.BufferMiss)
}

// SetIOTrace enables or disables recording of every physical I/O event.
func (db *DB) SetIOTrace(on bool) { db.store.Disk().SetTrace(on) }

// IOTraceEvent is one physical device operation.
type IOTraceEvent struct {
	Op   string // "read", "read-seq", "read-async", "write"
	Page uint32
	At   stats.Ticks
}

// IOTrace returns the recorded events in completion order.
func (db *DB) IOTrace() []IOTraceEvent {
	var out []IOTraceEvent
	for _, ev := range db.store.Disk().Trace() {
		out = append(out, IOTraceEvent{Op: ev.Op, Page: uint32(ev.Page), At: ev.At})
	}
	return out
}

// ExportXML serializes the stored document back to XML by walking the
// tree in document order (random cluster loads at border crossings).
func (db *DB) ExportXML(w io.Writer) error {
	return xmlwrite.Write(w, db.dict, db.store.Export(), xmlwrite.Options{Declaration: true})
}

// ExportXMLScan serializes the stored document with one sequential scan,
// assembling per-cluster fragments in memory — the paper's outlook applied
// to export (Sec. 7); much faster than ExportXML on fragmented volumes.
func (db *DB) ExportXMLScan(w io.Writer) error {
	return db.store.ExportScanXML(w)
}

// InsertXML parses an XML fragment (one element) and inserts it as a new
// child of parent, appended after the last child. The returned Node is the
// fragment's root. Updates never relabel or move existing nodes
// (insert-friendly ORDPATH keys; overflow goes to fresh clusters), which is
// the storage property the paper's Sec. 2 holds against scan-order formats.
//
// InsertXML is a one-statement transaction: it runs through DB.Update, so
// the insert commits atomically and durably. Batch several mutations into
// one commit with DB.Update directly.
func (db *DB) InsertXML(parent Node, fragment string) (Node, error) {
	var out Node
	err := db.Update(func(tx *Tx) error {
		n, err := tx.InsertXML(parent, fragment)
		out = n
		return err
	})
	return out, err
}

// InsertXMLBefore inserts the fragment as a child of parent immediately
// before the given sibling, as a one-statement transaction.
func (db *DB) InsertXMLBefore(parent Node, before Node, fragment string) (Node, error) {
	var out Node
	err := db.Update(func(tx *Tx) error {
		n, err := tx.InsertXMLBefore(parent, before, fragment)
		out = n
		return err
	})
	return out, err
}

// Delete removes the node and its whole subtree, as a one-statement
// transaction.
func (db *DB) Delete(n Node) error {
	return db.Update(func(tx *Tx) error { return tx.Delete(n) })
}

// Query compiles a location path, or a union of location paths separated
// by '|'. The returned Query can be tuned and then executed with Count,
// Nodes or Each. Every branch is resolved (strategy, predicate evaluator)
// and evaluated on its own plan, one after another; the union is delivered
// as a duplicate-free node set.
func (db *DB) Query(path string) (*Query, error) {
	branches, err := parseAbsolute(db, path)
	if err != nil {
		return nil, err
	}
	return &Query{db: db, text: path, branches: branches}, nil
}

// parseAbsolute parses an absolute location path, or a '|' union of them.
func parseAbsolute(db *DB, path string) ([]*xpath.Path, error) {
	branches, err := xpath.ParseUnion(db.dict, path)
	if err != nil {
		return nil, err
	}
	for _, b := range branches {
		if !b.Absolute {
			return nil, &xpath.ParseError{Msg: fmt.Sprintf("query %q must be absolute (use Node.Query for relative paths)", path)}
		}
	}
	return branches, nil
}

// simplified returns the branches' physical step lists.
func simplified(branches []*xpath.Path) [][]xpath.Step {
	out := make([][]xpath.Step, len(branches))
	for i, b := range branches {
		out[i] = b.Simplify().Steps
	}
	return out
}

// parseUnion is parseAbsolute followed by simplified.
func parseUnion(db *DB, path string) ([][]xpath.Step, error) {
	branches, err := parseAbsolute(db, path)
	if err != nil {
		return nil, err
	}
	return simplified(branches), nil
}

// Query is a compiled, tunable location-path query. Count, Nodes and Each
// run it on the caller's goroutine through the same cursor as the DB's
// direct surfaces — Count and Nodes drained like DB.QueryCtx, Each live like
// DB.QueryStream; they have no error result, so a page fault raised by the
// fault plane panics with the typed *Error (use QueryCtx or QueryStream
// where faults are expected).
type Query struct {
	db       *DB
	text     string
	branches []*xpath.Path    // union branches; one for plain paths
	contexts []storage.NodeID // nil: the volume roots
	opts     QueryOptions
}

// WithStrategy forces a physical strategy (default Auto).
func (q *Query) WithStrategy(s Strategy) *Query {
	q.opts.Strategy = s
	return q
}

// Sorted requests results in document order (Sec. 5.5 of the paper).
func (q *Query) Sorted() *Query {
	q.opts.Sorted = true
	return q
}

// WithMemoryLimit bounds the speculative structure S; exceeding it
// degrades the plan to fallback mode.
func (q *Query) WithMemoryLimit(instances int) *Query {
	q.opts.MemLimit = instances
	return q
}

// WithPredEval forces the predicate evaluator (default PredAuto).
func (q *Query) WithPredEval(pe PredEval) *Query {
	q.opts.PredEval = pe
	return q
}

// Plan returns the physical operator tree the query will execute (for a
// union, its first branch), one operator per line (EXPLAIN output).
func (q *Query) Plan() string {
	snap := q.db.mgr.Snapshot()
	defer snap.Release()
	var b engine.Branch // branchQueries shapes a branch by its union: build them all
	b.Start(q.db.store, snap, q.db.members(context.Background(), simplified(q.branches), q.contexts, q.opts, true)[0])
	p := b.Plan()
	if p == nil {
		_, err := b.Stop()
		panic(wrapErr("query", q.text, err))
	}
	defer b.Stop()
	return p.Describe(q.db.dict)
}

// Explain returns the cost-model decision for this query (forcing a
// strategy bypasses the model; Explain still reports its opinion).
func (q *Query) Explain() string {
	return q.db.chooser.Choose(q.branches[0].Simplify().Steps).String()
}

// PlanChoice is the cost model's full decision for a query: the chosen
// strategy, the estimated cluster coverage and the buffer-pool residency
// that drove it, and the virtual cost estimated for each candidate (see
// plan.Chooser).
type PlanChoice struct {
	Strategy     Strategy
	Coverage     float64     // estimated fraction of clusters the path touches
	Residency    float64     // share of the volume's pages in the buffer pool at choice time
	PagesTouched int         // estimated clusters the path visits
	ScheduleCost stats.Ticks // estimated virtual cost of XSchedule
	ScanCost     stats.Ticks // estimated virtual cost of XScan
	SimpleCost   stats.Ticks // estimated virtual cost of the Simple baseline

	// PredEval is the evaluator PredAuto picks for the path (PredNested
	// for paths without predicates). On an executed query's summary it is
	// the evaluator the plan ran with.
	PredEval PredEval
}

func fromPlanChoice(c plan.Choice) PlanChoice {
	return PlanChoice{
		Strategy:     fromCore(c.Strategy),
		Coverage:     c.Coverage,
		Residency:    c.Residency,
		PagesTouched: c.Schedule.PagesTouched,
		ScheduleCost: c.Schedule.Cost,
		ScanCost:     c.Scan.Cost,
		SimpleCost:   c.Simple.Cost,
		PredEval:     fromCorePredEval(c.PredEval),
	}
}

// Choice returns the cost model's structured decision for this query —
// Explain's machine-readable counterpart.
func (q *Query) Choice() PlanChoice {
	return fromPlanChoice(q.db.chooser.Choose(q.branches[0].Simplify().Steps))
}

// resolve settles one branch's strategy through plan.Chooser.Resolve — the
// one resolution every surface shares with the engine's dispatcher.
func (db *DB) resolve(path []xpath.Step, s Strategy) (core.Strategy, *plan.Choice) {
	return db.chooser.Resolve(path, s == Auto, s.internal())
}

// open starts the query's direct cursor, live or drained. Query's run
// methods take no context: nothing cancels them but their own return.
func (q *Query) open(live bool) *Cursor {
	return q.db.openDirect(context.Background(), func() {}, q.text, simplified(q.branches), q.contexts, q.opts, live)
}

// must re-raises the failure of a finished cursor: Query's run methods
// cannot return it.
func must(c *Cursor) {
	if err := c.Err(); err != nil {
		panic(err)
	}
}

// Count executes the query and returns its cardinality.
func (q *Query) Count() int {
	c := q.open(false)
	defer c.Close()
	for c.Next() {
	}
	must(c)
	return c.Count()
}

// Nodes executes the query and returns handles on the result nodes.
func (q *Query) Nodes() []Node {
	c := q.open(false)
	defer c.Close()
	res, _ := c.Drain()
	must(c)
	return res.Nodes
}

// Each executes the query, invoking f per result in production order
// (document order when Sorted) and stopping early when f returns false.
// Union branches are delivered one after another, duplicates dropped.
func (q *Query) Each(f func(Node) bool) {
	c := q.open(true)
	defer c.Close()
	for c.Next() && f(c.Node()) {
	}
	must(c)
}

// VolumeStats summarises the physical storage of the loaded document.
type VolumeStats struct {
	Pages       int // data pages (clusters)
	Records     int // physical records, including border nodes
	CoreNodes   int // logical nodes
	BorderNodes int // proxy records (paper Sec. 3.4)
	UsedBytes   int // payload bytes across all pages
}

// VolumeStats inspects the volume (an offline pass; call ResetStats before
// measuring queries afterwards).
func (db *DB) VolumeStats() VolumeStats {
	vs := db.store.Stats()
	return VolumeStats{
		Pages:       vs.DataPages,
		Records:     vs.Records,
		CoreNodes:   vs.CoreNodes,
		BorderNodes: vs.BorderNodes,
		UsedBytes:   vs.UsedBytes,
	}
}

// Node is a handle on a stored document node.
//
// Handles stay valid across queries and most updates; an insert that
// forces a page split may relocate records, after which handles to the
// moved nodes resolve to a border node or dangle — re-resolve nodes via a
// fresh query after heavy updates (the engine's NodeIDs are physical
// record addresses, as in the paper's Example 2).
//
// Node is not comparable: it carries its order key as a byte slice, so ==
// and use as a map key are compile errors rather than a comparison that
// would tell a queried handle from an inserted handle of the same node.
// Compare ID() for identity within one DB.
type Node struct {
	db *DB
	id storage.NodeID
	// ord is the document-order key XStep captured while the node's
	// cluster was in hand (core.Result.Ord), kept so that OrdKey, OrdPath
	// and CompareDocOrder need no swizzle. Like Result.Ord it aliases the
	// decoded page image's copy of the page bytes — no further copy is made,
	// and a retained Node keeps that copy reachable. Empty on handles that never passed through
	// an operator (Tx.InsertXML results), which swizzle on demand.
	ord ordpath.Key
}

// ID returns the node's stable storage identifier.
func (n Node) ID() uint64 { return uint64(n.id) }

// Name returns the element or attribute name (empty for text nodes).
func (n Node) Name() string {
	c := n.db.store.Swizzle(n.id)
	return n.db.dict.Name(c.Tag())
}

// Text returns the node's own text (attribute value, text content);
// for elements it concatenates the subtree's text.
func (n Node) Text() string { return n.db.store.StringValue(n.id) }

// XML serializes the subtree rooted at this node.
func (n Node) XML() string {
	return xmlwrite.String(n.db.dict, n.db.store.ExportSubtree(n.id), xmlwrite.Options{})
}

// OrdKey returns the node's document-order key in its encoded form. Keys
// of one DB, or of the volumes of one ShardSet, compare in document order
// with bytes.Compare (CompareDocOrder), an ancestor's key is a byte prefix
// of its descendants', and equal keys are equal byte strings. The slice
// aliases storage shared with other handles and must not be modified.
func (n Node) OrdKey() []byte {
	if len(n.ord) == 0 {
		return n.db.store.Swizzle(n.id).OrdKey()
	}
	return n.ord
}

// OrdPath returns the node's document-order key in dotted form.
func (n Node) OrdPath() string {
	return ordpath.Key(n.OrdKey()).String()
}

// Query evaluates a relative location path with this node as context.
func (n Node) Query(path string) (*Query, error) {
	parsed, err := xpath.Parse(n.db.dict, path)
	if err != nil {
		return nil, err
	}
	if parsed.Absolute {
		return nil, fmt.Errorf("pathdb: relative path expected, got %q", path)
	}
	return &Query{db: n.db, text: path, branches: []*xpath.Path{parsed}, contexts: []storage.NodeID{n.id}}, nil
}
