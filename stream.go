package pathdb

import (
	"context"

	"pathdb/internal/core"
	"pathdb/internal/engine"
	"pathdb/internal/ordpath"
	"pathdb/internal/plan"
	"pathdb/internal/storage"
	"pathdb/internal/xpath"
)

// Cursor is a pull-based result stream, and the one way a query runs:
// Session.Do and DB.QueryCtx open a cursor and Drain it, Query.Count and
// Nodes drain one, Query.Each iterates one.
//
//	c, err := sess.Stream(ctx, "//item", pathdb.QueryOptions{})
//	if err != nil { ... }
//	defer c.Close()
//	for c.Next() {
//	    use(c.Node())
//	}
//	if err := c.Err(); err != nil { ... }
//
// Close is mandatory (like sql.Rows): an abandoned cursor would otherwise
// hold its producer blocked on back-pressure. Close is idempotent, safe
// mid-stream — it cancels the query, which withdraws its in-flight cluster
// prefetches and returns pooled arenas/iterators — and after it Next reports
// false. A stream that ends by itself (exhausted, capped by Limit, failed,
// context done) has already released all of that.
//
// A drained query (Session.Do, DB.QueryCtx, Query.Count and Nodes) runs as
// a gang — a union's batchable branches pooled in one group, the rest solo
// through engine.Branch — on the dispatcher or, direct, on the caller's
// goroutine (engine.Exec). A live query (Session.Stream, DB.QueryStream,
// Query.Each) and a direct single path run each branch solo through
// engine.Branch, driven into a sink of blocks or pulled by the cursor. The
// plans read one pinned snapshot and charge their own ledgers.
//
// Delivery is incremental wherever production order is delivery order:
// unsorted queries, and sorted single paths whose plan yields document order
// by itself (core.Plan.Ordered). Each match is handed over as the operator
// tree produces it, an engine-backed producer running at most one block of
// matches ahead (back-pressure). Other sorted single paths are
// order-enforced by the final sort inside their plan, charged to the query
// like any other work; every match is seen before the first is delivered.
// A sorted union is ordered branch by branch, each branch in its own plan
// and capped at the Limit, and delivered once every branch has landed by
// merging their heads: the least first, a tie to the earlier branch.
//
// A Cursor is not safe for concurrent use by multiple goroutines.
type Cursor struct {
	db   *DB
	path string
	opts QueryOptions

	ctx    context.Context
	cancel context.CancelFunc

	// prod points at eng or dir: both producers live inside the cursor's own
	// allocation, whichever the cursor was opened over.
	prod producer
	eng  engineProducer
	dir  directProducer

	// What the cursor applies above the producer, once for every surface:
	// union dedup and Limit.
	union bool                    // the query has several branches
	seen  map[storage.NodeID]bool // nodes a union has delivered

	node    Node
	yielded int
	done    bool
	err     error
	sum     ExecResult
}

// producer is the source a Cursor pulls from: the matches of a query's
// branch plans, branch after branch in production order — a sorted union's
// merged in document order.
type producer interface {
	// next returns the next match; ok is false at exhaustion and on error.
	next(ctx context.Context) (r core.Result, ok bool, err error)
	// known is how many further matches are already materialized.
	known() int
	// stop ends production after the cursor cancelled the query's context:
	// it releases everything the producer holds and returns the summary of
	// the work done.
	stop() ExecResult
}

// Stream opens a cursor over the path's results. Unsorted queries deliver
// incrementally (the first node is available long before the last is
// computed), and so does a sorted single path whose plan is ordered; any
// other sorted single path is order-enforced inside its plan (the final
// sort sees every match before the first is delivered) and then streams
// the sorted sequence; a sorted union is drained like Do, then delivered
// by merging its ordered branches. Other streaming queries execute
// solo, paced by the consumer. A union is admitted whole, as one unit no
// gang splits. A full admission queue makes Stream wait; TryStream sheds.
func (s *Session) Stream(ctx context.Context, path string, opts QueryOptions) (*Cursor, error) {
	return s.stream(ctx, path, opts, false, true)
}

// TryStream is Stream with non-blocking admission: it fails immediately
// with ErrOverloaded when the engine's queue is full, shedding a union whole.
func (s *Session) TryStream(ctx context.Context, path string, opts QueryOptions) (*Cursor, error) {
	return s.stream(ctx, path, opts, true, true)
}

func (s *Session) stream(ctx context.Context, path string, opts QueryOptions, try, live bool) (*Cursor, error) {
	branches, err := parseUnion(s.eng.db, path)
	if err != nil {
		return nil, err
	}
	cctx, cancel := opts.context(ctx)
	pendings, err := s.s.Admit(cctx, opts.branchQueries(branches, live), !try)
	if err != nil {
		cancel()
		return nil, wrapErr("submit", path, err)
	}
	c := newCursor(s.eng.db, path, opts, cctx, cancel, len(branches))
	c.readEngine(pendings)
	return c, nil
}

// newCursor allocates a cursor over a query of the given number of union
// branches; the caller attaches the producer.
func newCursor(db *DB, path string, opts QueryOptions, ctx context.Context, cancel context.CancelFunc, branches int) *Cursor {
	return &Cursor{db: db, path: path, opts: opts, ctx: ctx, cancel: cancel, union: branches > 1}
}

// readEngine attaches the producer over an engine-run query's branches: a
// sorted union is merged, anything else read branch after branch.
func (c *Cursor) readEngine(pend []*engine.Pending) {
	c.eng = engineProducer{pend: pend, merge: c.union && c.opts.Sorted}
	c.prod = &c.eng
}

// Next advances the cursor to the next result node, reporting false when
// the stream is exhausted, failed, closed, or capped by Limit. After a
// false, Err distinguishes completion (nil) from failure.
func (c *Cursor) Next() bool {
	if c.done {
		return false
	}
	if c.opts.Limit > 0 && c.yielded >= c.opts.Limit {
		c.finish(nil)
		return false
	}
	r, ok, err := c.distinct()
	if !ok {
		c.finish(err)
		return false
	}
	c.node = Node{db: c.db, id: r.Node, ord: r.Ord}
	c.yielded++
	return true
}

// distinct pulls the producer's next match, skipping nodes an earlier union
// branch already delivered. The set is sized on the first match from what
// the producer has materialized by then.
func (c *Cursor) distinct() (core.Result, bool, error) {
	for {
		r, ok, err := c.prod.next(c.ctx)
		if !ok || !c.union {
			return r, ok, err
		}
		if c.seen == nil {
			c.seen = make(map[storage.NodeID]bool, 1+c.prod.known())
		}
		if !c.seen[r.Node] {
			c.seen[r.Node] = true
			return r, true, nil
		}
	}
}

// finish is the one exit every stream takes — exhausted, capped by Limit,
// failed, context done, closed: cancel the query, stop the producer (which
// settles or closes its plans, withdraws their cluster prefetches and
// returns pooled arenas) and stamp the summary. Idempotent.
func (c *Cursor) finish(err error) {
	if c.done {
		return
	}
	c.done = true
	c.cancel()
	c.sum = c.prod.stop()
	c.err = wrapErr("query", c.path, err)
}

// Node returns the node Next positioned the cursor on.
func (c *Cursor) Node() Node { return c.node }

// Err returns the error that terminated the stream, nil on clean
// completion (including a Limit cut or an explicit Close).
func (c *Cursor) Err() error { return c.err }

// Count returns how many nodes the cursor has yielded so far.
func (c *Cursor) Count() int { return c.yielded }

// Summary returns the query's aggregated execution summary — resolved
// strategy, cost-model choice, virtual costs, gang/shared info — once the
// stream has terminated (Next returned false, or Close was called). An
// engine-backed summary covers the branches that completed cleanly. Its
// Nodes field is nil (nodes are delivered through the cursor).
func (c *Cursor) Summary() (ExecResult, bool) {
	return c.sum, c.done
}

// Close terminates the stream: it cancels the underlying query (stopping
// the producer at its next poll point and withdrawing in-flight cluster
// prefetches), unblocks and settles every branch, and releases pooled
// resources. Idempotent; always returns nil.
func (c *Cursor) Close() error {
	c.finish(nil)
	return nil
}

// Drain consumes the rest of the stream and returns it as a buffered
// ExecResult — the bridge from cursor to one-shot semantics. Session.Do and
// DB.QueryCtx are exactly open-then-Drain.
func (c *Cursor) Drain() (ExecResult, error) {
	var nodes []Node
	for c.Next() {
		if nodes == nil {
			// Size the slice once from what is already materialized.
			n := c.prod.known()
			if lim := c.opts.Limit; lim > 0 && n >= lim {
				n = lim - 1
			}
			nodes = make([]Node, 0, 1+n)
		}
		nodes = append(nodes, c.node)
	}
	if c.err != nil {
		return ExecResult{}, c.err
	}
	res := c.sum
	res.Nodes = nodes
	return res, nil
}

// ---------------------------------------------------------------------------
// The engine producer: Session.Stream/TryStream/Do/TryDo, and the drained
// direct surfaces.

// engineProducer pulls a query admitted to the engine, or one a drained
// direct surface ran as a gang (engine.Exec): one Pending per union branch,
// drained in submission order, or merged when the union is sorted. A
// streaming branch hands its matches over in blocks through its sink as the
// dispatcher produces them; whatever the engine buffered instead — a
// stream's last block included — is in the branch's Result once it has
// settled.
type engineProducer struct {
	pend  []*engine.Pending
	merge bool            // a sorted union: every branch's Results are in document order
	done  []engine.Result // summaries of the branches harvested so far, in order
	cur   int             // next branch to read from; blk belongs to the one before once its Results are taken
	blk   []core.Result   // block being delivered: from a sink, or a branch's Results
	idx   int             // next of blk
}

func (p *engineProducer) next(ctx context.Context) (core.Result, bool, error) {
	if p.merge {
		return p.least(ctx)
	}
	for p.idx == len(p.blk) {
		engine.Recycle(p.blk)
		p.blk, p.idx = nil, 0
		if p.cur == len(p.pend) {
			return core.Result{}, false, nil
		}
		ch := p.pend[p.cur].C()
		if ch != nil {
			if blk, ok := <-ch; ok {
				p.blk = blk
				continue
			}
		}
		// The branch's sink is closed, or it never had one. A streamed query
		// harvests branch by branch; a buffered one waits for all of them
		// before it delivers anything, so that a Limit reached on an early
		// branch cannot cancel its siblings mid-run and leave the query's
		// cost to goroutine timing.
		upto := len(p.pend)
		if ch != nil {
			upto = p.cur + 1
		}
		if err := p.land(ctx, upto); err != nil {
			return core.Result{}, false, err
		}
		p.blk = p.done[p.cur].Results
		p.cur++
	}
	p.idx++
	return p.blk[p.idx-1], true, nil
}

// least yields a sorted union's next match once every branch has landed:
// the least of the branches' heads, a tie going to the earlier branch, so
// the merge is the stable sort of the branches' concatenation. A head is
// taken by reslicing its branch's Results.
func (p *engineProducer) least(ctx context.Context) (core.Result, bool, error) {
	if err := p.land(ctx, len(p.pend)); err != nil {
		return core.Result{}, false, err
	}
	lo := -1
	for i := range p.done {
		if rs := p.done[i].Results; len(rs) > 0 && (lo < 0 || ordpath.Compare(rs[0].Ord, p.done[lo].Results[0].Ord) < 0) {
			lo = i
		}
	}
	if lo < 0 {
		return core.Result{}, false, nil
	}
	rs := p.done[lo].Results
	p.done[lo].Results = rs[1:]
	return rs[0], true, nil
}

// land waits, in order, for the branches before upto to settle.
func (p *engineProducer) land(ctx context.Context, upto int) error {
	for len(p.done) < upto {
		res, err := p.pend[len(p.done)].Wait(ctx)
		if err != nil {
			return err
		}
		p.done = append(p.done, res)
	}
	return nil
}

func (p *engineProducer) known() int {
	n := len(p.blk) - p.idx
	for i := p.cur; i < len(p.done); i++ {
		n += len(p.done[i].Results)
	}
	return n
}

// stop settles every branch not yet harvested: drain its sink so the
// dispatcher unblocks, then wait for the engine to finish the Pending (it
// always does — the cancelled context stops it at the next poll point, and
// the engine withdraws a cancelled query's prefetches). This is what makes
// every exit leak-free: the dispatcher never stays blocked on the cursor's
// channels. Every block not delivered goes back to the engine.
func (p *engineProducer) stop() ExecResult {
	engine.Recycle(p.blk)
	p.blk, p.idx = nil, 0
	for _, pd := range p.pend[len(p.done):] {
		if ch := pd.C(); ch != nil {
			for blk := range ch {
				engine.Recycle(blk)
			}
		}
		if res, err := pd.Wait(context.Background()); err == nil {
			p.done = append(p.done, res)
		}
	}
	for i := p.cur; i < len(p.done); i++ {
		engine.Recycle(p.done[i].Results)
	}
	return aggregateBranches(p.done)
}

// choiceOf converts the model's decision for a summary; nil (the strategy
// was forced) stays nil.
func choiceOf(c *plan.Choice) *PlanChoice {
	if c == nil {
		return nil
	}
	pc := fromPlanChoice(*c)
	return &pc
}

// aggregateBranches folds branch summaries into one ExecResult (no nodes):
// the branches' own costs sum, shared flags or, the shared group's clock
// counts once — a union's pooled branches ran in one group — and the
// virtual latency spans the earliest submit to the latest done.
func aggregateBranches(branch []engine.Result) ExecResult {
	if len(branch) == 0 {
		return ExecResult{}
	}
	out := ExecResult{Strategy: fromCore(branch[0].Strategy), Gang: branch[0].Gang,
		Choice: choiceOf(branch[0].Choice)}
	minSubmit, maxDone := branch[0].SubmitV, branch[0].DoneV
	for _, r := range branch {
		if r.Shared && !out.Shared {
			out.Shared, out.SharedV = true, r.SharedV
		}
		out.CostV += r.CostV
		out.CPUV += r.CPUV
		out.IOWaitV += r.IOWaitV
		out.WallQueue += r.WallQueue
		out.WallExec += r.WallExec
		if r.SubmitV < minSubmit {
			minSubmit = r.SubmitV
		}
		if r.DoneV > maxDone {
			maxDone = r.DoneV
		}
	}
	out.VirtualLatency = maxDone - minSubmit
	return out
}

// ---------------------------------------------------------------------------
// The direct producer: DB.QueryStream/QueryCtx and Query.

// QueryStream opens a cursor directly over the operator tree, on the
// caller's goroutine — the engine-free counterpart of Session.Stream. Each
// branch runs as the engine runs a solo query (engine.Branch), on a
// snapshot the cursor pins when it opens: a commit made while the cursor is
// open is not seen. Unsorted queries pull the plan incrementally, union
// branches one after another; so does a sorted single path whose plan is
// ordered. Other sorted single paths evaluate fully on the first Next
// (order enforcement), then stream the sorted result. A sorted union is
// drained like QueryCtx, then merged.
//
// Its virtual costs are deterministic only while no other query runs on
// the DB, since concurrent queries share the simulated device; run
// concurrent queries through an Engine.
func (db *DB) QueryStream(ctx context.Context, path string, opts QueryOptions) (*Cursor, error) {
	return db.direct(ctx, path, opts, true)
}

// direct parses path and opens a direct cursor over it from the roots.
func (db *DB) direct(ctx context.Context, path string, opts QueryOptions, live bool) (*Cursor, error) {
	branches, err := parseUnion(db, path)
	if err != nil {
		return nil, err
	}
	cctx, cancel := opts.context(ctx)
	return db.openDirect(cctx, cancel, path, branches, nil, opts, live), nil
}

// openDirect opens a cursor over the branches evaluated from contexts (nil:
// the roots). Every branch is resolved here, against the pool as the query
// finds it — as the dispatcher resolves a gang. A drained union runs here as
// the dispatcher runs a gang (engine.Exec) and is read as Session.Do's; a
// live query, and a single path — one member, which no group pools — is
// pulled through the direct producer, buffering nothing.
func (db *DB) openDirect(ctx context.Context, cancel context.CancelFunc, path string, branches [][]xpath.Step, contexts []storage.NodeID, opts QueryOptions, live bool) *Cursor {
	c := newCursor(db, path, opts, ctx, cancel, len(branches))
	ms := db.members(ctx, branches, contexts, opts, live || len(branches) == 1)
	snap := db.mgr.Snapshot()
	if !ms[0].Query.Stream {
		c.readEngine(engine.Exec(db.store, snap, ms))
		snap.Release()
	} else {
		c.dir = directProducer{db: db, snap: snap, branches: ms}
		c.prod = &c.dir
	}
	return c
}

// members resolves the branches' engine queries, evaluated from contexts.
func (db *DB) members(ctx context.Context, branches [][]xpath.Step, contexts []storage.NodeID, opts QueryOptions, live bool) []engine.Member {
	ms := make([]engine.Member, len(branches))
	for i, q := range opts.branchQueries(branches, live) {
		q.Contexts = contexts
		ms[i] = engine.Member{Ctx: ctx, Query: q}
		ms[i].Strat, ms[i].Choice = db.resolve(branches[i], opts.Strategy)
	}
	return ms
}

// directProducer pulls a live query's branches, or a single path, one after
// another, each through an engine.Branch on the consumer's goroutine.
type directProducer struct {
	db       *DB
	snap     engine.Snapshot
	branches []engine.Member
	bi       int           // branch being delivered
	run      engine.Branch // its runner
	running  bool          // run is between Start and Stop
	done     []engine.Result
}

func (p *directProducer) start() {
	p.run.Start(p.db.store, p.snap, p.branches[p.bi])
	p.running = true
}

// settle stops the running branch; one that ran to its end counts in the
// summary, and the next branch is up.
func (p *directProducer) settle() error {
	p.running = false
	res, err := p.run.Stop()
	if err == nil {
		res.Gang, res.SubmitV = 1, res.StartV
		p.done = append(p.done, res)
		p.bi++
	}
	return err
}

func (p *directProducer) next(context.Context) (core.Result, bool, error) {
	for p.bi < len(p.branches) {
		if !p.running {
			p.start()
		}
		if r, ok := p.run.Next(); ok {
			return r, true, nil
		}
		if err := p.settle(); err != nil {
			return core.Result{}, false, err
		}
	}
	return core.Result{}, false, nil
}

func (p *directProducer) known() int { return 0 }

// stop stops a running branch and unpins the snapshot; the summary covers
// the branches that ran to their end.
func (p *directProducer) stop() ExecResult {
	if p.running {
		p.settle()
	}
	p.snap.Release()
	return aggregateBranches(p.done)
}
