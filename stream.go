package pathdb

import (
	"context"

	"pathdb/internal/core"
	"pathdb/internal/engine"
	"pathdb/internal/stats"
	"pathdb/internal/storage"
	"pathdb/internal/xpath"
)

// Cursor is a pull-based result stream: the primitive evaluation surface
// that both the buffered calls (Session.Do, DB.QueryCtx) and the streaming
// ones (Session.Stream, DB.QueryStream) are built on.
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
// prefetches and returns pooled arenas/iterators at the next poll point —
// and after it Next reports false.
//
// Delivery is incremental for unsorted queries: each match is handed over
// as the operator tree produces it, with the producer at most a bounded
// channel ahead (back-pressure). Sorted queries are order-enforced: the
// producer must see every match before the first can be delivered, so the
// stream starts only when evaluation finishes (the buffering is charged to
// the query like any other work).
//
// A Cursor is not safe for concurrent use by multiple goroutines.
type Cursor struct {
	db   *DB
	path string
	opts QueryOptions

	ctx    context.Context
	cancel context.CancelFunc

	// Engine-backed state: one Pending per union branch, drained in
	// submission order. Live cursors read the sinks; buffered cursors wait
	// the summaries and iterate the merged node list.
	pend []*engine.Pending
	live bool
	cur  int             // branch currently being drained (live)
	bres []engine.Result // clean branch summaries harvested so far

	// Direct state (DB.QueryStream): the operator tree is pulled on the
	// caller's goroutine, engine-free.
	direct *directCursor

	// Buffered iteration state (engine-buffered and direct-sorted): the
	// merged result, yielded one node at a time.
	merged bool
	sum    ExecResult
	sumOK  bool
	idx    int

	seen    map[storage.NodeID]bool // union dedup (live modes)
	node    Node
	yielded int
	capped  bool // Limit reached; next Next() terminates the stream
	done    bool
	closed  bool
	err     error
}

// Stream opens a cursor over the path's results. Unsorted queries deliver
// incrementally (the first node is available long before the last is
// computed); a sorted single path is order-enforced at the producer (the
// engine sees every match before the first is delivered) and then streams
// the sorted sequence; a sorted union is delivered buffered, after the
// cross-branch merge. Streaming queries execute solo — they never join a
// gang-shared scheduler, since their production is paced by the consumer.
// A full admission queue makes Stream wait; TryStream sheds instead.
func (s *Session) Stream(ctx context.Context, path string, opts QueryOptions) (*Cursor, error) {
	return s.stream(ctx, path, opts, false, true)
}

// TryStream is Stream with non-blocking admission: it fails immediately
// with ErrOverloaded when the engine's queue is full. Union shedding
// matches TryDo: the decision is made on the first branch.
func (s *Session) TryStream(ctx context.Context, path string, opts QueryOptions) (*Cursor, error) {
	return s.stream(ctx, path, opts, true, true)
}

func (s *Session) stream(ctx context.Context, path string, opts QueryOptions, try, live bool) (*Cursor, error) {
	queries, live, err := s.compile(path, opts, live)
	if err != nil {
		return nil, err
	}
	cctx, cancel := opts.context(ctx)

	// Submit every branch before reading so union branches enter one gang;
	// the dispatcher drains the queue independently of this goroutine, so
	// sequential Submit calls cannot deadlock.
	pendings := make([]*engine.Pending, 0, len(queries))
	for i, q := range queries {
		var p *engine.Pending
		var perr error
		if try && i == 0 {
			p, perr = s.s.TrySubmit(cctx, q)
		} else {
			p, perr = s.s.Submit(cctx, q)
		}
		if perr != nil {
			// Already-submitted branches settle through the cancelled
			// context; their producers unblock on it.
			cancel()
			return nil, wrapErr("submit", path, perr)
		}
		pendings = append(pendings, p)
	}
	c := &Cursor{
		db:     s.eng.db,
		path:   path,
		opts:   opts,
		ctx:    cctx,
		cancel: cancel,
		pend:   pendings,
		live:   live,
	}
	if live && len(pendings) > 1 {
		c.seen = make(map[storage.NodeID]bool)
	}
	return c, nil
}

// Next advances the cursor to the next result node, reporting false when
// the stream is exhausted, failed, closed, or capped by Limit. After a
// false, Err distinguishes completion (nil) from failure.
func (c *Cursor) Next() bool {
	if c.done || c.closed {
		return false
	}
	if c.capped {
		c.terminate()
		return false
	}
	switch {
	case c.direct != nil:
		return c.nextDirect()
	case c.live:
		return c.nextLive()
	default:
		return c.nextBuffered()
	}
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
// stream has terminated (Next returned false, or Close was called). The
// summary of a live stream covers the branches that completed cleanly; its
// Nodes field is nil (nodes were delivered through the cursor).
func (c *Cursor) Summary() (ExecResult, bool) {
	if !c.sumOK {
		return ExecResult{}, false
	}
	return c.sum, true
}

// Close terminates the stream: it cancels the underlying query (stopping
// the producer at its next poll point and withdrawing in-flight cluster
// prefetches), unblocks and settles every branch, and releases pooled
// resources. Idempotent; always returns nil.
func (c *Cursor) Close() error {
	if c.closed {
		return nil
	}
	c.closed = true
	c.cancel()
	if c.direct != nil {
		c.direct.close()
		if !c.sumOK {
			c.finishDirect()
		}
		return nil
	}
	// Settle every branch not yet harvested: drain sinks so producers
	// unblock, then wait for the engine to finish each Pending (it always
	// does — cancellation stops it at the next poll point). This is what
	// makes Close leak-free: no worker is left blocked on our channels
	// and no prefetch stays in flight.
	for i := c.cur; i < len(c.pend); i++ {
		p := c.pend[i]
		if ch := p.C(); ch != nil {
			for range ch {
			}
		}
		if res, err := p.Wait(context.Background()); err == nil {
			c.bres = append(c.bres, res)
		}
	}
	c.cur = len(c.pend)
	if !c.sumOK && len(c.bres) > 0 {
		c.sum = aggregateBranches(c.bres)
		c.sumOK = true
	}
	c.done = true
	return nil
}

// terminate ends a Limit-capped stream cleanly: remaining production is
// cancelled and the summary is built from the branches seen.
func (c *Cursor) terminate() {
	if c.direct != nil {
		c.direct.close()
		c.finishDirect()
		c.done = true
		return
	}
	c.cancel()
	for i := c.cur; i < len(c.pend); i++ {
		p := c.pend[i]
		if ch := p.C(); ch != nil {
			for range ch {
			}
		}
		if res, err := p.Wait(context.Background()); err == nil {
			c.bres = append(c.bres, res)
		}
	}
	c.cur = len(c.pend)
	if !c.sumOK {
		c.sum = aggregateBranches(c.bres)
		c.sumOK = true
	}
	c.done = true
}

// nextLive pulls the next node from the engine sinks, branch by branch in
// submission order, deduplicating across union branches on the fly.
func (c *Cursor) nextLive() bool {
	for {
		if c.cur >= len(c.pend) {
			c.sum = aggregateBranches(c.bres)
			c.sumOK = true
			c.done = true
			return false
		}
		r, ok := <-c.pend[c.cur].C()
		if !ok {
			res, err := c.pend[c.cur].Wait(c.ctx)
			if err != nil {
				c.fail(err)
				return false
			}
			c.bres = append(c.bres, res)
			c.cur++
			continue
		}
		if c.seen != nil {
			if c.seen[r.Node] {
				continue
			}
			c.seen[r.Node] = true
		}
		c.yield(Node{db: c.db, id: r.Node, ord: r.Ord})
		return true
	}
}

// nextBuffered waits for every branch once, merges them exactly like the
// buffered call path, then yields the merged nodes one at a time.
func (c *Cursor) nextBuffered() bool {
	if !c.merged {
		c.mergeBuffered()
		if c.err != nil {
			return false
		}
	}
	if c.idx >= len(c.sum.Nodes) {
		c.done = true
		return false
	}
	c.yield(c.sum.Nodes[c.idx])
	c.idx++
	return true
}

func (c *Cursor) yield(n Node) {
	c.node = n
	c.yielded++
	if c.opts.Limit > 0 && c.yielded >= c.opts.Limit {
		c.capped = true
	}
}

func (c *Cursor) fail(err error) {
	c.err = wrapErr("query", c.path, err)
	c.done = true
	c.cancel()
	// Settle the remaining branches so nothing stays blocked on our sinks.
	for i := c.cur; i < len(c.pend); i++ {
		p := c.pend[i]
		if ch := p.C(); ch != nil {
			for range ch {
			}
		}
		p.Wait(context.Background())
	}
	c.cur = len(c.pend)
}

// mergeBuffered combines the branch results into one ExecResult — the Do
// semantics: union branches dedup as a node set, sorted unions re-sort,
// Limit truncates the final sequence.
func (c *Cursor) mergeBuffered() {
	c.merged = true
	for ; c.cur < len(c.pend); c.cur++ {
		res, err := c.pend[c.cur].Wait(c.ctx)
		if err != nil {
			c.fail(err)
			return
		}
		c.bres = append(c.bres, res)
	}
	out := aggregateBranches(c.bres)

	var all []core.Result
	for _, r := range c.bres {
		all = append(all, r.Results...)
	}
	if len(c.pend) > 1 {
		seen := make(map[storage.NodeID]bool, len(all))
		dedup := all[:0]
		for _, r := range all {
			if seen[r.Node] {
				continue
			}
			seen[r.Node] = true
			dedup = append(dedup, r)
		}
		all = dedup
		if c.opts.Sorted {
			core.SortResults(all)
		}
	}
	if c.opts.Limit > 0 && len(all) > c.opts.Limit {
		all = all[:c.opts.Limit]
	}
	out.Nodes = make([]Node, len(all))
	for i, r := range all {
		out.Nodes[i] = Node{db: c.db, id: r.Node, ord: r.Ord}
	}
	c.sum = out
	c.sumOK = true
}

// drainAll consumes the whole cursor and returns the buffered-call result:
// every yielded node plus the aggregated summary.
func (c *Cursor) drainAll() (ExecResult, error) {
	if !c.live && c.direct == nil {
		// Buffered engine mode already materializes the exact Do result.
		if !c.merged {
			c.mergeBuffered()
		}
		return c.sum, c.err
	}
	var nodes []Node
	for c.Next() {
		nodes = append(nodes, c.Node())
	}
	if c.err != nil {
		return ExecResult{}, c.err
	}
	res, _ := c.Summary()
	res.Nodes = nodes
	return res, nil
}

// Drain consumes the rest of the stream and returns it as a buffered
// ExecResult — the bridge from cursor to one-shot semantics. Session.Do is
// exactly stream-then-Drain.
func (c *Cursor) Drain() (ExecResult, error) { return c.drainAll() }

// aggregateBranches folds branch summaries into one ExecResult (no nodes):
// costs sum, shared flags or, and the virtual latency spans the earliest
// submit to the latest done.
func aggregateBranches(branch []engine.Result) ExecResult {
	if len(branch) == 0 {
		return ExecResult{}
	}
	out := ExecResult{Strategy: fromCore(branch[0].Strategy), Gang: branch[0].Gang}
	if ch := branch[0].Choice; ch != nil {
		pc := fromPlanChoice(*ch)
		out.Choice = &pc
	}
	minSubmit, maxDone := branch[0].SubmitV, branch[0].DoneV
	for _, r := range branch {
		out.Shared = out.Shared || r.Shared
		out.CostV += r.CostV
		out.CPUV += r.CPUV
		out.IOWaitV += r.IOWaitV
		out.SharedV += r.SharedV
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
// Direct (engine-free) streaming: DB.QueryStream.

// QueryStream opens a cursor directly over the operator tree, on the
// caller's goroutine — the streaming counterpart of DB.QueryCtx, and the
// engine-free counterpart of Session.Stream. Unsorted queries pull the
// plan incrementally: each Next advances the operators just far enough to
// produce one match. Sorted queries evaluate fully first (order
// enforcement), then stream the sorted result.
//
// Like QueryCtx, it is not safe for use concurrently with other queries on
// the same DB; use Session.Stream for concurrent streaming.
func (db *DB) QueryStream(ctx context.Context, path string, opts QueryOptions) (*Cursor, error) {
	branches, err := xpathParseUnion(db, path)
	if err != nil {
		return nil, err
	}
	cctx, cancel := opts.context(ctx)
	if opts.Sorted {
		// Order enforcement buffers anyway: evaluate through the buffered
		// path and stream the sorted nodes from the cursor.
		res, qerr := db.QueryCtx(cctx, path, opts)
		if qerr != nil {
			cancel()
			return nil, qerr
		}
		c := &Cursor{db: db, path: path, opts: opts, ctx: cctx, cancel: cancel,
			merged: true, sum: res, sumOK: true}
		return c, nil
	}
	d := &directCursor{
		db:       db,
		branches: branches,
		arena:    core.GetArena(),
		startLed: db.store.Ledger().Snapshot(),
	}
	c := &Cursor{db: db, path: path, opts: opts, ctx: cctx, cancel: cancel, direct: d}
	if len(branches) > 1 {
		c.seen = make(map[storage.NodeID]bool)
	}
	return c, nil
}

// directCursor pulls the operator tree of one branch at a time on the
// consumer's goroutine. Union branches evaluate sequentially (a streamed
// union has no shared scheduler — delivery is paced by the consumer).
type directCursor struct {
	db       *DB
	branches [][]xpath.Step
	bi       int
	root     core.Operator
	opened   bool
	arena    *core.Arena
	startLed stats.Ledger
	strat    Strategy
	choice   *PlanChoice
	strategd bool
	closed   bool
}

// open builds and opens the plan for the current branch. A page fault
// during open is returned as a typed error.
func (d *directCursor) open(ctx context.Context, opts QueryOptions) (ferr error) {
	defer func() {
		if r := recover(); r != nil {
			if pe, ok := storage.AsPageFault(r); ok {
				ferr = pe
				return
			}
			panic(r)
		}
	}()
	strat := opts.Strategy
	if !d.strategd {
		d.strategd = true
		if strat == Auto && len(d.branches) == 1 {
			ch := d.db.getChooser().Choose(d.branches[0])
			d.strat = fromCore(ch.Strategy)
			pc := fromPlanChoice(ch)
			d.choice = &pc
		} else if strat == Auto {
			d.strat = Schedule
		} else {
			d.strat = strat
		}
	}
	pe := opts.PredEval.internal()
	if pe == core.PredAuto && hasPredicates(d.branches[d.bi]) {
		if d.choice != nil && d.bi == 0 {
			pe = d.choice.PredEval.internal()
		} else {
			pe = d.db.getChooser().Choose(d.branches[d.bi]).PredEval
		}
	}
	p := core.BuildPlan(d.db.store, d.branches[d.bi], d.db.store.Roots(), d.strat.internal(),
		core.PlanOptions{MemLimit: opts.MemLimit, Ctx: ctx, Arena: d.arena, PredEval: pe})
	d.root = p.Root()
	d.root.Open()
	d.opened = true
	return nil
}

// pull advances the current branch by one match, converting the fault
// plane's typed panic into an error.
func (d *directCursor) pull() (inst core.Instance, ok bool, ferr error) {
	defer func() {
		if r := recover(); r != nil {
			if pe, isPF := storage.AsPageFault(r); isPF {
				ferr = pe
				return
			}
			panic(r)
		}
	}()
	inst, ok = d.root.Next()
	return inst, ok, nil
}

// close releases the current plan and pooled resources, and withdraws the
// volume's in-flight cluster prefetches (a streamed plan abandoned
// mid-flight may have requests queued on the device).
func (d *directCursor) close() {
	if d.closed {
		return
	}
	d.closed = true
	if d.opened {
		d.opened = false
		func() {
			defer func() {
				if r := recover(); r != nil {
					if _, isPF := storage.AsPageFault(r); !isPF {
						panic(r)
					}
				}
			}()
			d.root.Close()
		}()
	}
	d.root = nil
	d.db.store.CancelRequests()
	if d.arena != nil {
		core.PutArena(d.arena)
		d.arena = nil
	}
}

// nextDirect advances the direct cursor: open the next branch as needed,
// pull one match, dedup across union branches.
func (c *Cursor) nextDirect() bool {
	d := c.direct
	for {
		if cerr := c.ctx.Err(); cerr != nil {
			c.failDirect(cerr)
			return false
		}
		if !d.opened {
			if d.bi >= len(d.branches) {
				d.close()
				c.finishDirect()
				c.done = true
				return false
			}
			if ferr := d.open(c.ctx, c.opts); ferr != nil {
				c.failDirect(ferr)
				return false
			}
		}
		inst, ok, ferr := d.pull()
		if ferr != nil {
			c.failDirect(ferr)
			return false
		}
		if !ok {
			// A cancelled plan ends its stream early rather than erroring;
			// surface the context failure as the typed taxonomy error.
			if cerr := c.ctx.Err(); cerr != nil {
				c.failDirect(cerr)
				return false
			}
			d.opened = false
			d.root.Close()
			d.root = nil
			d.bi++
			continue
		}
		if c.seen != nil {
			if c.seen[inst.NR] {
				continue
			}
			c.seen[inst.NR] = true
		}
		c.yield(Node{db: c.db, id: inst.NR, ord: inst.Ord})
		return true
	}
}

func (c *Cursor) failDirect(err error) {
	c.err = wrapErr("query", c.path, err)
	c.done = true
	c.direct.close()
	c.cancel()
	c.finishDirect()
}

// finishDirect stamps the direct cursor's summary from the volume-ledger
// delta (the same accounting DB.QueryCtx reports).
func (c *Cursor) finishDirect() {
	if c.sumOK {
		return
	}
	d := c.direct
	end := c.db.store.Ledger().Snapshot()
	out := ExecResult{Strategy: d.strat, Choice: d.choice, Gang: 1}
	out.CostV = end.Now - d.startLed.Now
	out.CPUV = end.CPU - d.startLed.CPU
	out.IOWaitV = end.IOWait - d.startLed.IOWait
	out.VirtualLatency = out.CostV
	c.sum = out
	c.sumOK = true
}
