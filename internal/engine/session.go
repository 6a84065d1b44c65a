package engine

import (
	"context"
	"sync"
	"time"

	"pathdb/internal/core"
	"pathdb/internal/stats"
	"pathdb/internal/storage"
)

// Session is a submission handle on an engine. Many sessions submit
// concurrently; each session's methods may also be called from several
// goroutines (the session carries no mutable state).
type Session struct {
	e *Engine
}

// streamDepth is the size of a streaming query's sink blocks: the producer
// runs ahead of its consumer by at most one full block before the hand-over
// blocks (back-pressure at the operator poll point). Queries at or under
// this cardinality complete without ever waiting on the consumer.
const streamDepth = 64

// blocks recycles sink blocks: the producer takes one per block it opens,
// the consumer hands each back once read (Recycle).
var blocks = sync.Pool{New: func() any { return new([streamDepth]core.Result) }}

func newBlock() []core.Result { return blocks.Get().(*[streamDepth]core.Result)[:0] }

// Recycle returns a block read from Pending.C, or the Result.Results a
// streaming query ended with, for the next block to reuse; the caller must
// not touch it afterwards. A slice of any other capacity is left alone.
func Recycle(blk []core.Result) {
	if cap(blk) != streamDepth {
		return
	}
	b := (*[streamDepth]core.Result)(blk[:streamDepth])
	clear(b[:]) // drop the order keys, which alias decoded cluster images
	blocks.Put(b)
}

// Pending is an admitted query waiting for (or holding) its outcome.
type Pending struct {
	ctx context.Context
	q   Query
	e   *Engine // the engine that admitted it; nil for a gang Exec ran

	submitW time.Time
	submitV stats.Ticks // volume clock at submission

	// sink carries a streaming query's matches (Query.Stream) in blocks of
	// up to streamDepth; nil for buffered queries. It is unbuffered and
	// closed by finish, so a consumer ranging over C() always unblocks when
	// the query settles.
	sink chan []core.Result
	sent int // matches emitted into blocks (producer side), the open one's included

	done chan struct{}
	res  Result
	err  error
}

// finish completes the waiter exactly once (dispatcher side).
func (p *Pending) finish(res Result, err error) {
	p.res, p.err = res, err
	close(p.done)
	if p.sink != nil {
		close(p.sink)
	}
}

// C is the result stream of a streaming query: blocks of matches in
// delivery order, closed when the query settles. The block still open then
// follows in the Result's Results, which Wait returns after C closes
// together with the summary (costs, strategy, gang). Hand every block back
// with Recycle. Nil for buffered queries.
func (p *Pending) C() <-chan []core.Result { return p.sink }

// Wait blocks until the query finishes or ctx is done. A Wait abandoned by
// its caller does not cancel the query — cancel the submission context for
// that.
func (p *Pending) Wait(ctx context.Context) (Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	select {
	case <-p.done:
		return p.res, p.err
	case <-ctx.Done():
		return Result{}, ctx.Err()
	}
}

func newPending(ctx context.Context, e *Engine, st *storage.Store, q Query) *Pending {
	p := &Pending{ctx: ctx, q: q, e: e, submitW: time.Now(), submitV: st.Ledger().Total(), done: make(chan struct{})}
	if q.Stream {
		p.sink = make(chan []core.Result)
	}
	return p
}

// Exec runs ms, a drained union's branches, as one gang on the calling
// goroutine — as the dispatcher runs a gang — and returns their Pendings
// settled: a consumer reads them exactly as it reads admitted ones.
func Exec(st *storage.Store, snap Snapshot, ms []Member) []*Pending {
	unit := make([]*Pending, len(ms))
	for i := range ms {
		unit[i] = newPending(ms[i].Ctx, nil, st, ms[i].Query)
		ms[i].p = unit[i]
	}
	runGang(st, snap, ms)
	return unit
}

// settle completes p with its member's outcome, counted on the engine that
// admitted it; a clean result is stamped with the gang size and p's queueing.
func (p *Pending) settle(res Result, err error, gang int) {
	if e := p.e; e != nil {
		if res.Shared {
			e.batched.Add(1)
		}
		_, isFault := err.(*storage.PageError)
		switch {
		case err == nil:
			e.completed.Add(1)
		case isFault:
			e.faulted.Add(1)
		case err != ErrClosed:
			e.cancelled.Add(1)
		}
	}
	if err != nil {
		Recycle(res.Results)
		p.finish(Result{}, err)
		return
	}
	res.Gang, res.SubmitV = gang, p.submitV
	res.WallQueue = time.Since(p.submitW) - res.WallExec
	p.finish(res, nil)
}

// Admit admits qs — one query, or the branches of one union — as one unit,
// whole or not at all; the dispatcher never splits a unit across gangs.
// With wait it blocks while the admission queue is full (backpressure);
// without, a full queue refuses it with ErrQueueFull (load shedding). It
// fails with ctx's error (ctx is never nil) if ctx is done first, and with
// ErrClosed once the engine shuts down.
func (s *Session) Admit(ctx context.Context, qs []Query, wait bool) ([]*Pending, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	unit := make([]*Pending, len(qs))
	for i, q := range qs {
		unit[i] = newPending(ctx, s.e, s.e.store, q)
	}
	// The read lock pairs with Engine.shutAdmission: a submission holds it
	// across the closed check and the queue send, so shutdown cannot slip
	// between them and strand the unit. The dispatcher stays live until
	// shutAdmission returns, so a send blocked on a full queue still
	// drains.
	s.e.admit.RLock()
	defer s.e.admit.RUnlock()
	if s.e.closed.Load() {
		return nil, ErrClosed
	}
	select {
	case s.e.queue <- unit:
	default:
		if !wait {
			s.e.rejected.Add(int64(len(unit)))
			return nil, ErrQueueFull
		}
		select {
		case s.e.queue <- unit:
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-s.e.stop:
			return nil, ErrClosed
		}
	}
	s.e.submitted.Add(int64(len(unit)))
	return unit, nil
}

// TrySubmit admits q without blocking (Admit without wait).
func (s *Session) TrySubmit(ctx context.Context, q Query) (*Pending, error) {
	return one(s.Admit(ctx, []Query{q}, false))
}

// Submit admits q, blocking while the queue is full (Admit with wait).
func (s *Session) Submit(ctx context.Context, q Query) (*Pending, error) {
	return one(s.Admit(ctx, []Query{q}, true))
}

func one(unit []*Pending, err error) (*Pending, error) {
	if err != nil {
		return nil, err
	}
	return unit[0], nil
}

// Do submits q and waits for its result.
func (s *Session) Do(ctx context.Context, q Query) (Result, error) {
	p, err := s.Submit(ctx, q)
	if err != nil {
		return Result{}, err
	}
	return p.Wait(ctx)
}
