package engine

import (
	"context"
	"sync"
	"time"

	"pathdb/internal/core"
	"pathdb/internal/stats"
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

func (s *Session) newPending(ctx context.Context, q Query) *Pending {
	if ctx == nil {
		ctx = context.Background()
	}
	p := &Pending{
		ctx:     ctx,
		q:       q,
		submitW: time.Now(),
		submitV: s.e.store.Ledger().Total(),
		done:    make(chan struct{}),
	}
	if q.Stream {
		p.sink = make(chan []core.Result)
	}
	return p
}

// TrySubmit admits q without blocking. It returns ErrQueueFull when the
// admission queue is at capacity — the load-shedding half of admission
// control — and ErrClosed after Close.
func (s *Session) TrySubmit(ctx context.Context, q Query) (*Pending, error) {
	p := s.newPending(ctx, q)
	if err := p.ctx.Err(); err != nil {
		return nil, err
	}
	s.e.admit.RLock()
	defer s.e.admit.RUnlock()
	if s.e.closed.Load() {
		return nil, ErrClosed
	}
	select {
	case s.e.queue <- p:
		s.e.submitted.Add(1)
		return p, nil
	default:
		s.e.rejected.Add(1)
		return nil, ErrQueueFull
	}
}

// Submit admits q, blocking while the admission queue is full — the
// backpressure half of admission control. It fails with the context's
// error if ctx is done first, and with ErrClosed if the engine shuts down.
func (s *Session) Submit(ctx context.Context, q Query) (*Pending, error) {
	p := s.newPending(ctx, q)
	if err := p.ctx.Err(); err != nil {
		return nil, err
	}
	// The read lock pairs with Engine.shutAdmission: a submission holds it
	// across the closed check and the queue send, so shutdown cannot slip
	// between them and strand the Pending. The dispatcher stays live until
	// shutAdmission returns, so a send blocked on a full queue still
	// drains.
	s.e.admit.RLock()
	defer s.e.admit.RUnlock()
	if s.e.closed.Load() {
		return nil, ErrClosed
	}
	select {
	case s.e.queue <- p:
		s.e.submitted.Add(1)
		return p, nil
	case <-p.ctx.Done():
		return nil, p.ctx.Err()
	case <-s.e.stop:
		return nil, ErrClosed
	}
}

// Do submits q and waits for its result.
func (s *Session) Do(ctx context.Context, q Query) (Result, error) {
	p, err := s.Submit(ctx, q)
	if err != nil {
		return Result{}, err
	}
	return p.Wait(ctx)
}
