package core

import (
	"pathdb/internal/stats"
	"pathdb/internal/storage"
)

// Scheduler is the interface XAssembly uses to notify the I/O-performing
// operator of newly discovered clusters (Sec. 5.3.3.2). XSchedule
// implements it; XScan plans pass a nil Scheduler — the scan visits every
// cluster unconditionally (Sec. 5.4.5.3).
type Scheduler interface {
	Enqueue(Instance)
}

// XAssembly is the topmost operator of a path plan (Sec. 5.3.3, 5.4.5). It
//
//   - returns full path instances to the consumer, eliminating duplicates
//     through the reachable-right-ends set R;
//   - forwards the targets of right-incomplete instances to the scheduler
//     so their clusters get visited (R-variant behaviour); and
//   - merges speculative left-incomplete instances held in S with the
//     growing reachability knowledge in R (general behaviour), which is
//     how XScan plans assemble results out of scan order.
//
// The R-variant of Sec. 5.3.3 is exactly this operator when no
// left-incomplete instances arrive.
type XAssembly struct {
	es      *EvalState
	input   Operator
	sched   Scheduler // may be nil (XScan plans)
	pathLen int

	// FirstStepAll enables the '//' optimisation of Sec. 5.4.5.4: every
	// node is reachable after step 1, so right ends at step 1 are neither
	// stored nor checked in R. Only valid when every cluster is guaranteed
	// to be visited (XScan plans).
	FirstStepAll bool

	r     map[End]bool       // reachable right ends
	s     map[End][]Instance // speculative instances by left end
	sLen  int
	ready []Instance // instances from S whose left end became reachable
}

// NewXAssembly builds the assembly operator. sched may be nil.
func NewXAssembly(es *EvalState, input Operator, sched Scheduler) *XAssembly {
	return &XAssembly{es: es, input: input, sched: sched, pathLen: es.Len()}
}

// Open opens the producer and resets R and S (borrowed from the arena
// when the plan has one).
func (a *XAssembly) Open() {
	a.input.Open()
	ar := a.es.Arena
	a.r = ar.takeEndSet()
	a.s = ar.takeEndInsts()
	a.sLen = 0
	a.ready = ar.takeReady()
}

// Close releases the memory structures (back to the arena, if any).
func (a *XAssembly) Close() {
	a.input.Close()
	ar := a.es.Arena
	ar.putEndSet(a.r)
	ar.putEndInsts(a.s)
	ar.putReady(a.ready)
	a.r, a.s, a.ready = nil, nil, nil
}

// reachable reports whether an end is known reachable.
func (a *XAssembly) reachable(e End) bool {
	a.es.chargeSetOp(1)
	stats.Inc(&a.es.ledger().SetLookups)
	if a.FirstStepAll && e.Step == 1 {
		return true
	}
	return a.r[e]
}

// addReachable inserts an end into R, waking any speculative instances
// waiting on it. It reports whether the end was new.
func (a *XAssembly) addReachable(e End) bool {
	a.es.chargeSetOp(1)
	stats.Inc(&a.es.ledger().SetLookups)
	if a.FirstStepAll && e.Step == 1 {
		// Implicitly present; wake waiters but do not store.
		a.wake(e)
		return !a.r[e] && !a.markImplicit(e)
	}
	if a.r[e] {
		return false
	}
	a.es.chargeSetOp(1)
	stats.Inc(&a.es.ledger().SetInserts)
	a.r[e] = true
	a.wake(e)
	return true
}

// markImplicit records implicit step-1 ends so duplicate wake-ups of the
// same end report "not new". Reuses R storage.
func (a *XAssembly) markImplicit(e End) bool {
	if a.r[e] {
		return true
	}
	a.r[e] = true
	return false
}

// wake moves the speculative instances waiting on end e to the ready list.
func (a *XAssembly) wake(e End) {
	if waiting, ok := a.s[e]; ok {
		a.ready = append(a.ready, waiting...)
		delete(a.s, e)
		a.es.Arena.putInsts(waiting)
		a.sLen -= len(waiting)
		a.es.chargeSetOp(len(waiting))
	}
}

// Next implements the XAssembly next method (Sec. 5.4.5.2): case 1
// processes reachable speculative instances, case 2 pulls from the
// producer.
func (a *XAssembly) Next() (Instance, bool) {
	for {
		if a.es.Cancelled() {
			return Instance{}, false
		}
		// Case 1: a speculative instance whose left end is reachable.
		if n := len(a.ready); n > 0 {
			x := a.ready[n-1]
			a.ready = a.ready[:n-1]
			if out, ok := a.emitReachable(x); ok {
				return out, true
			}
			continue
		}

		// Case 2: pull a new instance from the XStep chain.
		y, ok := a.input.Next()
		if !ok {
			return Instance{}, false
		}
		a.es.chargeTuple()

		if a.es.Fallback() {
			// Fallback mode: only full instances arrive (the XStep chain
			// crosses borders); XAssembly degrades to duplicate
			// elimination on the result (Sec. 5.4.6).
			if !y.Full(a.pathLen) {
				continue
			}
			if a.addReachable(End{Step: a.pathLen, Node: y.NR}) {
				return y, true
			}
			continue
		}

		switch {
		case y.Full(a.pathLen):
			if a.addReachable(End{Step: a.pathLen, Node: y.NR}) {
				return y, true
			}
		case !y.LeftComplete():
			// Speculative: park in S (or straight to ready if its left
			// end is already reachable).
			a.park(y.dropCur())
		case y.NRBorder:
			// Left-complete, right-incomplete: its continuation point —
			// the far side of the border — is now known reachable.
			a.noteCrossing(y)
		default:
			// A complete but non-full instance can only be the context
			// instance of a zero-length path.
			if a.pathLen == 0 && y.SL == 0 && y.SR == 0 {
				if a.addReachable(End{Step: 0, Node: y.NR}) {
					return y, true
				}
			}
		}
	}
}

// emitReachable processes one instance from the ready list per case 1 of
// Sec. 5.4.5.2: its right end becomes reachable; full paths are emitted.
func (a *XAssembly) emitReachable(x Instance) (Instance, bool) {
	if x.NRBorder {
		// Right-incomplete: reaching it means the far cluster's anchor is
		// reachable too; chain the merge and notify the scheduler.
		a.noteCrossing(x)
		return Instance{}, false
	}
	isNew := a.addReachable(End{Step: x.SR, Node: x.NR})
	if x.SR == a.pathLen && isNew {
		return x, true
	}
	return Instance{}, false
}

// noteCrossing handles a right-incomplete instance: the target of its
// border becomes a reachable continuation point, deduplicated via R so no
// inter-cluster edge is traversed twice for the same step (Sec. 5.3.3.3).
// The scheduler, if any, is told to visit the target cluster.
func (a *XAssembly) noteCrossing(p Instance) {
	target := a.targetOf(p)
	e := End{Step: p.SR, Node: target}
	if !a.addReachable(e) {
		return
	}
	if a.sched != nil {
		cont := Instance{Path: p.Path, SL: p.SL, NL: p.NL, NLBorder: p.NLBorder, SR: p.SR, NR: target, NRBorder: true}
		a.sched.Enqueue(cont)
	}
}

// targetOf resolves target(N_R(p)) for a border-ended instance. XStep
// captured the companion NodeID while the border's cluster was loaded, so
// this never performs I/O.
func (a *XAssembly) targetOf(p Instance) storage.NodeID {
	if p.TargetR != 0 {
		return p.TargetR
	}
	if p.curSet {
		return p.cur.Target()
	}
	return a.es.Store.Swizzle(p.NR).Target()
}

// park stores a speculative instance in S, enforcing the memory limit of
// Sec. 5.4.6.
func (a *XAssembly) park(x Instance) {
	e := x.EndL()
	if a.reachable(e) {
		a.ready = append(a.ready, x)
		return
	}
	a.es.chargeSetOp(1)
	stats.Inc(&a.es.ledger().SetInserts)
	lst, ok := a.s[e]
	if !ok {
		lst = a.es.Arena.takeInsts()
	}
	a.s[e] = append(lst, x)
	a.sLen++
	if a.es.MemLimit > 0 && a.sLen > a.es.MemLimit {
		// Memory exhausted: discard S and degrade the whole plan.
		a.es.Arena.putEndInsts(a.s)
		a.s = a.es.Arena.takeEndInsts()
		a.sLen = 0
		a.ready = a.ready[:0]
		a.es.EnterFallback()
		if f, ok := a.input.(fallbackAware); ok {
			f.enterFallback()
		}
	}
}

// SLen exposes the current size of S (tests, memory accounting).
func (a *XAssembly) SLen() int { return a.sLen }

// fallbackAware is implemented by operators that must react when the plan
// degrades (XScan restarts its producer).
type fallbackAware interface {
	enterFallback()
}
