package core

import (
	"fmt"

	"pathdb/internal/stats"
	"pathdb/internal/vdisk"
)

// XSchedule is the I/O-performing operator based on asynchronous I/O
// (Sec. 5.3.4, 5.4.4). It pools every cluster access of one location path:
// context instances arrive from its producer, continuation instances are
// fed back by XAssembly via Enqueue, and all cluster loads are submitted
// to the asynchronous I/O subsystem, which reorders them. Instances are
// returned grouped by loaded cluster, shortest (smallest S_R) first — the
// lexicographic (cluster, S_R) order of Sec. 5.3.4.2.
//
// With Speculative set (Sec. 5.4.4), visiting a cluster additionally emits
// left-incomplete instances for its border nodes so the cluster never has
// to be revisited; XAssembly merges them later. XScheduleR of the paper is
// this operator with Speculative = false.
type XSchedule struct {
	es       *EvalState
	producer Operator

	// K is the desired minimum queue fill (paper default 100): enough
	// pending requests for the I/O layers to reorder profitably.
	K int
	// Speculative enables left-incomplete instance generation per visited
	// cluster (general XSchedule; off reproduces XScheduleR).
	Speculative bool

	q            map[vdisk.PageID][]Instance
	qLen         int
	producerDone bool

	current      vdisk.PageID
	currentValid bool
	visited      map[vdisk.PageID]bool
	spec         []Instance // speculative instances of the current cluster
}

// DefaultK is the paper's default queue fill target.
const DefaultK = 100

// NewXSchedule builds the operator reading context instances from producer.
func NewXSchedule(es *EvalState, producer Operator) *XSchedule {
	return &XSchedule{es: es, producer: producer, K: DefaultK}
}

// Open opens the producer and resets all queues (borrowed from the arena
// when the plan has one).
func (x *XSchedule) Open() {
	x.producer.Open()
	ar := x.es.Arena
	x.q = ar.takeClusterQueue()
	x.qLen = 0
	x.producerDone = false
	x.currentValid = false
	x.visited = ar.takeClusterSet()
	x.spec = ar.takeSpec()
}

// Close closes the producer and returns the queues to the arena.
func (x *XSchedule) Close() {
	x.producer.Close()
	ar := x.es.Arena
	ar.putClusterQueue(x.q)
	ar.putClusterSet(x.visited)
	ar.putSpec(x.spec)
	x.q, x.visited, x.spec = nil, nil, nil
}

// Enqueue adds a continuation instance whose target cluster must be
// visited (called by XAssembly, Sec. 5.3.3.2). The access is scheduled
// immediately with the asynchronous I/O subsystem.
func (x *XSchedule) Enqueue(p Instance) {
	cluster := p.NR.Page()
	lst, ok := x.q[cluster]
	if !ok {
		lst = x.es.Arena.takeInsts()
	}
	x.q[cluster] = append(lst, p.dropCur())
	x.qLen++
	x.es.chargeSetOp(1)
	x.es.Store.RequestCluster(cluster)
}

// Next implements the XSchedule next method (Sec. 5.3.4.2): replenish the
// queue, schedule cluster accesses, and return a path whose cluster is
// loaded.
func (x *XSchedule) Next() (Instance, bool) {
	for {
		// Cooperative cancellation: end the stream early. Requests already
		// submitted stay with the I/O subsystem; the plan's owner cancels
		// them (Store.CancelRequests) so they cannot leak into a later run.
		if x.es.Cancelled() {
			return Instance{}, false
		}
		x.replenish()

		// Return a queued path for the current cluster, shortest first.
		if x.currentValid {
			if insts := x.q[x.current]; len(insts) > 0 {
				best := 0
				for i := range insts {
					if insts[i].SR < insts[best].SR {
						best = i
					}
				}
				out := insts[best]
				insts[best] = insts[len(insts)-1]
				rest := insts[:len(insts)-1]
				if len(rest) == 0 {
					delete(x.q, x.current)
					x.es.Arena.putInsts(rest)
				} else {
					x.q[x.current] = rest
				}
				x.qLen--
				x.es.chargeTuple()
				return out, true
			}
			// Queued paths drained: emit this cluster's speculative
			// instances, if any remain.
			if n := len(x.spec); n > 0 {
				out := x.spec[n-1]
				x.spec = x.spec[:n-1]
				x.es.chargeTuple()
				return out, true
			}
		}

		// Advance to the next loaded cluster.
		c, ok := x.es.Store.WaitCluster()
		if ok {
			x.setCurrent(c)
			continue
		}
		// No outstanding I/O. Done when nothing remains anywhere.
		if x.qLen == 0 && x.producerDone {
			return Instance{}, false
		}
		if x.qLen > 0 {
			// Queued clusters without outstanding requests can occur only
			// through request/visit races; re-request them.
			for cluster := range x.q {
				x.es.Store.RequestCluster(cluster)
			}
			continue
		}
		// Producer not exhausted but queue empty: force replenish to make
		// progress even when k is already satisfied by... (cannot happen:
		// replenish fills until k or exhaustion; if qLen == 0 the producer
		// is exhausted). Defensive:
		panic(fmt.Sprintf("core: XSchedule stalled (qLen=%d, producerDone=%v)", x.qLen, x.producerDone))
	}
}

// replenish reads context instances from the producer until the queue
// holds at least K items or the producer is exhausted (Sec. 5.3.4.2,
// "Queue Processing"). In fallback mode the producer remains the only
// source (Sec. 5.4.6), which this code already guarantees structurally.
func (x *XSchedule) replenish() {
	for !x.producerDone && x.qLen < x.K {
		in, ok := x.producer.Next()
		if !ok {
			x.producerDone = true
			return
		}
		x.Enqueue(in)
	}
}

// setCurrent makes c the current cluster and prepares its speculative
// instances when enabled.
func (x *XSchedule) setCurrent(c vdisk.PageID) {
	x.current = c
	x.currentValid = true
	stats.Inc(&x.es.ledger().ClustersVisited)
	x.spec = x.spec[:0]
	if !x.Speculative || x.es.Fallback() || x.visited[c] {
		x.visited[c] = true
		return
	}
	x.visited[c] = true
	pathLen := x.es.Len()
	for _, b := range x.es.Store.BordersOf(c) {
		for i := 0; i < pathLen; i++ {
			x.spec = append(x.spec, Instance{SL: i, NL: b, NLBorder: true, SR: i, NR: b, NRBorder: true})
			stats.Inc(&x.es.ledger().SpecInstances)
		}
	}
}
