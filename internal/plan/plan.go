// Package plan implements the cost-based choice between the physical plans
// of a location path — the open problem the paper names in its outlook
// (Sec. 7): "Further research is needed to create a cost model to support
// the choice of the I/O-performing operator."
//
// The model is deliberately simple and uses only what a storage engine
// knows anyway: per-tag record and cluster counts, and how much of the
// volume the buffer pool holds right now.
//
//   - an XSchedule plan touches roughly the clusters that contain nodes
//     matching any of the path's node tests, paying a reordered random
//     access for each one that misses the pool;
//   - a Simple plan touches the same clusters in encounter order, paying an
//     unreordered random access per miss but none of the scheduler's
//     bookkeeping;
//   - an XScan plan touches every cluster once, paying a sequential
//     transfer per miss, plus the CPU for speculative instances on every
//     border node and step.
//
// On a cold pool the crossover depends on the path's physical coverage —
// the effect the paper measures: Q7 (high coverage) wants the scan, Q15
// (low coverage) wants the scheduler, Q6' sits near the break-even point,
// and Simple never wins. On a resident volume nothing is left to reorder
// and the plan with the least bookkeeping, Simple, is the cheapest.
package plan

import (
	"fmt"
	"sync"

	"pathdb/internal/core"
	"pathdb/internal/stats"
	"pathdb/internal/storage"
	"pathdb/internal/vdisk"
	"pathdb/internal/xmltree"
	"pathdb/internal/xpath"
)

// Estimate is the cost breakdown the chooser computed for one strategy.
type Estimate struct {
	Strategy     core.Strategy
	PagesTouched int
	Cost         stats.Ticks
}

// Choice is the chooser's full output, for explainability.
type Choice struct {
	Strategy core.Strategy
	Schedule Estimate
	Scan     Estimate
	Simple   Estimate
	Coverage float64 // fraction of clusters the path is estimated to touch

	// Residency is the share of the volume's data pages the buffer pool
	// held when the choice was made; every I/O term was priced at the
	// complementary miss share.
	Residency float64

	// PredEval is what PredAuto resolves to for the path on the chooser's
	// view (core.AutoPredEval; PredNested when it carries no predicates).
	// The engine overwrites it with the evaluator the built plan applied
	// on the query's own view, so an executed query reports what ran.
	PredEval core.PredEval

	// LevelRead reports that, on the chooser's view, a plan of the path
	// from the roots reads it from levels (core.ReadsLevels): no strategy
	// navigates it, so Strategy is moot and the estimates price navigation
	// that does not run.
	LevelRead bool
}

// String renders the decision for logs and the xpathq tool.
func (c Choice) String() string {
	s := fmt.Sprintf("choose %v (coverage %.0f%%, resident %.0f %%: schedule %v, scan %v, simple %v)",
		c.Strategy, 100*c.Coverage, 100*c.Residency, c.Schedule.Cost, c.Scan.Cost, c.Simple.Cost)
	if c.LevelRead {
		s += "; the path is read from levels, no strategy navigates it"
	}
	return s
}

// Chooser estimates plan costs over one store. Construct with NewChooser
// (which collects document statistics in one offline pass) and reuse across
// queries; after commits, call Refresh with a current view to fold in only
// the rewritten clusters instead of re-walking the document. Safe for
// concurrent use: one chooser may be shared between the facade's blocking
// queries and the engine's dispatcher, so a volume pays for exactly one
// statistics walk.
type Chooser struct {
	mu    sync.Mutex
	store *storage.Store
	ds    *storage.DocStats

	// Incremental-refresh state: the synopsis each page last contributed
	// to ds, the store epoch those contributions describe, and the running
	// live-record total that calibrates the per-page CPU estimate.
	perPage map[vdisk.PageID]*storage.PageSynopsis
	epoch   uint64
	live    int64
}

// NewChooser gathers the statistics the cost model needs. Call before
// resetting the ledger for measurements: the collection pass is offline
// bookkeeping, not query work.
func NewChooser(store *storage.Store) *Chooser {
	c := &Chooser{
		store:   store,
		ds:      store.CollectDocStats(),
		perPage: make(map[vdisk.PageID]*storage.PageSynopsis),
		epoch:   store.VersionEpoch(),
	}
	// The statistics walk decoded every cluster, publishing its synopsis as
	// a side effect; record each page's contribution for later diffing.
	n := store.NumDataPages()
	for i := 0; i < n; i++ {
		p := store.DataPage(i)
		sy := store.EnsureSynopsis(p)
		c.perPage[p] = sy
		c.live += int64(sy.Live)
	}
	return c
}

// Refresh folds the clusters rewritten since the chooser's epoch into its
// statistics, using the per-cluster synopses the commit path registers: the
// old contribution of each changed page is retracted and the new one added.
// Tag record counts and own-page footprints stay exact; SubtreePages is
// approximated by the presence delta (the exact value is a whole-document
// structural property). view must be a current-version read view; decode
// charges for never-seen pages land on its ledger.
func (c *Chooser) Refresh(view *storage.Store) {
	c.mu.Lock()
	defer c.mu.Unlock()
	cur := view.VersionEpoch()
	if cur == c.epoch {
		return
	}
	view.WrittenSince(c.epoch, func(p vdisk.PageID, _ uint64) {
		sy := view.EnsureSynopsis(p)
		c.contribute(c.perPage[p], -1)
		c.contribute(sy, +1)
		c.perPage[p] = sy
	})
	c.ds.Pages = view.NumDataPages()
	c.store = view
	c.epoch = cur
}

// contribute adds (sign=+1) or retracts (sign=-1) one cluster synopsis'
// contribution to the document statistics.
func (c *Chooser) contribute(sy *storage.PageSynopsis, sign int) {
	if sy == nil {
		return
	}
	c.ds.Borders += sign * int(sy.Borders)
	c.live += int64(sign) * int64(sy.Live)
	for i, t := range sy.Tags {
		if t == xmltree.NoTag {
			continue // the non-element bucket carries no name
		}
		ts := c.ds.Tags[t]
		ts.Count += int64(sign) * int64(sy.TagCounts[i])
		ts.Pages += sign
		ts.SubtreePages += sign
		if ts.Count <= 0 && ts.Pages <= 0 {
			delete(c.ds.Tags, t)
			continue
		}
		// A leaf tag's subtree spans no clusters at all, so the only floor
		// is zero — clamping to the own-page footprint would inflate the
		// coverage estimate of every leaf test after a refresh.
		if ts.SubtreePages < 0 {
			ts.SubtreePages = 0
		}
		c.ds.Tags[t] = ts
	}
}

// Epoch returns the store epoch the chooser's statistics describe.
func (c *Chooser) Epoch() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.epoch
}

// Choose prices the three physical plans for the path against the current
// state of the buffer pool, picks the cheapest, and returns the full cost
// breakdown, with the predicate evaluator PredAuto resolves to.
func (c *Chooser) Choose(path []xpath.Step) Choice {
	c.mu.Lock()
	defer c.mu.Unlock()
	m := c.store.Disk().Model()
	n := c.ds.Pages
	if n == 0 {
		n = 1
	}

	touched := c.pagesTouched(path)
	coverage := float64(touched) / float64(n)
	span := int64(n)

	// The expected share of page accesses that reach the device: one global
	// ratio, read when the choice is made. Which pages are resident is not
	// asked — that would cost a pool probe per touched page per choice.
	// Frames of superseded versions count too, hence the clamp. An empty
	// pool gives miss = 1, which leaves every term below as the paper's
	// cold-disk model prices it, to the tick.
	residency := float64(c.store.Buffer().Len()) / float64(n)
	if residency > 1 {
		residency = 1
	}
	miss := 1 - residency
	onMiss := func(t stats.Ticks) stats.Ticks { return stats.Ticks(miss * float64(t)) }

	// CPU per visited page: navigating the records once, plus — when the
	// page has to be read — decoding it into the swizzled image (one node
	// visit per record each). The measured average from the cluster
	// synopses replaces the loader's nominal ≈330 records per 8 KiB page
	// once statistics exist.
	recsPerPage := stats.Ticks(330)
	if avg := c.live / int64(n); avg > 0 {
		recsPerPage = stats.Ticks(avg)
	}
	navCPU := recsPerPage * m.CPUNodeVisit
	pageCPU := navCPU + onMiss(navCPU)

	// XSchedule: one reordered random access per touched cluster. The
	// asynchronous queue lets the device choose among roughly
	// queueDepth pending requests, dividing the average travel distance.
	// Every instance that goes through the queue — the context, then one
	// per border crossing (an inter-cluster edge is two border records) —
	// is enqueued, dequeued, passed along the whole XStep chain and entered
	// in R. While requests are outstanding that work overlaps with the
	// device; only the resident share is exposed.
	const queueDepth = 32
	reordered := onMiss(m.SeekCost(span/queueDepth) + m.Transfer)
	queued := int64(c.ds.Borders)*int64(touched)/(2*int64(n)) + 1
	perQueued := stats.Ticks(len(path)+2)*m.CPUTupleMove + 3*m.CPUSetOp
	exposed := stats.Ticks(residency * float64(stats.Ticks(queued)*perQueued))
	scheduleCost := stats.Ticks(touched)*(reordered+pageCPU) + exposed

	// Simple: the same clusters, but accessed in encounter order with no
	// overlap; average travel is a third of the span.
	random := onMiss(m.SeekCost(span/3) + m.Transfer)
	simpleCost := stats.Ticks(touched) * (random + pageCPU)

	// XScan: every cluster once, sequentially, plus speculative work per
	// border and step: each speculative instance crosses (on average half
	// of) the XStep chain and touches the R/S structures.
	perSpec := stats.Ticks(len(path))*m.CPUTupleMove/2 + 2*m.CPUNodeVisit + 2*m.CPUSetOp
	specCount := int64(c.ds.Borders) * int64(len(path))
	scanCost := stats.Ticks(n)*(onMiss(m.Transfer)+pageCPU) + stats.Ticks(specCount)*perSpec

	choice := Choice{
		Coverage:  coverage,
		Residency: residency,
		Schedule:  Estimate{Strategy: core.StrategySchedule, PagesTouched: touched, Cost: scheduleCost},
		Scan:      Estimate{Strategy: core.StrategyScan, PagesTouched: n, Cost: scanCost},
		Simple:    Estimate{Strategy: core.StrategySimple, PagesTouched: touched, Cost: simpleCost},
	}
	best := choice.Schedule
	for _, e := range [...]Estimate{choice.Scan, choice.Simple} {
		if e.Cost < best.Cost {
			best = e
		}
	}
	choice.Strategy = best.Strategy
	roots := c.store.Roots()
	choice.PredEval = core.AutoPredEval(c.store, path, roots)
	choice.LevelRead = choice.PredEval == core.PredJoin && core.ReadsLevels(c.store, path, roots)
	return choice
}

// pagesTouched estimates how many clusters the path evaluation must load.
// It tracks the subtree coverage of the running context set (as a fraction
// of all clusters): a recursive step must traverse that whole subtree,
// while a non-recursive step only touches the clusters holding elements
// matching its name test, bounded by the current coverage. Name tests
// shrink the coverage to the tested tag's subtree footprint.
func (c *Chooser) pagesTouched(path []xpath.Step) int {
	n := float64(c.ds.Pages)
	frac := 1.0 // subtree coverage of the current context set
	touched := 1.0
	for _, s := range path {
		candidate := touched
		switch s.Axis {
		case xpath.Descendant, xpath.DescendantOrSelf:
			candidate = frac * n
		default:
			if !s.Test.AnyName && s.Test.Kind == xpath.KindElement {
				own := 0.0
				for _, tag := range s.Test.Tags {
					own += float64(c.ds.Tags[tag].Pages)
				}
				candidate = minf(own, frac*n)
			}
		}
		if candidate > touched {
			touched = candidate
		}
		// The context set narrows to nodes passing the test.
		if !s.Test.AnyName && s.Test.Kind == xpath.KindElement {
			sub := 0.0
			for _, tag := range s.Test.Tags {
				sub += float64(c.ds.Tags[tag].SubtreePages)
			}
			frac = minf(frac, sub/n)
		}
	}
	if touched > n {
		touched = n
	}
	if touched < 1 {
		touched = 1
	}
	return int(touched + 0.5)
}

func minf(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}

// Resolve settles the strategy one path will run with — the single place a
// request's Auto is answered, for the facade and the engine's dispatcher
// alike. Under auto the model picks and the Choice is returned for the
// query's summary; a forced strategy is kept without asking it. The
// predicate evaluator is left to the plan (core.AutoPredEval).
func (c *Chooser) Resolve(path []xpath.Step, auto bool, strat core.Strategy) (core.Strategy, *Choice) {
	if !auto {
		return strat, nil
	}
	choice := c.Choose(path)
	return choice.Strategy, &choice
}
