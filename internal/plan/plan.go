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
	"slices"
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

// PredEstimate is the chooser's join-vs-nested decision detail for one
// predicate-bearing location step.
type PredEstimate struct {
	Step       int         // 1-based location step index
	Candidates int64       // estimated candidate nodes reaching the step
	Nested     stats.Ticks // per-candidate probing (PredFilter)
	Join       stats.Ticks // set-at-a-time structural semi-join (XJoin), Build included
	Joinable   bool        // every branch expressible as a semi-join
	Cached     bool        // every level, or the S_1, the join needs is in the derived cache
	Build      stats.Ticks // enumerating the levels that are not (each priced once per query)
	Credit     stats.Ticks // saving credited to those levels by the nested runs so far
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

	// PredEval is the chosen predicate evaluator (PredNested when the
	// path carries no predicates); Preds holds the per-step cost detail.
	PredEval core.PredEval
	Preds    []PredEstimate
}

// String renders the decision for logs and the xpathq tool.
func (c Choice) String() string {
	s := fmt.Sprintf("choose %v (coverage %.0f%%, resident %.0f %%: schedule %v, scan %v, simple %v)",
		c.Strategy, 100*c.Coverage, 100*c.Residency, c.Schedule.Cost, c.Scan.Cost, c.Simple.Cost)
	for _, p := range c.Preds {
		s += fmt.Sprintf("; step %d preds → %v (C=%d: nested %v, join %v",
			p.Step, c.PredEval, p.Candidates, p.Nested, p.Join)
		if p.Cached {
			s += ", levels resident"
		} else {
			s += fmt.Sprintf(", build %v, credit %v", p.Build, p.Credit)
		}
		s += ")"
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
// breakdown. It moves nothing: the predicate evaluator it reports is the
// one Resolve would pick on the credit accrued so far.
func (c *Chooser) Choose(path []xpath.Step) Choice { return c.choose(path, false) }

// choose is Choose; accrue lets a nested decision credit the levels whose
// absence caused it (see predChoices).
func (c *Chooser) choose(path []xpath.Step, accrue bool) Choice {
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
	choice.PredEval, choice.Preds = c.predChoices(path, m, miss, accrue)
	return choice
}

// predChoices costs the two predicate evaluators for every
// predicate-bearing step of the path. Nested (PredFilter) pays one probe
// sub-plan per candidate per branch, with border crossings turning into
// random reads at the pool's miss share; the structural join (XJoin) pays a
// selection or doc-order merge per branch level, amortised over the whole
// candidate batch, plus — once per distinct level of the query that is not
// in the derived cache — a bitmap-assisted whole-document enumeration. The
// evaluator is a plan-wide setting, so the decision sums over all predicate
// steps, with non-joinable steps costed as nested on both sides (XJoin
// degenerates to per-candidate probes for them).
//
// When only the builds make the join the dearer plan, the choice is rent or
// buy with the number of reads the levels will serve unknown, answered at
// break-even: with accrue set, the saving the join would have brought this
// query is credited in equal shares to the missing levels, and once their
// credit covers the estimate of building them the join is picked — it
// builds and admits them. Credits live in the derived cache's generation,
// which commits advance rather than drop, so a volume pays at most one
// build's worth of rent per level before it buys, however often it is
// written (2-competitive with either fixed policy). Caller holds c.mu.
func (c *Chooser) predChoices(path []xpath.Step, m vdisk.CostModel, miss float64, accrue bool) (core.PredEval, []PredEstimate) {
	var elems int64
	for _, ts := range c.ds.Tags {
		elems += ts.Count
	}
	live := float64(c.live)
	if live < 1 {
		live = 1
	}
	// Average fanout calibrates child-step probe walks; a candidate's
	// subtree share calibrates descendant-step walks.
	fanout := live / float64(max64(elems, 1))
	if fanout < 2 {
		fanout = 2
	}
	crossRate := float64(c.ds.Borders) / live // chance one probe hop leaves the cluster
	random := miss * float64(m.SeekCost(int64(max64(int64(c.ds.Pages), 1))/3)+m.Transfer)

	var out []PredEstimate
	var keys []string // the query's distinct missing levels, in step order
	var keyEnd []int  // out[k] met keys[keyEnd[k-1]:keyEnd[k]] first
	var totalNested, totalJoin, totalBuild float64
	anyJoinable := false
	for si, s := range path {
		if len(s.Predicates) == 0 {
			continue
		}
		cands := float64(c.testCount(s.Test))
		if cands < 1 {
			cands = 1
		}
		est := PredEstimate{Step: si + 1, Candidates: int64(cands), Joinable: true, Cached: true}
		var nested, join, build float64
		for _, p := range s.Predicates {
			for _, branch := range p.Paths {
				need := core.JoinNeeds(c.store, branch, p)
				est.Joinable = est.Joinable && need.Joinable
				// Nested: per candidate, sub-plan setup plus the walk —
				// child steps visit the fanout, descendant steps the
				// candidate's subtree.
				subtree := live / cands
				if subtree < fanout {
					subtree = fanout
				}
				walk := float64(4*m.CPUTupleMove + 2*m.CPUSetOp)
				for _, bs := range need.Steps {
					visits := fanout
					switch bs.Axis {
					case xpath.Descendant, xpath.DescendantOrSelf:
						visits = subtree
					}
					walk += visits*float64(m.CPUNodeVisit) + crossRate*random
				}
				nested += cands * walk
				// Join: unless S_1 is resident, a pass over every level, and
				// for a missing one first its enumeration — the virtual
				// clock charges a node visit per live record even under the
				// bitmap scan (it models the paper's node-at-a-time system)
				// and a move per match. Then the candidates merge against S_1.
				var d1 float64
				for li, bs := range need.Steps {
					dj := float64(c.testCount(bs.Test))
					if li == 0 {
						d1 = dj
					}
					if need.Missing == nil {
						continue // S_1 resident (or no join to price)
					}
					join += dj * float64(m.CPUSetOp)
					if key := need.Missing[li]; key != "" {
						est.Cached = false
						if !slices.Contains(keys, key) {
							keys = append(keys, key)
							build += live*float64(m.CPUNodeVisit) + dj*float64(m.CPUTupleMove)
						}
					}
				}
				join += (cands + d1) * float64(m.CPUSetOp)
			}
		}
		est.Nested, est.Join, est.Build = stats.Ticks(nested), stats.Ticks(join+build), stats.Ticks(build)
		out, keyEnd = append(out, est), append(keyEnd, len(keys))
		totalNested += nested
		if est.Joinable {
			anyJoinable = true
			totalJoin += join
			totalBuild += build
		} else {
			totalJoin += nested
		}
	}
	pred := core.PredNested
	if anyJoinable && totalJoin < totalNested {
		var share, credit float64
		if accrue && totalJoin+totalBuild >= totalNested {
			share = (totalNested - totalJoin) / float64(len(keys))
		}
		if dcache, epoch, ok := c.store.Derived(); ok && len(keys) > 0 {
			lo := 0
			for k, hi := range keyEnd {
				got := dcache.Credit(epoch, keys[lo:hi], share)
				out[k].Credit, lo = stats.Ticks(got), hi
				credit += got
			}
		}
		if totalJoin+totalBuild < totalNested || credit >= totalBuild {
			pred = core.PredJoin
		}
	}
	return pred, out
}

// testCount estimates how many document nodes match the node test; name
// tests read the synopsis tag counts, everything else conservatively
// assumes the whole document.
func (c *Chooser) testCount(t xpath.NodeTest) int64 {
	if !t.AnyName && t.Kind == xpath.KindElement {
		var n int64
		for _, tag := range t.Tags {
			n += c.ds.Tags[tag].Count
		}
		return n
	}
	return c.live
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
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

// Forced reports whether a request leaves nothing to the cost model: the
// strategy is given, and so is the predicate evaluator or the path has no
// predicates to evaluate. Callers that construct their chooser lazily test
// it first — the statistics walk behind NewChooser is the expensive part.
func Forced(auto bool, pred core.PredEval, path []xpath.Step) bool {
	return !auto && (pred != core.PredAuto || !xpath.HasPredicates(path))
}

// Resolve settles the strategy and predicate evaluator one path will run
// with — the single place a request's Auto and PredAuto are answered, for
// the facade and the engine's dispatcher alike. Under auto the model picks
// the strategy and the Choice is returned for the query's summary; a forced
// strategy is kept, and the model is still asked for the evaluator when that
// is PredAuto and the path has predicates.
func (c *Chooser) Resolve(path []xpath.Step, auto bool, strat core.Strategy, pred core.PredEval) (core.Strategy, core.PredEval, *Choice) {
	if Forced(auto, pred, path) {
		return strat, pred, nil
	}
	choice := c.choose(path, pred == core.PredAuto)
	if pred == core.PredAuto {
		pred = choice.PredEval
	}
	if !auto {
		return strat, pred, nil
	}
	return choice.Strategy, pred, &choice
}
