package main

import (
	"fmt"
	"runtime"
	"strings"
	"time"

	"pathdb"
	"pathdb/internal/core"
	"pathdb/internal/ordpath"
	"pathdb/internal/plan"
	"pathdb/internal/stats"
	"pathdb/internal/storage"
	"pathdb/internal/txn"
	"pathdb/internal/vdisk"
	"pathdb/internal/xmark"
	"pathdb/internal/xmlparse"
	"pathdb/internal/xmltree"
	"pathdb/internal/xpath"

	"pathdb/benchmark/load"
)

// ladder times direct calls into each layer's exported functions,
// bottom-up, on a store the benchmark builds itself from the workload's
// document and pool configuration. It is the outside view of the layers:
// nothing in the program under test is instrumented.
type ladder struct {
	dict    *xmltree.Dictionary
	st      *storage.Store
	chooser *plan.Chooser

	generateS, importS, newChooserMs float64
	Rungs                            []rung
}

// rung is one timed layer call, as written to the trace file.
type rung struct {
	Name           string  `json:"name"`
	Ops            int     `json:"ops"`
	NsPerOp        float64 `json:"ns_per_op"`
	AllocsPerOp    float64 `json:"allocs_per_op"`
	VirtualNsPerOp float64 `json:"virtual_ns_per_op"`
}

const pageSize = 8192

func storageLayout(l pathdb.Layout) storage.Layout {
	switch l {
	case pathdb.Contiguous:
		return storage.LayoutContiguous
	case pathdb.Shuffled:
		return storage.LayoutShuffled
	default:
		return storage.LayoutNatural
	}
}

// newLadder generates and imports the workload's document, timing both.
func newLadder(w *workload) (*ladder, error) {
	l := &ladder{dict: xmltree.NewDictionary()}
	t0 := time.Now()
	doc := xmark.Generate(l.dict, xmark.Config{ScaleFactor: 1, Seed: docSeed, EntityScale: w.vol.entityScale})
	l.generateS = time.Since(t0).Seconds()

	t0 = time.Now()
	disk := vdisk.New(vdisk.DefaultCostModel(), stats.NewLedger(), pageSize)
	st, err := storage.Import(disk, l.dict, doc, storage.ImportOptions{
		PageSize: pageSize, Layout: storageLayout(w.vol.layout), Seed: layoutSeed,
	})
	if err != nil {
		return nil, fmt.Errorf("ladder import: %w", err)
	}
	l.importS = time.Since(t0).Seconds()
	l.st = st
	if w.vol.bufferPages > 0 {
		st.SetBufferCapacity(w.vol.bufferPages)
	}
	l.newChooserMs = l.time("plan.newchooser", 1, func() {
		l.chooser = plan.NewChooser(st.SnapshotView(new(stats.Ledger)))
	}).NsPerOp / 1e6
	st.ResetForRun()
	return l, nil
}

// time runs fn, which performs ops calls, and records the rung.
func (l *ladder) time(name string, ops int, fn func()) rung {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	v0 := l.st.Ledger().Total()
	t0 := time.Now()
	fn()
	d := time.Since(t0)
	v1 := l.st.Ledger().Total()
	runtime.ReadMemStats(&m1)
	n := float64(max(ops, 1))
	r := rung{
		Name:           name,
		Ops:            ops,
		NsPerOp:        float64(d.Nanoseconds()) / n,
		AllocsPerOp:    float64(m1.Mallocs-m0.Mallocs) / n,
		VirtualNsPerOp: float64(v1-v0) / n,
	}
	l.Rungs = append(l.Rungs, r)
	return r
}

// steps parses a single (non-union) path into its physical step list.
func (l *ladder) steps(path string) []xpath.Step {
	branches, err := xpath.ParseUnion(l.dict, path)
	if err != nil {
		panic(fmt.Sprintf("ladder: %s: %v", path, err)) // the paths are the benchmark's own constants
	}
	return branches[0].Simplify().Steps
}

func (l *ladder) run(path string, strat core.Strategy, opts core.PlanOptions) []core.Result {
	arena := core.GetArena()
	defer core.PutArena(arena)
	opts.Arena = arena
	return core.BuildPlan(l.st, l.steps(path), l.st.Roots(), strat, opts).Run()
}

// traceParseChoose repeats, under the traced request's root span, the two
// planning calls the library makes internally for it. Until spans move into
// the program this is how their time is seen from outside.
func (l *ladder) traceParseChoose(rec *load.Recorder, root int, q load.Request) {
	id := rec.Begin("xpath.parse", root, q.ID)
	branches, err := xpath.ParseUnion(l.dict, q.Path)
	rec.End(id)
	if err != nil {
		return
	}
	id = rec.Begin("plan.choose", root, q.ID)
	for _, b := range branches {
		l.chooser.Choose(b.Simplify().Steps)
	}
	rec.End(id)
}

// Branching paths of the predicate rungs: two joinable, one literal-valued.
var ladderBranchPaths = []string{
	"/site//item[mailbox/mail//keyword]",
	"/site//parlist[(listitem/parlist){1,2}]",
	`/site//item[.//keyword="golden"]`,
}

func isFlat(path string) bool { return !strings.ContainsAny(path, "|[") }

// flatPaths picks the first flat path of every class of the workload's mix.
func flatPaths(w *workload) []string {
	var out []string
	for _, c := range w.spec.Classes {
		for _, p := range c.Paths {
			if isFlat(p) {
				out = append(out, p)
				break
			}
		}
	}
	if len(out) == 0 {
		out = []string{q6, q15}
	}
	return out
}

// climb runs every rung. prefix is the traced request list; its branching
// requests are replayed to read the derived cache's hit rate.
func (l *ladder) climb(w *workload, prefix []load.Request, m *metrics) {
	st := l.st
	first, n := st.DataPages()
	r := load.NewRNG(docSeed)
	paths := flatPaths(w)

	// plan accuracy, from cold starts: what the chooser expected against
	// what each strategy costs on the paper's clock.
	var regret, qerr []float64
	for _, p := range paths {
		choice := l.chooser.Choose(l.steps(p))
		est := map[core.Strategy]stats.Ticks{
			core.StrategySchedule: choice.Schedule.Cost,
			core.StrategyScan:     choice.Scan.Cost,
			core.StrategySimple:   choice.Simple.Cost,
		}
		cost := map[core.Strategy]float64{}
		best := 0.0
		for strat := range est {
			st.ResetForRun()
			l.run(p, strat, core.PlanOptions{})
			cost[strat] = float64(st.Ledger().Total())
			if best == 0 || cost[strat] < best {
				best = cost[strat]
			}
		}
		actual, expected := cost[choice.Strategy], float64(est[choice.Strategy])
		if best > 0 && actual > 0 && expected > 0 {
			regret = append(regret, actual/best-1)
			qerr = append(qerr, max(expected/actual, actual/expected))
		}
	}
	m.set("plan.regret_frac", load.Mean(regret))
	if len(qerr) >= 2 {
		_, q2, _ := load.Quartiles(qerr)
		m.set("plan.qerror_p50", q2)
	} else {
		m.na["plan.qerror_p50"] = true
	}

	// vdisk: the simulator's own wall cost of one random synchronous read.
	st.ResetForRun()
	buf := make([]byte, pageSize)
	const reads = 2000
	rs := l.time("vdisk.readsync", reads, func() {
		for i := 0; i < reads; i++ {
			if err := st.Disk().ReadSync(first+vdisk.PageID(r.Intn(n)), buf); err != nil {
				panic(err) // no fault plane is armed
			}
		}
	})
	m.set("vdisk.readsync_ns", rs.NsPerOp)

	// buffer: fix and unfix a resident page.
	const fixes = 200000
	bm := st.Buffer()
	fx := l.time("buffer.fix_hit", fixes, func() {
		for i := 0; i < fixes; i++ {
			f, err := bm.Fix(first)
			if err != nil {
				panic(err)
			}
			bm.Unfix(f)
		}
	})
	m.set("buffer.fix_hit_ns", fx.NsPerOp)

	// storage: load and decode non-resident clusters, in a random order.
	st.ResetForRun()
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	r.Shuffle(n, func(i, j int) { order[i], order[j] = order[j], order[i] })
	order = order[:min(n, 600)]
	lc := l.time("storage.load_cluster", len(order), func() {
		for _, i := range order {
			st.LoadCluster(st.DataPage(i))
		}
	})
	m.set("storage.decode_us_per_page", (lc.NsPerOp-rs.NsPerOp)/1e3)

	// storage: intra-cluster navigation from resident context nodes.
	items := l.run(q6, core.StrategySimple, core.PlanOptions{})
	ctxs := make([]storage.Cursor, 0, 500)
	for i := 0; i < len(items) && len(ctxs) < cap(ctxs); i++ {
		ctxs = append(ctxs, st.Swizzle(items[i].Node))
	}
	axes := []struct {
		axis xpath.Axis
		test xpath.NodeTest
	}{{xpath.Child, xpath.Wildcard()}, {xpath.Descendant, xpath.AnyNode()}}
	stepAll := func() (nodes int) {
		for _, c := range ctxs {
			for _, ax := range axes {
				it := st.Step(c, ax.axis, ax.test)
				for {
					if _, ok := it.Next(); !ok {
						break
					}
					nodes++
				}
				it.Release()
			}
		}
		return nodes
	}
	const stepRounds = 20
	perRound := stepAll()
	sr := l.time("storage.step", perRound*stepRounds, func() {
		for round := 0; round < stepRounds; round++ {
			stepAll()
		}
	})
	m.set("storage.step_ns_per_node", sr.NsPerOp)

	// ordpath: compare neighbouring result keys.
	const compares = 1000000
	sink := 0
	oc := l.time("ordpath.compare", compares, func() {
		for i := 0; i < compares; i++ {
			a := items[i%(len(items)-1)]
			sink += ordpath.Compare(a.Ord, items[i%(len(items)-1)+1].Ord)
		}
	})
	_ = sink
	m.set("ordpath.compare_ns", oc.NsPerOp)

	// xpath: parse every distinct request path of the traced list.
	distinct := load.Distinct(prefix)
	xp := l.time("xpath.parse", len(distinct), func() {
		for _, q := range distinct {
			if _, err := xpath.ParseUnion(l.dict, q.Path); err != nil {
				panic(err)
			}
		}
	})
	m.set("xpath.parse_us", xp.NsPerOp/1e3)

	// plan: one cost-model decision.
	const chooseRounds = 200
	steps := make([][]xpath.Step, len(paths))
	for i, p := range paths {
		steps[i] = l.steps(p)
	}
	pc := l.time("plan.choose", chooseRounds*len(paths), func() {
		for i := 0; i < chooseRounds; i++ {
			for _, s := range steps {
				l.chooser.Choose(s)
			}
		}
	})
	m.set("plan.choose_us", pc.NsPerOp/1e3)
	m.set("plan.newchooser_ms", l.newChooserMs)

	// core: whole plans per strategy, in the pool's steady state (one
	// untimed round first: warm where the volume fits, evicting where not).
	perQuery := func(name string, ps []string, strat core.Strategy, opts core.PlanOptions) float64 {
		for _, p := range ps {
			l.run(p, strat, opts)
		}
		return l.time(name, len(ps), func() {
			for _, p := range ps {
				l.run(p, strat, opts)
			}
		}).NsPerOp / 1e6
	}
	m.set("core.xschedule_ms_per_query", perQuery("core.xschedule", paths, core.StrategySchedule, core.PlanOptions{}))
	m.set("core.xscan_ms_per_query", perQuery("core.xscan", paths, core.StrategyScan, core.PlanOptions{}))
	m.set("core.simple_ms_per_query", perQuery("core.simple", paths, core.StrategySimple, core.PlanOptions{}))
	m.set("core.xjoin_ms_per_query", perQuery("core.xjoin", ladderBranchPaths, core.StrategyScan, core.PlanOptions{PredEval: core.PredJoin}))
	m.set("core.nested_ms_per_query", perQuery("core.nested", ladderBranchPaths, core.StrategyScan, core.PlanOptions{PredEval: core.PredNested}))

	// core: the document-order sort, as the difference it makes to a run.
	unsorted := perQuery("core.run_unsorted", []string{q6, q6, q6}, core.StrategySchedule, core.PlanOptions{})
	sorted := perQuery("core.run_sorted", []string{q6, q6, q6}, core.StrategySchedule, core.PlanOptions{SortResults: true})
	m.ratio("core.sort_ms_per_kresult", (sorted-unsorted)*1000, float64(len(items)))

	// storage: the derived cache, seen by replaying the traced list's
	// branching requests (it starts empty, so first uses miss).
	replayed := 0
	for _, q := range prefix {
		if q.Kind == load.Write || !strings.Contains(q.Path, "[") || strings.Contains(q.Path, "|") || replayed == 100 {
			continue
		}
		s := l.steps(q.Path)
		choice := l.chooser.Choose(s)
		l.run(q.Path, choice.Strategy, core.PlanOptions{PredEval: choice.PredEval, SortResults: q.Sorted})
		replayed++
	}
	if dc, _, ok := st.Derived(); ok && replayed > 0 {
		hits, misses := dc.Stats()
		m.ratio("storage.derived_hit_frac", float64(hits), float64(hits+misses))
	} else {
		m.na["storage.derived_hit_frac"] = true
	}

	// plan: fold one commit's rewritten clusters into the statistics. This
	// is the last rung: it turns the ladder's store transactional.
	l.refreshRung(m)
}

func (l *ladder) refreshRung(m *metrics) {
	persons := l.run("/site/people/person", core.StrategySimple, core.PlanOptions{})
	doc, err := xmlparse.Parse(l.dict, []byte(padFragment("mark")))
	if err != nil {
		panic(err) // padFragment is a constant
	}
	mgr, err := txn.NewManager(l.st, txn.Options{GroupWindow: -1})
	if err != nil {
		m.na["plan.refresh_us_per_commit"] = true
		return
	}
	defer mgr.Close()
	const commits = 20
	var total time.Duration
	done := 0
	for i := 0; i < commits; i++ {
		parent := persons[(i*37)%len(persons)].Node
		_, err := mgr.UpdateEpoch(func(tx *txn.Tx) error {
			_, ierr := tx.InsertSubtree(parent, storage.InvalidNodeID, doc.Children[0])
			return ierr
		})
		if err != nil {
			continue
		}
		view := l.st.SnapshotView(new(stats.Ledger))
		t0 := time.Now()
		l.chooser.Refresh(view)
		total += time.Since(t0)
		done++
	}
	l.Rungs = append(l.Rungs, rung{Name: "plan.refresh", Ops: done, NsPerOp: float64(total.Nanoseconds()) / float64(max(done, 1))})
	m.ratio("plan.refresh_us_per_commit", float64(total.Nanoseconds())/1e3, float64(done))
}
