package bench

import (
	"fmt"
	"io"

	"pathdb/internal/core"
	"pathdb/internal/stats"
	"pathdb/internal/storage"
	"pathdb/internal/txn"
	"pathdb/internal/vdisk"
	"pathdb/internal/xmltree"
	"pathdb/internal/xpath"
)

// AblationRow is one measured configuration of an ablation study.
type AblationRow struct {
	Label    string
	Count    int
	Total    stats.Ticks
	CPU      stats.Ticks
	Clusters int64
	Extra    string
}

// RenderAblation writes rows as a compact table.
func RenderAblation(out io.Writer, title string, rows []AblationRow) {
	fmt.Fprintf(out, "# Ablation — %s\n", title)
	fmt.Fprintf(out, "%-28s %10s %10s %8s %9s %s\n", "config", "total[s]", "CPU[s]", "count", "clusters", "notes")
	for _, r := range rows {
		fmt.Fprintf(out, "%-28s %10.3f %10.3f %8d %9d %s\n",
			r.Label, r.Total.Seconds(), r.CPU.Seconds(), r.Count, r.Clusters, r.Extra)
	}
}

// AblationK sweeps XSchedule's queue fill target k (paper default 100,
// Sec. 5.3.4.2). The paper notes that k barely matters for a single
// context node, so the sweep uses a multi-context workload where it does:
// a relative path evaluated from every item element (the situation of a
// path nested in a larger plan).
func (w *Workload) AblationK(sf float64, ks []int) []AblationRow {
	st, dict := w.Store(sf)

	// Gather the contexts once: all item elements.
	st.ResetForRun()
	ctxPlan := core.BuildPlan(st, xpath.MustParse(dict, "/site/regions//item").Simplify().Steps,
		[]storage.NodeID{st.Root()}, core.StrategyScan, core.PlanOptions{})
	var ctxs []storage.NodeID
	for _, r := range ctxPlan.Run() {
		ctxs = append(ctxs, r.Node)
	}
	steps := xpath.MustParse(dict, "description//keyword").Simplify().Steps

	var rows []AblationRow
	for _, k := range ks {
		st.ResetForRun()
		plan := core.BuildPlan(st, steps, ctxs, core.StrategySchedule, core.PlanOptions{K: k})
		count := plan.Count()
		led := st.Ledger()
		rows = append(rows, AblationRow{
			Label: fmt.Sprintf("k=%d (%d contexts)", k, len(ctxs)),
			Count: count, Total: led.Total(), CPU: led.CPU, Clusters: led.ClustersVisited,
		})
	}
	return rows
}

// AblationLayout measures every strategy under different physical layouts
// (fresh import per layout), quantifying how fragmentation drives the gap
// between the plans.
func AblationLayout(cfg Config, sf float64, q Query) []AblationRow {
	var rows []AblationRow
	for _, layout := range []storage.Layout{storage.LayoutContiguous, storage.LayoutNatural, storage.LayoutShuffled} {
		c := cfg
		c.Layout = layout
		w := NewWorkload(c)
		for _, strat := range []core.Strategy{core.StrategySimple, core.StrategySchedule, core.StrategyScan} {
			m := w.Run(sf, q, strat)
			rows = append(rows, AblationRow{
				Label: fmt.Sprintf("%s/%s", layout, strat),
				Count: m.Count, Total: m.Total, CPU: m.CPU,
			})
		}
	}
	return rows
}

// AblationSpeculative compares XSchedule with and without speculative
// left-incomplete generation (Sec. 5.4.4) on a revisit-prone query: the
// parent step sends paths back into clusters visited for an earlier step.
func (w *Workload) AblationSpeculative(sf float64) []AblationRow {
	st, dict := w.Store(sf)
	q := "/site/regions//item/.."
	steps := xpath.MustParse(dict, q).Simplify().Steps
	var rows []AblationRow
	for _, spec := range []bool{false, true} {
		st.ResetForRun()
		plan := core.BuildPlan(st, steps, []storage.NodeID{st.Root()}, core.StrategySchedule,
			core.PlanOptions{Speculative: spec})
		count := plan.Count()
		led := st.Ledger()
		rows = append(rows, AblationRow{
			Label: fmt.Sprintf("speculative=%v", spec),
			Count: count, Total: led.Total(), CPU: led.CPU,
			Clusters: led.ClustersVisited,
			Extra:    fmt.Sprintf("spec-instances=%d", led.SpecInstances),
		})
	}
	return rows
}

// AblationFallback sweeps XAssembly's memory limit on an XScan plan
// (Sec. 5.4.6): small limits trigger the degradation to nested-loop
// re-evaluation; results stay identical.
func (w *Workload) AblationFallback(sf float64, limits []int) []AblationRow {
	st, dict := w.Store(sf)
	steps := xpath.MustParse(dict, Q7.Paths[0]).Simplify().Steps
	var rows []AblationRow
	for _, lim := range limits {
		st.ResetForRun()
		plan := core.BuildPlan(st, steps, []storage.NodeID{st.Root()}, core.StrategyScan,
			core.PlanOptions{MemLimit: lim})
		count := plan.Count()
		led := st.Ledger()
		label := "S unlimited"
		if lim > 0 {
			label = fmt.Sprintf("S limit=%d", lim)
		}
		rows = append(rows, AblationRow{
			Label: label, Count: count, Total: led.Total(), CPU: led.CPU,
			Clusters: led.ClustersVisited,
			Extra:    fmt.Sprintf("fallbacks=%d", led.FallbackEvents),
		})
	}
	return rows
}

// AblationMultiQuery evaluates Q7's three paths once with three separate
// XSchedule plans and once with a single shared I/O operator (the
// multi-query extension of Sec. 7).
func (w *Workload) AblationMultiQuery(sf float64) []AblationRow {
	st, dict := w.Store(sf)
	var rows []AblationRow

	// Three *concurrent* sessions, each with its own XSchedule plan,
	// interleaved result by result — the interference scenario the paper
	// warns about: independent plans fight over the disk arm.
	st.ResetForRun()
	count := 0
	var tops []core.Operator
	for _, src := range Q7.Paths {
		steps := xpath.MustParse(dict, src).Simplify().Steps
		plan := core.BuildPlan(st, steps, []storage.NodeID{st.Root()}, core.StrategySchedule, core.PlanOptions{})
		top := plan.Root()
		top.Open()
		tops = append(tops, top)
	}
	for remaining := len(tops); remaining > 0; {
		for i, top := range tops {
			if top == nil {
				continue
			}
			if _, ok := top.Next(); !ok {
				top.Close()
				tops[i] = nil
				remaining--
				continue
			}
			count++
		}
	}
	led := st.Ledger()
	rows = append(rows, AblationRow{
		Label: "3 concurrent XSchedule plans",
		Count: count, Total: led.Total(), CPU: led.CPU, Clusters: led.ClustersVisited,
	})

	// One shared scheduler.
	st.ResetForRun()
	var queries []core.MultiQuery
	for _, src := range Q7.Paths {
		queries = append(queries, core.MultiQuery{
			Path:     xpath.MustParse(dict, src).Simplify().Steps,
			Contexts: []storage.NodeID{st.Root()},
		})
	}
	mp := core.BuildMultiPlan(st, queries, core.PlanOptions{})
	count = 0
	for _, c := range mp.Counts() {
		count += c
	}
	led = st.Ledger()
	rows = append(rows, AblationRow{
		Label: "1 shared XSchedule",
		Count: count, Total: led.Total(), CPU: led.CPU, Clusters: led.ClustersVisited,
	})
	return rows
}

// AblationDiskPolicy sweeps the device's queue scheduling policy for an
// XSchedule plan, isolating how much of the gain comes from lower-layer
// reordering (Sec. 3.7).
func (w *Workload) AblationDiskPolicy(sf float64) []AblationRow {
	st, _ := w.Store(sf)
	var rows []AblationRow
	for _, pol := range []vdisk.Policy{vdisk.FIFO, vdisk.Elevator, vdisk.SSTF} {
		st.Disk().SetPolicy(pol)
		m := w.Run(sf, Q6, core.StrategySchedule)
		rows = append(rows, AblationRow{
			Label: fmt.Sprintf("policy=%s", pol),
			Count: m.Count, Total: m.Total, CPU: m.CPU,
		})
	}
	st.Disk().SetPolicy(vdisk.SSTF)
	return rows
}

// AblationFirstStepAll toggles the '//' optimisation (Sec. 5.4.5.4) on an
// XScan plan for a leading-// query.
func (w *Workload) AblationFirstStepAll(sf float64) []AblationRow {
	st, dict := w.Store(sf)
	// Keep the descendant-or-self step: no Simplify.
	steps := xpath.MustParse(dict, "//description").Steps
	var rows []AblationRow
	for _, disable := range []bool{false, true} {
		st.ResetForRun()
		plan := core.BuildPlan(st, steps, []storage.NodeID{st.Root()}, core.StrategyScan,
			core.PlanOptions{NoFirstStepAllOpt: disable})
		count := plan.Count()
		led := st.Ledger()
		label := "with // optimisation"
		if disable {
			label = "without // optimisation"
		}
		rows = append(rows, AblationRow{
			Label: label, Count: count, Total: led.Total(), CPU: led.CPU,
			Extra: fmt.Sprintf("set-inserts=%d", led.SetInserts),
		})
	}
	return rows
}

// AblationUpdates measures how incremental updates widen the plan gap:
// Q6' under every strategy on the freshly loaded document, then again
// after a batch of item insertions whose overflow clusters land at the
// end of the volume (the fragmentation story of the paper's
// introduction, now produced by the engine's own update path).
func (w *Workload) AblationUpdates(sf float64, inserts int) []AblationRow {
	st, dict := w.Store(sf)
	steps := xpath.MustParse(dict, Q6.Paths[0]).Simplify().Steps

	measure := func(label string) []AblationRow {
		var rows []AblationRow
		for _, strat := range []core.Strategy{core.StrategySimple, core.StrategySchedule, core.StrategyScan} {
			st.ResetForRun()
			plan := core.BuildPlan(st, steps, []storage.NodeID{st.Root()}, strat, core.PlanOptions{})
			count := plan.Count()
			led := st.Ledger()
			rows = append(rows, AblationRow{
				Label: fmt.Sprintf("%s/%s", label, strat),
				Count: count, Total: led.Total(), CPU: led.CPU,
			})
		}
		return rows
	}

	rows := measure("fresh")

	// Insert fragments under the first africa region.
	st.ResetForRun()
	africa := core.BuildPlan(st,
		xpath.MustParse(dict, "/site/regions/africa").Simplify().Steps,
		[]storage.NodeID{st.Root()}, core.StrategySimple, core.PlanOptions{}).Run()
	if len(africa) == 0 {
		panic("bench: no africa region")
	}
	mgr, err := txn.NewManager(st, txn.Options{GroupWindow: -1})
	if err != nil {
		panic(fmt.Sprintf("bench: txn manager: %v", err))
	}
	for i := 0; i < inserts; i++ {
		b := xmltree.NewBuilder(dict)
		b.Begin("item").Attr("id", fmt.Sprintf("upd%d", i)).
			Leaf("location", "here").
			Leaf("quantity", "1").
			Leaf("name", "updated item").
			Begin("description").Begin("text").Text("inserted after load").End().End().
			End()
		frag := b.Doc().Children[0]
		err := mgr.Update(func(tx *txn.Tx) error {
			_, err := tx.InsertSubtree(africa[0].Node, storage.InvalidNodeID, frag)
			return err
		})
		if err != nil {
			panic(fmt.Sprintf("bench: insert %d: %v", i, err))
		}
	}
	return append(rows, measure(fmt.Sprintf("after %d inserts", inserts))...)
}

// AblationBufferSize sweeps the buffer-pool capacity for a *session* of
// queries: Q7's three paths run back to back without flushing, so a pool
// that holds the working set serves the later paths from memory. A single
// cold path is almost insensitive to pool size (each cluster is visited
// once); cross-query reuse is where buffer memory pays, which is why the
// paper fixes a substantial 1000-page pool.
func (w *Workload) AblationBufferSize(sf float64, sizes []int) []AblationRow {
	st, dict := w.Store(sf)
	defer st.SetBufferCapacity(w.cfg.BufferPages)

	var rows []AblationRow
	for _, size := range sizes {
		for _, strat := range []core.Strategy{core.StrategySimple, core.StrategySchedule, core.StrategyScan} {
			st.SetBufferCapacity(size)
			st.ResetForRun()
			count := 0
			for _, src := range Q7.Paths {
				steps := xpath.MustParse(dict, src).Simplify().Steps
				plan := core.BuildPlan(st, steps, []storage.NodeID{st.Root()}, strat, core.PlanOptions{})
				count += plan.Count()
			}
			led := st.Ledger()
			rows = append(rows, AblationRow{
				Label: fmt.Sprintf("buffer=%d/%s", size, strat),
				Count: count, Total: led.Total(), CPU: led.CPU,
				Extra: fmt.Sprintf("hits=%d misses=%d", led.BufferHits, led.BufferMisses),
			})
		}
	}
	return rows
}
