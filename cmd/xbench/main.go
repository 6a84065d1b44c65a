// Command xbench regenerates the tables and figures of the paper's
// evaluation (Sec. 6) plus the ablation studies listed in DESIGN.md.
//
// Usage:
//
//	xbench                     # everything: Figs. 9-11, Table 3, ablations
//	xbench -fig 10             # one figure (Q7 across scale factors)
//	xbench -table 3            # Table 3 at scale factor 1
//	xbench -ablation k         # one ablation (k, layout, speculative,
//	                           # fallback, multiquery, policy, firststep)
//	xbench -scale 0.02 -quick  # smaller populations / fewer scale factors
//	xbench -strategy xscan     # restrict figures/tables to one strategy
//
// Times are virtual seconds from the calibrated disk/CPU model, which is
// deterministic and machine independent; compare shapes against the
// paper's figures, not absolute values.
package main

import (
	"flag"
	"fmt"
	"os"

	"pathdb"
	"pathdb/internal/bench"
)

func main() {
	fig := flag.Int("fig", 0, "regenerate one figure (9, 10 or 11)")
	table := flag.Int("table", 0, "regenerate one table (3)")
	ablation := flag.String("ablation", "", "run one ablation: k, layout, speculative, fallback, multiquery, policy, firststep, updates, buffer")
	scale := flag.Float64("scale", 0.2, "entity scale (0.2 ≈ one tenth of official XMark by bytes)")
	seed := flag.Uint64("seed", 42, "workload seed")
	quick := flag.Bool("quick", false, "use fewer scale factors (0.25, 0.5, 1)")
	strategy := flag.String("strategy", "", "restrict figures/tables to one strategy (simple, xschedule, xscan)")
	flag.Parse()

	var stratName string
	if *strategy != "" {
		strat, err := pathdb.ParseStrategy(*strategy)
		if err != nil {
			fail("%v", err)
		}
		if strat == pathdb.Auto {
			fail("-strategy auto: figures measure concrete strategies; pick simple, xschedule or xscan")
		}
		stratName = strat.String()
	}
	cfg := bench.Config{EntityScale: *scale, Seed: *seed}
	w := bench.NewWorkload(cfg)
	sfs := bench.PaperScaleFactors
	if *quick {
		sfs = []float64{0.25, 0.5, 1}
	}

	figures := map[int]bench.Query{9: bench.Q6, 10: bench.Q7, 11: bench.Q15}
	emitFigure := func(f int) {
		ms := filterStrategy(w.Figure(figures[f], sfs), stratName)
		bench.RenderFigure(os.Stdout, figName(f, figures[f]), ms)
	}
	emitTable3 := func() {
		ms := filterStrategy(w.Table3(1), stratName)
		bench.RenderTable3(os.Stdout, ms)
	}

	ran := false
	if *fig != 0 {
		if _, ok := figures[*fig]; !ok {
			fail("no figure %d (have 9, 10, 11)", *fig)
		}
		emitFigure(*fig)
		ran = true
	}
	if *table != 0 {
		if *table != 3 {
			fail("only table 3 exists")
		}
		emitTable3()
		ran = true
	}
	if *ablation != "" {
		runAblation(w, cfg, *ablation)
		ran = true
	}
	if ran {
		return
	}

	// Default: the full evaluation.
	for _, f := range []int{9, 10, 11} {
		emitFigure(f)
		fmt.Println()
	}
	emitTable3()
	fmt.Println()
	for _, a := range []string{"k", "layout", "speculative", "fallback", "multiquery", "policy", "firststep", "updates", "buffer"} {
		runAblation(w, cfg, a)
		fmt.Println()
	}
}

// filterStrategy keeps only measurements of the named strategy ("" keeps
// all). Strategy names round-trip through pathdb.ParseStrategy, so the
// flag accepts exactly what the reports print.
func filterStrategy(ms []bench.Measurement, name string) []bench.Measurement {
	if name == "" {
		return ms
	}
	var out []bench.Measurement
	for _, m := range ms {
		if m.Strategy.String() == name {
			out = append(out, m)
		}
	}
	return out
}

func figName(f int, q bench.Query) string {
	return fmt.Sprintf("Figure %d — %s: %v", f, q.Name, q.Paths)
}

func runAblation(w *bench.Workload, cfg bench.Config, name string) {
	var title string
	var rows []bench.AblationRow
	switch name {
	case "k":
		title = "XSchedule queue fill target k (Q6', sf 1)"
		rows = w.AblationK(1, []int{1, 10, 100, 1000})
	case "layout":
		title = "physical layout vs plan (Q6', sf 1)"
		rows = bench.AblationLayout(cfg, 1, bench.Q6)
	case "speculative":
		title = "speculative XSchedule on a revisit-prone path (sf 1)"
		rows = w.AblationSpeculative(1)
	case "fallback":
		title = "memory-limit fallback on an XScan plan (sf 1)"
		rows = w.AblationFallback(1, []int{0, 1000, 100, 10})
	case "multiquery":
		title = "Q7's three paths: concurrent plans vs one shared scheduler (sf 1)"
		rows = w.AblationMultiQuery(1)
	case "policy":
		title = "device queue scheduling policy (Q6' XSchedule, sf 1)"
		rows = w.AblationDiskPolicy(1)
	case "firststep":
		title = "'//' first-step optimisation (XScan, //description, sf 1)"
		rows = w.AblationFirstStepAll(1)
	case "updates":
		title = "plan gap before/after 500 incremental inserts (Q6', sf 1)"
		rows = w.AblationUpdates(1, 500)
	case "buffer":
		title = "buffer pool size across a 3-query session (Q7, sf 1)"
		rows = w.AblationBufferSize(1, []int{12, 45, 90, 360, 1440})
	default:
		fail("unknown ablation %q", name)
	}
	bench.RenderAblation(os.Stdout, title, rows)
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "xbench: "+format+"\n", args...)
	os.Exit(1)
}
