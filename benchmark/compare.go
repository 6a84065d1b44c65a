package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"

	"pathdb/benchmark/load"
)

// exactOnCold are the metrics of flat_cold that two runs of the same code
// with the same seed must reproduce to the digit: the paper's clock and the
// counts beneath it.
var exactOnCold = []string{
	"virtual_ms_per_read",
	"vdisk.page_reads_per_read", "vdisk.seq_read_frac", "vdisk.seeks_per_read",
	"vdisk.pages_per_seek", "vdisk.iowait_v_frac",
	"buffer.read_per_fix", "buffer.evictions_per_read", "buffer.hash_lookups_per_read",
	"buffer.withdrawn_frac",
}

func readResults(path string) (resultFile, error) {
	var rf resultFile
	data, err := os.ReadFile(path)
	if err != nil {
		return rf, err
	}
	if err := json.Unmarshal(data, &rf); err != nil {
		return rf, fmt.Errorf("%s: %w", path, err)
	}
	return rf, nil
}

// values returns one metric's values over the untraced runs of a workload.
func (rf resultFile) values(workload, metric string) []float64 {
	var out []float64
	for _, r := range rf.Runs {
		if v, ok := r.Metrics[metric]; ok && r.Workload == workload && !v.NA {
			out = append(out, v.Value)
		}
	}
	return out
}

// spread is the distance between the first and third quartile as a share of
// the median, as the acceptance rule takes it.
func spread(xs []float64) (median, share float64) {
	if len(xs) == 1 {
		return xs[0], 0
	}
	q1, q2, q3 := load.Quartiles(xs)
	if q2 == 0 {
		return 0, 0
	}
	return q2, (q3 - q1) / q2
}

// compare judges result file B (the change) against A (the parent) by the
// bounds of the end-to-end metrics. It returns the process exit code: 1 if
// any metric is worse or an exact metric differs, else 0.
func compare(pathA, pathB string) int {
	a, errA := readResults(pathA)
	b, errB := readResults(pathB)
	if err := errors.Join(errA, errB); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	return compareFiles(a, b)
}

func compareFiles(a, b resultFile) int {
	for i, rf := range []resultFile{a, b} {
		h := rf.Header
		fmt.Printf("%c: nproc=%d GOMAXPROCS=%d %s seed=%d seconds=%d commit=%s runs=%d\n",
			'A'+i, h.NProc, h.GOMAXPROCS, h.GoVersion, h.Seed, h.Seconds, h.Commit, len(rf.Runs))
	}
	fmt.Printf("%-15s %-20s %12s %12s %8s %8s %7s  %s\n", "workload", "metric", "median A", "median B", "change", "spread", "bound", "verdict")
	worse, unresolved := 0, 0
	for _, w := range workloads {
		for _, d := range endToEnd {
			va, vb := a.values(w.name, d.Name), b.values(w.name, d.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			ma, sa := spread(va)
			mb, sb := spread(vb)
			// change > 0 means B is worse, whichever direction is better.
			change := (mb - ma) / ma
			if d.Better == "higher" {
				change = -change
			}
			verdict := "pass"
			switch {
			case max(sa, sb) > d.Bound && !allBetter(va, vb, d.Better):
				verdict = "unresolved"
				unresolved++
			case change > d.Bound:
				verdict = "worse"
				worse++
			}
			fmt.Printf("%-15s %-20s %12.4f %12.4f %+7.1f%% %7.1f%% %6.0f%%  %s\n",
				w.name, d.Name, ma, mb, 100*change, 100*max(sa, sb), 100*d.Bound, verdict)
		}
	}

	// Same seed, same code: the cold workload's virtual clock and counts
	// repeat exactly.
	for _, ra := range a.Runs {
		for _, rb := range b.Runs {
			if ra.Workload != "flat_cold" || rb.Workload != "flat_cold" || ra.Seed != rb.Seed || ra.Trace != rb.Trace {
				continue
			}
			if ra.SplitUnions+rb.SplitUnions > 0 {
				fmt.Printf("%-15s seed %d: not compared exactly, %d unions were split over gangs\n", "flat_cold", ra.Seed, ra.SplitUnions+rb.SplitUnions)
				continue
			}
			for _, name := range exactOnCold {
				x, okA := ra.Metrics[name]
				y, okB := rb.Metrics[name]
				if okA && okB && x.Value != y.Value {
					fmt.Printf("%-15s %-20s seed %d: %v then %v  not exact\n", "flat_cold", name, ra.Seed, x.Value, y.Value)
					worse++
				}
			}
		}
	}
	fmt.Printf("%d worse, %d unresolved (spread beyond the bound)\n", worse, unresolved)
	if worse > 0 {
		return 1
	}
	return 0
}

// allBetter reports whether every run of B reads better than every run of A.
func allBetter(va, vb []float64, better string) bool {
	sa, sb := load.Sorted(va), load.Sorted(vb)
	if better == "higher" {
		return sb[0] > sa[len(sa)-1]
	}
	return sb[len(sb)-1] < sa[0]
}
