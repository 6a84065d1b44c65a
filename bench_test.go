package pathdb

// Benchmarks regenerating the paper's evaluation (Sec. 6): one benchmark
// per figure/table, with a sub-benchmark per measured cell. Each records
// two numbers:
//
//   - vsec/op — the *virtual* execution time from the calibrated disk/CPU
//     model, the quantity to compare against the paper's figures;
//   - ns/op — the wall-clock time of this Go implementation, reported by
//     the testing framework as usual.
//
// The default entity scale is 0.05 so the full suite stays fast; set
// PATHDB_BENCH_SCALE=0.2 for the calibrated scale used in EXPERIMENTS.md
// (one tenth of official XMark by byte volume), or 2 for full size.

import (
	"context"
	"fmt"
	"os"
	"strconv"
	"sync"
	"testing"

	"pathdb/internal/bench"
	"pathdb/internal/core"
)

var (
	benchOnce sync.Once
	benchW    *bench.Workload
)

func benchWorkload() *bench.Workload {
	benchOnce.Do(func() {
		scale := 0.05
		if s := os.Getenv("PATHDB_BENCH_SCALE"); s != "" {
			if v, err := strconv.ParseFloat(s, 64); err == nil && v > 0 {
				scale = v
			}
		}
		benchW = bench.NewWorkload(bench.Config{EntityScale: scale, Seed: 42})
	})
	return benchW
}

var benchSFs = []float64{0.25, 0.5, 1, 2}

var benchStrategies = []core.Strategy{
	core.StrategySimple, core.StrategySchedule, core.StrategyScan,
}

// benchFigure runs one figure's grid as sub-benchmarks.
func benchFigure(b *testing.B, q bench.Query) {
	w := benchWorkload()
	for _, sf := range benchSFs {
		for _, strat := range benchStrategies {
			b.Run(fmt.Sprintf("sf=%.2f/%s", sf, strat), func(b *testing.B) {
				var m bench.Measurement
				for i := 0; i < b.N; i++ {
					m = w.Run(sf, q, strat)
				}
				b.ReportMetric(m.Total.Seconds(), "vsec/op")
				b.ReportMetric(float64(m.Count), "results")
			})
		}
	}
}

// BenchmarkFig9 regenerates Figure 9: Q6' = count(/site/regions//item).
func BenchmarkFig9(b *testing.B) { benchFigure(b, bench.Q6) }

// BenchmarkFig10 regenerates Figure 10: Q7 = sum of three prose counts.
func BenchmarkFig10(b *testing.B) { benchFigure(b, bench.Q7) }

// BenchmarkFig11 regenerates Figure 11: Q15, the long selective path.
func BenchmarkFig11(b *testing.B) { benchFigure(b, bench.Q15) }

// BenchmarkTable3 regenerates Table 3: total and CPU time of every plan
// for every query at scale factor 1.
func BenchmarkTable3(b *testing.B) {
	w := benchWorkload()
	for _, q := range bench.AllQueries {
		for _, strat := range benchStrategies {
			b.Run(fmt.Sprintf("%s/%s", q.Name, strat), func(b *testing.B) {
				var m bench.Measurement
				for i := 0; i < b.N; i++ {
					m = w.Run(1, q, strat)
				}
				b.ReportMetric(m.Total.Seconds(), "vsec/op")
				b.ReportMetric(m.CPU.Seconds(), "vcpu/op")
				b.ReportMetric(100*m.CPUFraction(), "cpu%")
			})
		}
	}
}

// BenchmarkAblationK sweeps XSchedule's queue fill target (Sec. 5.3.4.2).
func BenchmarkAblationK(b *testing.B) {
	w := benchWorkload()
	for _, k := range []int{1, 10, 100, 1000} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			var rows []bench.AblationRow
			for i := 0; i < b.N; i++ {
				rows = w.AblationK(1, []int{k})
			}
			b.ReportMetric(rows[0].Total.Seconds(), "vsec/op")
		})
	}
}

// BenchmarkAblationLayout measures the layout sensitivity of each plan.
func BenchmarkAblationLayout(b *testing.B) {
	cfg := benchWorkload().Config()
	var rows []bench.AblationRow
	for i := 0; i < b.N; i++ {
		rows = bench.AblationLayout(cfg, 1, bench.Q6)
	}
	for _, r := range rows {
		b.ReportMetric(r.Total.Seconds(), r.Label+"-vsec")
	}
}

// BenchmarkAblationMultiQuery compares concurrent separate plans against
// one shared I/O operator (Sec. 7 outlook).
func BenchmarkAblationMultiQuery(b *testing.B) {
	w := benchWorkload()
	var rows []bench.AblationRow
	for i := 0; i < b.N; i++ {
		rows = w.AblationMultiQuery(1)
	}
	for _, r := range rows {
		b.ReportMetric(r.Total.Seconds(), r.Label[:1]+"-vsec")
	}
}

// BenchmarkStreamDrain drains an engine cursor over /site//description on a
// resident volume, sorted and unsorted: what a resident match costs beyond
// its navigation — the plan's dedup and sort, the sink hand-over, the
// cursor (wall time per result and allocations per query).
func BenchmarkStreamDrain(b *testing.B) {
	db, err := GenerateXMark(XMarkConfig{ScaleFactor: 0.1, Seed: 7, EntityScale: 0.05}, Options{})
	if err != nil {
		b.Fatal(err)
	}
	eng := db.NewEngine(EngineConfig{})
	defer eng.Close()
	ses := eng.NewSession()
	ctx := context.Background()
	if _, err := ses.Do(ctx, "//*", QueryOptions{Strategy: Scan}); err != nil { // every cluster resident
		b.Fatal(err)
	}
	for _, sorted := range []bool{false, true} {
		b.Run(fmt.Sprintf("sorted=%v", sorted), func(b *testing.B) {
			b.ReportAllocs()
			results := 0
			for i := 0; i < b.N; i++ {
				cur, err := ses.Stream(ctx, "/site//description", QueryOptions{Sorted: sorted})
				if err != nil {
					b.Fatal(err)
				}
				for cur.Next() {
					results++
				}
				if err := cur.Close(); err != nil || cur.Err() != nil {
					b.Fatal(err, cur.Err())
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(results), "ns/result")
		})
	}
}

// BenchmarkColdQuery reads flat_cold's volume the way that workload does —
// XMark factor 1 at entity scale 0.2, shuffled over 8 KB pages, behind a
// 90-page pool, through the engine: Q15, a child path, a three-way union
// and a descendant scan per op. Nearly every cluster a read touches misses
// the pool, so a profile of it is a profile of the cold path (make
// profile-cold).
func BenchmarkColdQuery(b *testing.B) {
	db, err := GenerateXMark(XMarkConfig{ScaleFactor: 1, Seed: 20050614, EntityScale: 0.2},
		Options{BufferPages: 90, Layout: Shuffled, LayoutSeed: 7})
	if err != nil {
		b.Fatal(err)
	}
	eng := db.NewEngine(EngineConfig{})
	defer eng.Close()
	ses := eng.NewSession()
	ctx := context.Background()
	paths := []string{
		"/site/closed_auctions/closed_auction/annotation/description/parlist/listitem/parlist/listitem/text/emph/keyword",
		"/site/people/person/name",
		"/site/people/person/name | /site/people/person/emailaddress | /site/people/person/phone",
		"/site//description",
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, path := range paths {
			if _, err := ses.Do(ctx, path, QueryOptions{}); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(paths)), "ns/read")
}

// BenchmarkQueryWallClock measures the raw Go-implementation throughput of
// the three strategies on Q6' (wall time only; no virtual-clock metric).
func BenchmarkQueryWallClock(b *testing.B) {
	w := benchWorkload()
	for _, strat := range benchStrategies {
		b.Run(strat.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				w.Run(1, bench.Q6, strat)
			}
		})
	}
}
