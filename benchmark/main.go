// Command benchmark is the layered benchmark of the path engine: five named
// workloads, end-to-end metrics measured with tracing off, and a traced run
// that attributes them to layers. See README.md in this directory.
//
// The driver's contract is one run per invocation:
//
//	bash benchmark/run.sh --workload flat_warm --seed 1 --seconds 20 --trace 0
//
// prints one JSON object as the last line of standard output. Sets of runs
// for -compare are collected with -runs and -out:
//
//	bash benchmark/run.sh -workload all -runs 10 -out benchmark/out/A.json
//	bash benchmark/run.sh -compare benchmark/out/A.json benchmark/out/B.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

// resultFile is a set of runs, as -out writes and -compare reads.
type resultFile struct {
	Header header   `json:"header"`
	Runs   []result `json:"runs"`
}

type header struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Seed       uint64 `json:"seed"`
	Seconds    int    `json:"seconds"`
	Commit     string `json:"commit"`
}

// buildCommit is the revision the binary was built from; run.sh sets it
// when the checkout is a git repository.
var buildCommit = "unknown"

func main() {
	var (
		name     = flag.String("workload", "", "workload name, or all")
		seed     = flag.Uint64("seed", 1, "seed of the request lists")
		seconds  = flag.Int("seconds", runSeconds, "how long a run measures: rounds are replayed until they have taken this long")
		traceArg = flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics and a trace file")
		runs     = flag.Int("runs", 1, "runs per workload, with seeds seed, seed+1, ...")
		out      = flag.String("out", "", "write every run to this result file (for -compare)")
		outDir   = flag.String("tracedir", filepath.Join("benchmark", "out"), "directory trace files are written to")
		cmp      = flag.Bool("compare", false, "compare two result files: -compare A.json B.json")
		mani     = flag.Bool("manifest", false, "print BENCHMARK.json")
	)
	flag.Parse()
	runtime.GOMAXPROCS(procs)
	switch {
	case *mani:
		os.Stdout.Write(manifest())
		return
	case *cmp:
		if flag.NArg() != 2 {
			fatal("usage: -compare A.json B.json")
		}
		os.Exit(compare(flag.Arg(0), flag.Arg(1)))
	}

	var todo []*workload
	if *name == "all" {
		todo = workloads
	} else if w := workloadByName(*name); w != nil {
		todo = []*workload{w}
	} else {
		fatal("unknown workload %q (want one of %s, or all)", *name, workloadNames())
	}
	if *seconds < 1 || *runs < 1 || (*traceArg != 0 && *traceArg != 1) {
		fatal("-seconds and -runs must be positive, -trace 0 or 1")
	}

	file := resultFile{Header: header{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Seed: *seed, Seconds: *seconds, Commit: buildCommit,
	}}
	ok := true
	for r := 0; r < *runs; r++ {
		for _, w := range todo {
			var res result
			var err error
			if *traceArg == 1 {
				res, err = trace(w, *seed+uint64(r), *outDir)
			} else {
				res, err = measure(w, *seed+uint64(r), *seconds)
			}
			if err != nil {
				fatal("%s: %v", w.name, err)
			}
			ok = ok && res.Correct
			file.Runs = append(file.Runs, res)
			printResult(res)
		}
	}
	if *out != "" {
		if err := writeJSON(filepath.Dir(*out), filepath.Base(*out), file); err != nil {
			fatal("write %s: %v", *out, err)
		}
	}
	if !ok {
		os.Exit(1)
	}
}

// printResult writes the run as one line with exactly the keys the driver
// reads.
func printResult(res result) {
	line := struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, map[string]metricValue{}}
	for k, v := range res.Metrics {
		line.Metrics[k] = metricValue{Value: v.Value, Unit: v.Unit}
	}
	data, err := json.Marshal(line)
	if err != nil {
		fatal("marshal result: %v", err)
	}
	fmt.Println(string(data))
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchmark: "+format+"\n", args...)
	os.Exit(2)
}
