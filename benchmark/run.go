package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"pathdb"

	"pathdb/benchmark/load"
)

// setupRuns is how many times a run sets the system up; setup_s is the
// median. Only the first fixture carries the measured pass.
const setupRuns = 5

// The write epilogue of a read-only workload, so that commit latency exists
// on every workload: roundCommits write transactions after every measured
// round, epilogueCommits after the counts pass of the traced run.
const (
	roundCommits    = 40
	epilogueCommits = 120
)

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// NA marks a per-layer metric the workload cannot produce; its value
	// is printed as 0. Never set on the result line of standard output.
	NA bool `json:"na,omitempty"`
}

// result is one run of one workload: the last line of standard output, and
// one entry of a result file.
type result struct {
	Workload  string `json:"workload,omitempty"`
	Seed      uint64 `json:"seed,omitempty"`
	Trace     int    `json:"trace,omitempty"`
	Correct   bool   `json:"correct"`
	Attempted int    `json:"attempted"`
	Failed    int    `json:"failed"`
	// SplitUnions is how many unions were split over gangs in the part of
	// the run its virtual cost and counts come from (the first round, or the
	// counts pass of a traced run): -compare does not expect such a run to
	// repeat exactly.
	SplitUnions int                    `json:"split_unions,omitempty"`
	Metrics     map[string]metricValue `json:"metrics"`
}

// failures lists why requests or end-of-run checks failed (standard error).
type failures struct{ n int }

func (fl *failures) add(format string, args ...any) {
	fl.n++
	if fl.n <= 10 {
		fmt.Fprintf(os.Stderr, "FAILED: "+format+"\n", args...)
	}
}

func (fl *failures) samples(ss []sample) {
	for _, s := range ss {
		if s.fail != "" {
			fl.add("request %d (%s %s): %s", s.req.ID, s.req.Kind, s.req.Path, s.fail)
		}
	}
}

// warmUp replays one untimed cycle over the distinct read requests.
func warmUp(f *fixture, oracle map[string]int, reqs []load.Request, fl *failures) {
	c := newClient(f, oracle)
	defer c.close()
	fl.samples(c.run(load.Distinct(reqs)))
}

func writeRequests(n int) []load.Request {
	out := make([]load.Request, n)
	for i := range out {
		// Consecutive targets are far apart, so the epilogue does not pile
		// its fragments into one page.
		out[i] = load.Request{ID: -1 - i, Kind: load.Write, Target: i * 97}
	}
	return out
}

// epilogue issues the write epilogue from one client and leaves the volume
// as it found it. It returns the commit samples.
func epilogue(f *fixture, n int, fl *failures) []sample {
	c := newClient(f, nil)
	defer c.close()
	out := c.run(writeRequests(n))
	out = append(out, c.drainHeld()...)
	fl.samples(out)
	return out
}

// padCount is how many benchmark fragments the volume holds.
func padCount(f *fixture) (int, error) {
	if f.cl != nil {
		m, err := f.cl.Query(context.Background(), "/site/people/benchpad", pathdb.QueryOptions{}, false)
		if err != nil {
			return 0, err
		}
		return m.Count, nil
	}
	res, err := f.eng.NewSession().Do(context.Background(), "/site/people/person/benchpad", pathdb.QueryOptions{})
	return res.Count(), err
}

// checkWrites verifies the write bookkeeping at the end of a pass: the
// fragments present equal acknowledged inserts minus deletes, and the
// volume did not grow by more than 5 %.
func checkWrites(f *fixture, samples []sample, fl *failures) {
	want := 0
	for _, s := range samples {
		if s.req.Kind == load.Write && s.fail == "" {
			if s.insert {
				want++
			} else if f.cl == nil {
				want--
			} else {
				want = 0 // a cluster delete removes every fragment
			}
		}
	}
	got, err := padCount(f)
	if err != nil || got != want {
		fl.add("fragments present %d, acknowledged inserts minus deletes %d (err %v)", got, want, err)
	}
	if n := f.staleRetries.Load(); n > 0 {
		fmt.Fprintf(os.Stderr, "%s: %d writes met a stale node handle, resolved it by path and were repeated\n", f.w.name, n)
	}
	if p := f.pages(); float64(p) > 1.05*float64(f.pages0) || float64(p) < 0.95*float64(f.pages0) {
		fl.add("volume not stationary: %d pages at start, %d at end", f.pages0, p)
	}
}

// roundsMin is the least number of rounds a run measures, however slow the
// program has become.
const roundsMin = 3

// round is one replay of the workload's frozen request list and, on a
// read-only workload, the write epilogue after it.
type round struct {
	main    pass
	commits []sample
}

// measureRounds replays reqs round after round, the same list every time,
// until the rounds have taken the run's seconds, and returns them. The
// volume must be warm. On a read-only workload every round, the first too,
// starts where a write epilogue left the volume. markAt applies to the
// first round.
func measureRounds(f *fixture, oracle map[string]int, reqs []load.Request, seconds, markAt int, fl *failures) []round {
	c := newClient(f, oracle)
	defer c.close()
	c.checkOrder = true
	var (
		rounds []round
		writes []sample
	)
	if f.w.spec.WriteFrac == 0 {
		epilogue(f, roundCommits, fl)
	}
	runtime.GC()
	for t0 := time.Now(); len(rounds) < roundsMin || time.Since(t0) < time.Duration(seconds)*time.Second; {
		r := round{main: runPass(f, c, reqs, markAt)}
		markAt = 0
		fl.samples(r.main.samples)
		if f.w.spec.WriteFrac > 0 {
			r.commits = r.main.samples
			writes = append(writes, r.main.samples...)
		} else {
			r.commits = epilogue(f, roundCommits, fl)
			checkWrites(f, r.commits, fl)
		}
		rounds = append(rounds, r)
	}
	if f.w.spec.WriteFrac > 0 {
		checkWrites(f, writes, fl)
	}
	return rounds
}

// measure is the untraced run: the end-to-end metrics. Every metric but
// setup_s is the median over the run's rounds of the round's own value, so
// a stretch in which the host was busy moves a round, not the result.
func measure(w *workload, seed uint64, seconds int) (result, error) {
	reqs := load.Generate(w.spec, seed, w.round)
	oracle, err := oracleFor(w, reqs)
	if err != nil {
		return result{}, err
	}
	fl := &failures{}
	var (
		setups []float64
		rounds []round
	)
	cold := w.vol.bufferPages > 0
	markAt := 0
	if cold {
		markAt = len(reqs) / 4
	}
	for i := 0; i < setupRuns; i++ {
		f, err := build(w)
		if err != nil {
			return result{}, err
		}
		setups = append(setups, f.setupS)
		switch {
		case i == 0:
			warmUp(f, oracle, reqs, fl)
			rounds = measureRounds(f, oracle, reqs, seconds, markAt, fl)
		case i == 1 && cold:
			// Determinism self-check: the same requests on a second, freshly
			// built volume must cost the same to the digit.
			warmUp(f, oracle, reqs, fl)
			epilogue(f, roundCommits, fl)
			c := newClient(f, oracle)
			again := runPass(f, c, reqs[:markAt], 0)
			c.close()
			first := rounds[0].main
			sameCost(fmt.Sprintf("first %d requests", markAt), first.samples[:markAt], again.samples, first.mark.led, again.delta.led, fl)
		}
		f.close()
	}

	res := result{Workload: w.name, Seed: seed, Metrics: map[string]metricValue{}}
	each := map[string][]float64{} // the values a metric's median is taken over
	for _, r := range rounds {
		res.Attempted += len(r.main.samples)
		if w.spec.WriteFrac == 0 {
			res.Attempted += len(r.commits)
		}
		m, err := endToEndMetrics(r.main, r.commits)
		if err != nil {
			return result{}, err
		}
		for name, v := range m.values {
			each[name] = append(each[name], v)
		}
	}
	res.Correct, res.Failed = fl.n == 0, fl.n
	res.SplitUnions = splitUnions(rounds[0].main.samples)
	each["setup_s"] = setups
	// The virtual clock does not notice the host: it needs no median, and
	// the first round is the one every run of a seed has in the same state,
	// however many rounds the run's seconds hold.
	each["virtual_ms_per_read"] = each["virtual_ms_per_read"][:1]
	for _, d := range endToEnd {
		fmt.Fprintf(os.Stderr, "%s: %s, each value: %.4g\n", w.name, d.Name, each[d.Name])
		res.Metrics[d.Name] = metricValue{Value: load.Median(each[d.Name]), Unit: d.Unit}
	}
	return res, nil
}

// writeJSON writes v, indented, to dir/name, creating dir.
func writeJSON(dir, name string, v any) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, name), append(data, '\n'), 0o644)
}
