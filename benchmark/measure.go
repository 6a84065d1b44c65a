package main

import (
	"fmt"
	"os"
	"runtime"
	"strings"
	"syscall"
	"time"

	"pathdb/internal/stats"

	"pathdb/benchmark/load"
)

// pass is one replay of a request list by the closed-loop client.
type pass struct {
	samples []sample
	wall    time.Duration
	busy    time.Duration // time inside calls
	cpu     time.Duration // process CPU time (user + system) spent during the pass
	mallocs uint64
	allocB  uint64
	delta   counters // what the layers counted during the pass
	mark    counters // counts when the client reached its mark
}

// runPass replays reqs through c. markAt, when positive, snapshots the
// counters after the markAt-th request.
func runPass(f *fixture, c *client, reqs []load.Request, markAt int) pass {
	var p pass
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	c0 := f.counters()
	cpu0 := cpuTime()
	c.busy = 0
	t0 := time.Now()
	p.samples = c.run(reqs[:markAt])
	if markAt > 0 {
		p.mark = f.counters().sub(c0)
	}
	p.samples = append(p.samples, c.run(reqs[markAt:])...)
	p.wall = time.Since(t0)
	p.cpu = cpuTime() - cpu0
	p.delta = f.counters().sub(c0)
	runtime.ReadMemStats(&m1)
	p.mallocs, p.allocB = m1.Mallocs-m0.Mallocs, m1.TotalAlloc-m0.TotalAlloc
	p.busy = c.busy
	return p
}

// cpuTime is the CPU time this process has used so far, user and system.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// latencies are the per-request times (ms) the end-to-end metrics are made
// of, each slice ascending.
type latencies struct {
	read, ttfr, commit, virtual []float64
	results                     int64 // nodes returned by all reads
	reads, failed               int
}

// virtualTrim is the share of the most expensive reads left out of
// virtual_ms_per_read. Under concurrent commits the engine now and then
// charges one read millions of virtual seconds (its private clock is made to
// wait for a device instant from another clock domain); one such read in
// three thousand would otherwise decide the mean. engine.costv_outlier_frac
// counts them.
const virtualTrim = 0.01

// virtualMs is the mean virtual cost per streamed read, without the
// highest virtualTrim share.
func (l latencies) virtualMs() float64 {
	return load.Mean(l.virtual[:len(l.virtual)-int(float64(len(l.virtual))*virtualTrim)])
}

// virtualOutlierFrac is the share of reads charged more than a hundred
// times the median virtual cost.
func (l latencies) virtualOutlierFrac() float64 {
	if len(l.virtual) == 0 {
		return 0
	}
	limit, n := 100*l.virtual[len(l.virtual)/2], 0
	for _, v := range l.virtual {
		if v > limit {
			n++
		}
	}
	return float64(n) / float64(len(l.virtual))
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func latenciesOf(samples []sample) latencies {
	var l latencies
	for _, s := range samples {
		if s.fail != "" {
			l.failed++
			continue
		}
		switch s.req.Kind {
		case load.Write:
			l.commit = append(l.commit, ms(s.total))
		case load.Read:
			l.read = append(l.read, ms(s.total))
			l.ttfr = append(l.ttfr, ms(s.ttfr))
			l.virtual = append(l.virtual, float64(s.costV)/1e6)
			fallthrough
		default:
			l.reads++
			l.results += int64(s.count)
		}
	}
	l.read, l.ttfr, l.commit = load.Sorted(l.read), load.Sorted(l.ttfr), load.Sorted(l.commit)
	l.virtual = load.Sorted(l.virtual)
	return l
}

// metrics collects named values; a metric a workload cannot produce is
// recorded as not applicable and printed as 0.
type metrics struct {
	values map[string]float64
	na     map[string]bool
}

func newMetrics() *metrics { return &metrics{values: map[string]float64{}, na: map[string]bool{}} }

func (m *metrics) set(name string, v float64) {
	m.values[name] = v
	delete(m.na, name)
}

// ratio sets name to num/den, or marks it not applicable when den is 0.
func (m *metrics) ratio(name string, num, den float64) {
	if den == 0 {
		m.na[name] = true
		return
	}
	m.set(name, num/den)
}

// pct sets name to the p-th percentile, or marks it not applicable when
// the sample is too small to carry it.
func (m *metrics) pct(name string, sorted []float64, p float64) {
	if v, ok := load.Percentile(sorted, p); ok {
		m.set(name, v)
		return
	}
	m.na[name] = true
}

// splitUnions counts the buffered union requests whose branches did not all
// enter one gang. Session.Do submits the branches one after another while
// the dispatcher gathers a gang "without waiting", so now and then it starts
// a gang before the last branch is queued. Such a union is evaluated on
// separate schedulers and leaves the pool in a different state: the run is
// valid, but its virtual cost is not the one a repeat will show.
func splitUnions(samples []sample) int {
	n := 0
	for _, s := range samples {
		if s.fail == "" && s.gang > 0 && s.gang < strings.Count(s.req.Path, "|")+1 {
			n++
		}
	}
	return n
}

// sameCost is the determinism self-check of the cold workload: two replays
// of the same requests on freshly built volumes must show the same ledger
// delta and the same virtual cost per request. A difference fails the run,
// unless a union was split over gangs in either replay (see splitUnions).
func sameCost(what string, a, b []sample, ledA, ledB stats.Ledger, fl *failures) {
	if split := splitUnions(a) + splitUnions(b); split > 0 {
		fmt.Fprintf(os.Stderr, "%s: determinism not checked: %d unions were split over gangs by the dispatcher\n", what, split)
		return
	}
	if ledA != ledB {
		fl.add("not deterministic: %s: ledger\n  first  %s\n  second %s", what, &ledA, &ledB)
	}
	for k := range min(len(a), len(b)) {
		if a[k].costV != b[k].costV {
			fl.add("not deterministic: %s: request %d cost %d then %d virtual ns", what, k, a[k].costV, b[k].costV)
			break
		}
	}
}

// endToEndMetrics computes the gated metrics from the measured pass and the
// commit samples (the pass's own on mixed_rw, the write epilogue elsewhere).
func endToEndMetrics(p pass, commits []sample) (*metrics, error) {
	m := newMetrics()
	l := latenciesOf(p.samples)
	c := latenciesOf(commits)
	m.set("throughput_qps", float64(len(p.samples)-l.failed)/p.wall.Seconds())
	m.pct("read_p50_ms", l.read, 50)
	m.pct("read_p90_ms", l.read, 90)
	m.pct("ttfr_p50_ms", l.ttfr, 50)
	m.pct("commit_p50_ms", c.commit, 50)
	m.set("virtual_ms_per_read", l.virtualMs())
	m.set("allocs_per_op", float64(p.mallocs)/float64(len(p.samples)))
	m.set("cpu_ms_per_op", ms(p.cpu)/float64(len(p.samples)))
	for name := range m.na {
		return nil, fmt.Errorf("%s: too few samples (%d reads, %d commits)", name, len(l.read), len(c.commit))
	}
	return m, nil
}
