package main

import (
	"fmt"
	"io"
	"net/http"
	"os"
	"regexp"
	"runtime"
	"strconv"
	"strings"

	"pathdb/benchmark/load"
)

// traceFile is what -trace 1 writes to <out>/trace-<workload>.json.
type traceFile struct {
	Workload string      `json:"workload"`
	Seed     uint64      `json:"seed"`
	Requests int         `json:"traced_requests"`
	Spans    []load.Span `json:"spans"`
	// SelfNs is each span name's self time summed over the traced pass:
	// its spans' durations minus what their children cover.
	SelfNs map[string]int64 `json:"self_ns_by_name"`
	Ladder []rung           `json:"ladder"`
}

// tracedPasses replays the first fifth of the list with one client, once
// untraced and once with spans, and returns both.
func tracedPasses(w *workload, f *fixture, oracle map[string]int, prefix []load.Request, lad *ladder, fl *failures) (untraced, traced pass, rec *load.Recorder, err error) {
	rec = load.NewRecorder()
	run := func(f *fixture, rec *load.Recorder) pass {
		c := newClient(f, oracle)
		defer c.close()
		c.rec, c.probe = rec, lad
		runtime.GC()
		p := runPass(f, c, prefix, 0)
		fl.samples(p.samples)
		fl.samples(c.drainHeld())
		if rec != nil {
			attachCounters(rec, p)
		}
		return p
	}
	if w.vol.bufferPages == 0 {
		return run(f, nil), run(f, rec), rec, nil
	}
	// A cold volume is a different volume after every pass: each of the two
	// gets a fresh one, and must then cost exactly the same.
	passes := make([]pass, 2)
	for i, r := range []*load.Recorder{nil, rec} {
		ff, err := build(w)
		if err != nil {
			return pass{}, pass{}, nil, err
		}
		warmUp(ff, oracle, prefix, fl)
		passes[i] = run(ff, r)
		ff.close()
	}
	sameCost("traced and untraced pass", passes[0].samples, passes[1].samples, passes[0].delta.led, passes[1].delta.led, fl)
	return passes[0], passes[1], rec, nil
}

// attachCounters hangs the ledger delta of the whole one-client pass on its
// first root span, and each request's own result size and virtual cost on
// its root span.
func attachCounters(rec *load.Recorder, p pass) {
	byReq := map[int]sample{}
	for _, s := range p.samples {
		byReq[s.req.ID] = s
	}
	first := true
	for i := range rec.Spans {
		sp := &rec.Spans[i]
		if sp.Parent != -1 {
			continue
		}
		s := byReq[sp.Req]
		sp.Counters = map[string]int64{"results": int64(s.count), "cost_v_ns": int64(s.costV)}
		if first {
			first = false
			for _, nv := range p.delta.led.Named() {
				sp.Counters["pass."+nv.Name] = nv.Value
			}
		}
	}
}

// spanDurations sums span durations by name.
func spanDurations(spans []load.Span) map[string]int64 {
	out := map[string]int64{}
	for _, s := range spans {
		out[s.Name] += s.End - s.Start
	}
	return out
}

var promLine = regexp.MustCompile(`^(pathdb_server_[a-z_]+) (\S+)$`)

// scrapeServer reads the router's own request counters from /v1/metrics.
func scrapeServer(f *fixture) (map[string]float64, error) {
	resp, err := http.Get(f.base + "/v1/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	for _, line := range strings.Split(string(data), "\n") {
		if m := promLine.FindStringSubmatch(line); m != nil {
			if v, err := strconv.ParseFloat(m[2], 64); err == nil {
				out[m[1]] = v
			}
		}
	}
	return out, nil
}

// trace is the traced run: the per-layer metrics and the trace file.
func trace(w *workload, seed uint64, outDir string) (result, error) {
	reqs := load.Generate(w.spec, seed, w.traced)
	oracle, err := oracleFor(w, reqs)
	if err != nil {
		return result{}, err
	}
	fl := &failures{}
	m := newMetrics()

	lad, err := newLadder(w)
	if err != nil {
		return result{}, err
	}
	f, err := build(w)
	if err != nil {
		return result{}, err
	}
	defer f.close()
	m.set("setup.generate_s", lad.generateS)
	m.set("setup.import_s", lad.importS)
	m.set("setup.engine_start_s", f.engineStartS)

	// Counts pass: the workload as measured, over half the list, with the
	// ledgers read before and after.
	warmUp(f, oracle, reqs, fl)
	c := newClient(f, oracle)
	runtime.GC()
	counts := runPass(f, c, reqs[:len(reqs)/2], 0)
	fl.samples(counts.samples)
	var writes pass
	if w.spec.WriteFrac > 0 {
		writes = counts
		checkWrites(f, counts.samples, fl)
	} else {
		c0 := f.counters()
		writes.samples = epilogue(f, epilogueCommits, fl)
		writes.delta = f.counters().sub(c0)
		checkWrites(f, writes.samples, fl)
	}
	c.close()
	layerCounts(m, f, counts, writes)

	// Traced pass and its untraced twin.
	prefix := reqs[:len(reqs)/5]
	untraced, traced, rec, err := tracedPasses(w, f, oracle, prefix, lad, fl)
	if err != nil {
		return result{}, err
	}
	m.set("bench.trace_overhead_frac", 1-(float64(len(traced.samples))/traced.wall.Seconds())/(float64(len(untraced.samples))/untraced.wall.Seconds()))
	layerSpans(m, rec.Spans, traced)

	// The same requests against the cluster in-process: what the server
	// adds is the difference.
	if f.cl != nil {
		c := newClient(f, oracle)
		c.inproc = true
		inproc := runPass(f, c, readsOnly(prefix), 0)
		c.close()
		fl.samples(inproc.samples)
		layerShard(m, f, counts, untraced, inproc)
	} else {
		for _, name := range []string{
			"shard.scatter_ms_p50", "shard.merge_us_per_knode", "shard.count_cache_hit_frac",
			"shard.slowest_shard_share", "shard.page_skew",
			"server.http_overhead_ms_p50", "server.ndjson_us_per_knode", "server.bytes_per_node",
			"server.shed_frac", "server.inflight_max",
		} {
			m.na[name] = true
		}
	}

	lad.climb(w, prefix, m)

	all := append(append(append([]sample{}, counts.samples...), untraced.samples...), traced.samples...)
	m.set("bench.failed_frac", float64(fl.n)/float64(len(all)))

	tf := traceFile{
		Workload: w.name, Seed: seed, Requests: len(prefix),
		Spans: rec.Spans, SelfNs: load.SelfByName(rec.Spans), Ladder: lad.Rungs,
	}
	if err := writeJSON(outDir, "trace-"+w.name+".json", tf); err != nil {
		return result{}, fmt.Errorf("write trace: %w", err)
	}

	res := result{
		Workload: w.name, Seed: seed, Trace: 1,
		Correct: fl.n == 0, Attempted: len(all), Failed: fl.n,
		SplitUnions: splitUnions(counts.samples),
		Metrics:     map[string]metricValue{},
	}
	var na []string
	for _, d := range perLayer {
		v, ok := m.values[d.Name]
		if !ok {
			if !m.na[d.Name] {
				return result{}, fmt.Errorf("per-layer metric %s was neither measured nor marked not applicable", d.Name)
			}
			na = append(na, d.Name)
		}
		res.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit, NA: !ok}
	}
	if len(na) > 0 {
		fmt.Fprintf(os.Stderr, "%s: not applicable on this workload (printed as 0): %s\n", w.name, strings.Join(na, " "))
	}
	return res, nil
}

func readsOnly(reqs []load.Request) []load.Request {
	var out []load.Request
	for _, q := range reqs {
		if q.Kind != load.Write {
			q.Kind = load.Read
			out = append(out, q)
		}
	}
	return out
}
