package main

import (
	"sort"
	"strings"

	"pathdb/benchmark/load"
)

// layerCounts derives the count-based per-layer metrics from the ledger
// deltas around the counts pass (reads) and around the commits (writes).
func layerCounts(m *metrics, f *fixture, p, writes pass) {
	l := latenciesOf(p.samples)
	led, eng := p.delta.led, p.delta.eng
	reads := float64(l.reads)
	results := float64(l.results)

	m.ratio("vdisk.page_reads_per_read", float64(led.PageReads), reads)
	m.ratio("vdisk.seq_read_frac", float64(led.SeqPageReads), float64(led.PageReads))
	m.ratio("vdisk.seeks_per_read", float64(led.Seeks), reads)
	m.ratio("vdisk.pages_per_seek", float64(led.SeekDistance), float64(led.Seeks))
	m.ratio("vdisk.iowait_v_frac", float64(led.IOWait), float64(led.Now))

	m.ratio("buffer.read_per_fix", float64(led.PageReads), float64(led.BufferHits+led.BufferMisses))
	m.ratio("buffer.evictions_per_read", float64(led.Evictions), reads)
	m.ratio("buffer.hash_lookups_per_read", float64(led.HashLookups), reads)
	m.ratio("buffer.withdrawn_frac", float64(led.AsyncWithdrawn), float64(led.AsyncSubmitted))

	m.ratio("storage.swizzles_per_read", float64(led.Swizzles), reads)
	m.ratio("storage.nodes_visited_per_result", float64(led.NodesVisited), results)
	m.ratio("storage.clusters_skipped_frac", float64(led.ClustersSkipped), float64(led.ClustersSkipped+led.ClustersVisited))

	m.ratio("core.tuples_moved_per_result", float64(led.TuplesMoved), results)
	m.ratio("core.set_ops_per_result", float64(led.SetInserts+led.SetLookups), results)
	m.ratio("core.spec_instances_per_query", float64(led.SpecInstances), reads)
	m.set("core.fallback_events", float64(led.FallbackEvents))

	m.ratio("engine.gang_size_mean", float64(eng.Submitted), float64(eng.Gangs))
	m.ratio("engine.batched_frac", float64(eng.Batched), float64(eng.Submitted))
	m.ratio("engine.rejected_frac", float64(eng.Rejected), float64(eng.Submitted+eng.Rejected))
	m.ratio("engine.overhead_v_us_per_query", float64(eng.OverheadV)/1e3, float64(eng.Submitted))

	var queue, exec, afterCommit []float64
	pinnedMax := 0
	for _, s := range p.samples {
		if s.fail != "" {
			continue
		}
		if s.req.Kind == load.Write {
			pinnedMax = max(pinnedMax, s.pinned)
			continue
		}
		if s.exec > 0 {
			queue = append(queue, ms(s.queue))
			exec = append(exec, ms(s.exec))
		}
		if s.afterCommit {
			afterCommit = append(afterCommit, ms(s.total))
		}
	}
	m.set("engine.costv_outlier_frac", l.virtualOutlierFrac())
	unions := 0
	for _, s := range p.samples {
		if s.gang > 0 && strings.Contains(s.req.Path, "|") {
			unions++
		}
	}
	m.ratio("engine.split_union_frac", float64(splitUnions(p.samples)), float64(unions))
	m.pct("engine.queue_ms_p50", load.Sorted(queue), 50)
	m.pct("engine.exec_ms_p50", load.Sorted(exec), 50)
	m.pct("txn.read_after_commit_ms_p50", load.Sorted(afterCommit), 50)
	m.pct("pathdb.read_p99_ms", l.read, 99)
	m.set("pathdb.alloc_kb_per_op", float64(p.allocB)/1024/float64(len(p.samples)))
	m.set("bench.generator_idle_frac", 1-p.busy.Seconds()/p.wall.Seconds())

	// Commits: the pass's own on mixed_rw, the write epilogue elsewhere.
	wl, txn := writes.delta.led, writes.delta.txn
	commits := float64(txn.Commits)
	m.ratio("vdisk.page_writes_per_commit", float64(wl.PageWrites), commits)
	m.ratio("txn.flushes_per_commit", float64(txn.Flushes), commits)
	m.ratio("txn.group_size_mean", commits, float64(txn.Groups))
	m.ratio("txn.page_writes_per_commit", float64(wl.PageWrites)-float64(txn.Flushes), commits)
	for _, s := range writes.samples {
		pinnedMax = max(pinnedMax, s.pinned)
	}
	m.pct("txn.commit_p90_ms", latenciesOf(writes.samples).commit, 90)
	m.set("txn.pinned_max", float64(pinnedMax))
	m.set("txn.free_pages_end", float64(f.counters().txn.FreePage))

	// The sort barrier: how much later the first node of a path arrives when
	// the request is sorted, over the paths the workload issues both ways.
	type pair struct{ sorted, plain []float64 }
	byPath := map[string]*pair{}
	for _, s := range p.samples {
		if s.req.Kind != load.Read || s.fail != "" {
			continue
		}
		pp := byPath[s.req.Path]
		if pp == nil {
			pp = &pair{}
			byPath[s.req.Path] = pp
		}
		if s.req.Sorted {
			pp.sorted = append(pp.sorted, ms(s.ttfr))
		} else {
			pp.plain = append(pp.plain, ms(s.ttfr))
		}
	}
	var barrier []float64
	for _, pp := range byPath {
		if len(pp.sorted) > 0 && len(pp.plain) > 0 {
			barrier = append(barrier, load.Median(pp.sorted)-load.Median(pp.plain))
		}
	}
	if len(barrier) > 0 {
		m.set("pathdb.sort_barrier_ms_p50", load.Median(barrier))
	} else {
		m.na["pathdb.sort_barrier_ms_p50"] = true
	}

	if f.cl == nil {
		vs := f.db.VolumeStats()
		m.ratio("storage.bytes_per_node", float64(vs.UsedBytes), float64(vs.CoreNodes))
		m.ratio("storage.border_frac", float64(vs.BorderNodes), float64(vs.Records))
	} else {
		var used, core, border, recs float64
		for _, db := range f.cl.Set().Shards {
			vs := db.VolumeStats()
			used, core = used+float64(vs.UsedBytes), core+float64(vs.CoreNodes)
			border, recs = border+float64(vs.BorderNodes), recs+float64(vs.Records)
		}
		m.ratio("storage.bytes_per_node", used, core)
		m.ratio("storage.border_frac", border, recs)
	}
}

// layerSpans derives the facade's per-layer times from the traced pass.
func layerSpans(m *metrics, spans []load.Span, traced pass) {
	dur := spanDurations(spans)
	streams, nodes := 0.0, 0.0
	for _, s := range traced.samples {
		if s.req.Kind == load.Read && s.fail == "" && s.open > 0 {
			streams++
			nodes += float64(s.count)
		}
	}
	if _, ok := dur["pathdb.submit"]; !ok {
		m.na["pathdb.submit_to_cursor_us"] = true
		m.na["pathdb.drain_us_per_knode"] = true
		return
	}
	m.ratio("pathdb.submit_to_cursor_us", float64(dur["pathdb.submit"])/1e3, streams)
	m.ratio("pathdb.drain_us_per_knode", float64(dur["pathdb.drain"])/1e3, nodes/1e3)
}

// layerShard derives the shard and server metrics of the sharded workload:
// http is the one-client HTTP pass, inproc the same reads through
// Cluster.Stream without the server.
func layerShard(m *metrics, f *fixture, counts, http, inproc pass) {
	var scatter, share, exec, httpLat, inLat, perNode []float64
	var mergeNs, nodes, bytes, lines float64
	inByID := map[int]sample{}
	for _, s := range inproc.samples {
		if s.fail != "" {
			continue
		}
		inByID[s.req.ID] = s
		scatter = append(scatter, ms(s.open))
		exec = append(exec, ms(s.exec))
		mergeNs += float64((s.total - s.open).Nanoseconds())
		nodes += float64(s.count)
		if s.shardSum > 0 {
			share = append(share, float64(s.exec)/float64(s.shardSum))
		}
	}
	for _, s := range http.samples {
		in, ok := inByID[s.req.ID]
		if s.fail != "" || s.req.Kind != load.Read || !ok {
			continue
		}
		httpLat = append(httpLat, ms(s.total))
		inLat = append(inLat, ms(in.total))
		bytes += float64(s.bytes)
		lines += float64(s.count)
		if s.count > 0 {
			perNode = append(perNode, float64((s.total-in.total).Microseconds())/(float64(s.count)/1e3))
		}
	}
	m.pct("shard.scatter_ms_p50", load.Sorted(scatter), 50)
	m.ratio("shard.merge_us_per_knode", mergeNs/1e3, nodes/1e3)
	m.set("shard.slowest_shard_share", load.Mean(share))
	m.pct("engine.exec_ms_p50", load.Sorted(exec), 50)

	var countReqs, cached float64
	inflightMax := int64(0)
	for _, s := range counts.samples {
		if s.req.Kind == load.Count && s.fail == "" {
			countReqs++
			cached += float64(s.cached)
		}
		inflightMax = max(inflightMax, s.inflight)
	}
	m.ratio("shard.count_cache_hit_frac", cached, countReqs*float64(f.cl.Shards()))

	pages := make([]float64, 0, f.cl.Shards())
	for _, sm := range f.cl.Metrics() {
		pages = append(pages, float64(sm.Pages))
	}
	sort.Float64s(pages)
	m.ratio("shard.page_skew", pages[len(pages)-1], load.Mean(pages))

	hp, ok1 := load.Percentile(load.Sorted(httpLat), 50)
	ip, ok2 := load.Percentile(load.Sorted(inLat), 50)
	if ok1 && ok2 {
		m.set("server.http_overhead_ms_p50", hp-ip)
	} else {
		m.na["server.http_overhead_ms_p50"] = true
	}
	if len(perNode) > 0 {
		m.set("server.ndjson_us_per_knode", load.Median(perNode))
	} else {
		m.na["server.ndjson_us_per_knode"] = true
	}
	m.ratio("server.bytes_per_node", bytes, lines)
	m.set("server.inflight_max", float64(inflightMax))
	if srv, err := scrapeServer(f); err == nil {
		shed := srv["pathdb_server_shed_total"] + srv["pathdb_server_quota_shed_total"]
		m.ratio("server.shed_frac", shed, srv["pathdb_server_requests_total"]+srv["pathdb_server_updates_total"])
	} else {
		m.na["server.shed_frac"] = true
	}
}
