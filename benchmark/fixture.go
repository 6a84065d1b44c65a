package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"pathdb"
	"pathdb/internal/server"
	"pathdb/internal/shard"
	"pathdb/internal/stats"

	"pathdb/benchmark/load"
)

// fixture is one freshly built system under test: a volume behind an
// engine, or a sharded cluster behind the HTTP router on a loopback
// listener.
type fixture struct {
	w *workload

	db  *pathdb.DB
	eng *pathdb.Engine

	cl   *shard.Cluster
	rt   *server.Router
	srv  *http.Server
	done chan struct{} // closed when srv.Serve has returned
	base string

	// setupS is generate + import + engine/cluster/server start, until the
	// first request can be admitted; engineStartS is its last part.
	setupS       float64
	engineStartS float64
	pages0       int

	clients      atomic.Int64 // clients created so far (names their fragments)
	staleRetries atomic.Int64 // writes repeated after a stale node handle

	mu      sync.Mutex
	parents []pathdb.Node // insert targets, resolved on first write
}

func (w *workload) xmark() pathdb.XMarkConfig {
	return pathdb.XMarkConfig{ScaleFactor: 1, Seed: docSeed, EntityScale: w.vol.entityScale}
}

func (w *workload) options() pathdb.Options {
	return pathdb.Options{BufferPages: w.vol.bufferPages, Layout: w.vol.layout, LayoutSeed: layoutSeed}
}

func engineConfig() pathdb.EngineConfig {
	return pathdb.EngineConfig{Parallel: engineParallel}
}

// oracleFor computes the expected count of every distinct read with the
// evaluator the engine does not use by default: the Simple strategy with
// per-candidate predicate probing, on a single unsharded volume of the
// workload's document. It runs once per process, outside set-up time.
func oracleFor(w *workload, reqs []load.Request) (map[string]int, error) {
	db, err := pathdb.GenerateXMark(w.xmark(), pathdb.Options{})
	if err != nil {
		return nil, fmt.Errorf("oracle volume: %w", err)
	}
	oracle := map[string]int{}
	for _, q := range load.Distinct(reqs) {
		if _, ok := oracle[q.Path]; ok {
			continue
		}
		qq, err := db.Query(q.Path)
		if err != nil {
			return nil, fmt.Errorf("oracle %s: %w", q.Path, err)
		}
		oracle[q.Path] = qq.WithStrategy(pathdb.Simple).WithPredEval(pathdb.PredNested).Count()
	}
	return oracle, nil
}

// build sets the workload's system up and times it.
func build(w *workload) (*fixture, error) {
	f := &fixture{w: w}
	t0 := time.Now()
	if w.vol.shards > 0 {
		cl, err := shard.NewXMark(w.xmark(), w.options(), shard.Config{Shards: w.vol.shards, Engine: engineConfig()})
		if err != nil {
			return nil, fmt.Errorf("build cluster: %w", err)
		}
		f.cl = cl
		tEng := time.Now()
		f.rt = server.NewRouter(cl, server.Options{}, shard.QuotaConfig{})
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			cl.Close()
			return nil, fmt.Errorf("listen: %w", err)
		}
		f.srv = &http.Server{Handler: f.rt}
		f.done = make(chan struct{})
		go func() {
			defer close(f.done)
			_ = f.srv.Serve(ln) // returns ErrServerClosed at close()
		}()
		f.base = "http://" + ln.Addr().String()
		f.engineStartS = time.Since(tEng).Seconds()
		for _, m := range cl.Metrics() {
			f.pages0 += m.Pages
		}
	} else {
		db, err := pathdb.GenerateXMark(w.xmark(), w.options())
		if err != nil {
			return nil, fmt.Errorf("build volume: %w", err)
		}
		tEng := time.Now()
		f.db = db
		f.eng = db.NewEngine(engineConfig())
		// The chooser's statistics walk is set-up work, not query work.
		db.ResetStats()
		f.engineStartS = time.Since(tEng).Seconds()
		f.pages0 = db.Pages()
	}
	f.setupS = time.Since(t0).Seconds()
	return f, nil
}

func (f *fixture) close() {
	if f.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		_ = f.srv.Shutdown(ctx) // idle keep-alive connections only; clients are done
		cancel()
		<-f.done
		f.cl.Close()
		return
	}
	f.eng.Close()
}

// pages is the current number of data pages (all shards).
func (f *fixture) pages() int {
	if f.cl == nil {
		return f.db.Pages()
	}
	n := 0
	for _, m := range f.cl.Metrics() {
		n += m.Pages
	}
	return n
}

// counters is one snapshot of everything the layers count, summed over
// shards where there are several.
type counters struct {
	led       stats.Ledger
	eng       pathdb.EngineMetrics
	txn       pathdb.TxnMetrics
	cacheHits int64
}

func (f *fixture) counters() counters {
	if f.cl == nil {
		return counters{led: f.eng.CostLedger(), eng: f.eng.Metrics(), txn: f.eng.TxnMetrics()}
	}
	var c counters
	for _, m := range f.cl.Metrics() {
		c.led.Merge(m.Ledger)
		c.eng.Submitted += m.Engine.Submitted
		c.eng.Rejected += m.Engine.Rejected
		c.eng.Completed += m.Engine.Completed
		c.eng.Gangs += m.Engine.Gangs
		c.eng.Batched += m.Engine.Batched
		c.eng.OverheadV += m.Engine.OverheadV
		c.txn.Commits += m.Txn.Commits
		c.txn.Groups += m.Txn.Groups
		c.txn.Flushes += m.Txn.Flushes
		c.txn.FreePage += m.Txn.FreePage
		c.txn.Pinned += m.Txn.Pinned
		c.cacheHits += m.CacheHits
	}
	return c
}

// sub returns the counts accumulated since base. Gauges (pinned snapshots,
// free pages) keep their current value.
func (c counters) sub(base counters) counters {
	d := c
	d.led = c.led.Sub(base.led)
	d.eng.Submitted -= base.eng.Submitted
	d.eng.Rejected -= base.eng.Rejected
	d.eng.Completed -= base.eng.Completed
	d.eng.Gangs -= base.eng.Gangs
	d.eng.Batched -= base.eng.Batched
	d.eng.OverheadV -= base.eng.OverheadV
	d.txn.Commits -= base.txn.Commits
	d.txn.Groups -= base.txn.Groups
	d.txn.Flushes -= base.txn.Flushes
	d.cacheHits -= base.cacheHits
	return d
}

// insertParent returns the person a write with this seeded target inserts
// under. The persons are resolved on first use, in document order so that a
// target picks the same person on every volume, and again when a caller
// found its handle stale.
func (f *fixture) insertParent(target int, refresh bool) (pathdb.Node, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.parents == nil || refresh {
		res, err := f.eng.NewSession().Do(context.Background(), "/site/people/person", pathdb.QueryOptions{Sorted: true})
		if err != nil {
			return pathdb.Node{}, fmt.Errorf("resolve insert parents: %w", err)
		}
		f.parents = res.Nodes
	}
	return f.parents[target%len(f.parents)], nil
}
