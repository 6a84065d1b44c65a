// Command xserved serves a loaded document over HTTP — the networked form
// of the concurrent query engine (internal/server). It loads or generates
// one volume, starts an engine over it, and answers:
//
//	POST /v1/query    {"path": "/site/regions//item", "strategy": "auto",
//	                   "limit": 10, "timeout_ms": 250, "sorted": true}
//	POST /v1/update   {"op": "insert", "parent": "/site", "xml": "<note/>"}
//	                  {"op": "delete", "path": "/site/note"}
//	GET  /v1/metrics  Prometheus text exposition (engine + txn + cost ledger + server)
//	GET  /v1/healthz  200 while serving, 503 once draining
//
// With -shards N (N > 1) it serves the same endpoints in router mode: the
// corpus is split across N fully independent volumes (replicated container
// spine, consistent-hash-placed entity collections), /v1/query scatter-gathers
// across them with merged counts and document-order nodes, /v1/update routes
// to the owning shard, /v1/metrics carries per-shard series under a shard
// label plus pathdb_cluster_* aggregates, and the X-Tenant header is
// subject to per-tenant admission quotas (429 + Retry-After at the quota).
// A shard degraded by storage faults yields typed partial 200s under the
// default quorum policy ("-shard-policy all" fails instead).
//
// Updates run as MVCC transactions: each commit publishes a new volume
// version, concurrent commits batch onto shared WAL flushes (group commit),
// and in-flight queries keep reading the version they started on. A racing
// delete of an update's target is answered 409.
//
// Admission control is visible at the protocol level: a full queue is
// answered 503 with Retry-After, an expired per-request budget 504, and a
// disconnected client cancels its in-flight query (prefetches withdrawn).
// SIGINT/SIGTERM drain gracefully: in-flight queries complete, new ones
// are refused, then the engine shuts down.
//
// Usage:
//
//	xserved -xmark 0.5 -addr :8080
//	xserved -xmark 0.5 -shards 4 -addr :8080
//	xserved -xml doc.xml -inflight 8 -queue 64 -addr 127.0.0.1:0
//	curl -s localhost:8080/v1/query -d '{"path": "/site/regions//item"}'
//	curl -s -H 'X-Tenant: alice' localhost:8080/v1/query -d '{"path": "/site"}'
//	curl -s localhost:8080/v1/metrics
//
// The actual listen address is printed on startup ("listening on ..."), so
// -addr :0 works for scripts and tests.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"pathdb"
	"pathdb/internal/server"
	"pathdb/internal/shard"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address (host:port; port 0 picks one)")
	xmlFile := flag.String("xml", "", "XML document to load")
	xmarkSF := flag.Float64("xmark", 0, "generate an XMark document with this scale factor instead")
	scale := flag.Float64("scale", 0.1, "entity scale for -xmark")
	seed := flag.Uint64("seed", 42, "seed for -xmark and fragmented layouts")
	layoutName := flag.String("layout", "natural", "physical layout: natural, contiguous, shuffled")
	buffer := flag.Int("buffer", 0, "buffer pool pages (default 1000)")

	inflight := flag.Int("inflight", 0, "engine MaxInFlight (default 8)")
	queue := flag.Int("queue", 0, "engine QueueDepth (default 64)")
	maxNodes := flag.Int("max-nodes", 0, "cap on result nodes per response (default 1000)")
	maxTimeout := flag.Duration("max-timeout", 0, "cap on per-request execution budget (default 30s)")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "graceful-drain budget on shutdown")

	shards := flag.Int("shards", 1, "serve N independent volumes behind a scatter-gather router (1 = single-volume mode)")
	replicas := flag.Int("replicas", 0, "consistent-hash virtual nodes per shard (default 256)")
	policy := flag.String("shard-policy", "quorum", "degraded-shard policy: quorum (partial results) or all (first error fails)")
	quorum := flag.Int("quorum", 0, "min answering shards for a partial result (default shards/2+1)")
	quotaCap := flag.Int("quota", 0, "router admission capacity across all tenants (default 64)")
	tenantShare := flag.Float64("tenant-share", 0, "max fraction of -quota one tenant may hold (default 0.5)")
	flag.Parse()

	layout, ok := map[string]pathdb.Layout{
		"natural": pathdb.Natural, "contiguous": pathdb.Contiguous, "shuffled": pathdb.Shuffled,
	}[*layoutName]
	if !ok {
		fail("unknown -layout %q", *layoutName)
	}
	if *shards < 1 {
		fail("-shards must be >= 1")
	}

	opts := pathdb.Options{Layout: layout, LayoutSeed: *seed, BufferPages: *buffer}
	engCfg := pathdb.EngineConfig{MaxInFlight: *inflight, QueueDepth: *queue}
	srvOpts := server.Options{MaxNodes: *maxNodes, MaxTimeout: *maxTimeout}

	var xmlData []byte
	if *xmlFile != "" {
		var err error
		if xmlData, err = os.ReadFile(*xmlFile); err != nil {
			fail("%v", err)
		}
	} else if *xmarkSF <= 0 {
		fail("need -xml or -xmark")
	}

	// The service handler plus its drain hook — single-volume Server or
	// sharded Router, same endpoints either way.
	var handler http.Handler
	var shutdown func(context.Context) error

	if *shards > 1 {
		pol, err := shard.ParsePolicy(*policy)
		if err != nil {
			fail("%v", err)
		}
		cfg := shard.Config{
			Shards:   *shards,
			Replicas: *replicas,
			Policy:   pol,
			Quorum:   *quorum,
			Engine:   engCfg,
		}
		var cl *shard.Cluster
		if xmlData != nil {
			cl, err = shard.NewXML(xmlData, opts, cfg)
		} else {
			cl, err = shard.NewXMark(pathdb.XMarkConfig{ScaleFactor: *xmarkSF, Seed: *seed, EntityScale: *scale}, opts, cfg)
		}
		if err != nil {
			fail("%v", err)
		}
		pages := make([]string, 0, cl.Shards())
		for _, sm := range cl.Metrics() {
			pages = append(pages, fmt.Sprintf("%d", sm.Pages))
		}
		fmt.Printf("cluster: %d shards, pages per shard: %s, policy %s\n",
			cl.Shards(), strings.Join(pages, "/"), cfg.Policy)

		rt := server.NewRouter(cl, srvOpts, shard.QuotaConfig{Capacity: *quotaCap, MaxTenantShare: *tenantShare})
		handler, shutdown = rt, rt.Shutdown
	} else {
		var db *pathdb.DB
		var err error
		if xmlData != nil {
			db, err = pathdb.LoadXML(xmlData, opts)
		} else {
			db, err = pathdb.GenerateXMark(pathdb.XMarkConfig{ScaleFactor: *xmarkSF, Seed: *seed, EntityScale: *scale}, opts)
		}
		if err != nil {
			fail("%v", err)
		}
		fmt.Printf("document: %d pages\n", db.Pages())

		eng := db.NewEngine(engCfg)
		db.ResetStats() // cold start after the cost model's offline pass
		srv := server.New(db, eng, srvOpts)
		handler, shutdown = srv, srv.Shutdown
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fail("%v", err)
	}
	// Flushed immediately so wrappers (tests, scripts) can scrape the
	// resolved port when -addr ends in :0.
	fmt.Printf("listening on %s\n", ln.Addr())

	hs := &http.Server{Handler: handler}
	errs := make(chan error, 1)
	go func() { errs <- hs.Serve(ln) }()

	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	select {
	case sig := <-sigs:
		fmt.Printf("received %v, draining\n", sig)
	case err := <-errs:
		fail("serve: %v", err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	// Drain order: first the query service (in-flight queries finish, new
	// ones get 503, the engines close), then the HTTP listener itself.
	if err := shutdown(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "xserved: drain incomplete: %v\n", err)
	}
	if err := hs.Shutdown(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "xserved: http shutdown: %v\n", err)
	}
	fmt.Println("drained")
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "xserved: "+format+"\n", args...)
	os.Exit(1)
}
