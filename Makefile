# CI entry points. `make` runs the full set.
GO ?= go

.PHONY: all build test race vet fmt api-check bench bench-e2e bench-load bench-load-sharded bench-compare bench-compare-sharded bench-json profile test-faults test-txn test-shard fuzz-short clean

all: build fmt vet api-check test race

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Race-detect the concurrent layers (engine, server, storage, core,
# buffer, vdisk, stats) plus the facade, which exercises the engine end
# to end.
race:
	$(GO) test -race ./internal/engine/... ./internal/server/... ./internal/storage/... ./internal/core/... ./internal/buffer/... ./internal/vdisk/... ./internal/stats/... .

# Go micro-benchmarks with allocation counts (wall-clock; machine
# dependent, unlike the virtual-clock numbers from xbench), plus the
# closed-loop load snapshot.
bench: bench-load
	$(GO) test -bench . -benchmem -count=3 ./...

# The layered benchmark (benchmark/README.md): every workload of
# BENCHMARK.json, three runs each, end-to-end metrics on standard output.
bench-e2e:
	bash benchmark/run.sh -workload all -runs 3

# Closed-loop load-generator snapshot: writes BENCH_xload.json at the
# repo root with wall+virtual throughput, tail latencies, the engine's
# admission/dispatch counters, and — with the mixed workload below —
# commit latency and WAL flushes per commit (group-commit batching).
# -stream is the default delivery mode: the heavy-tailed mix is replayed
# through cursors, and a dedicated uncontended pass after the closed
# loop records time-to-first-result percentiles alongside the same
# pass's full-drain times (ttfr << drain is the streaming win; under
# the closed loop queue wait would hide it).
bench-load:
	$(GO) run ./cmd/xload -xmark 0.5 -clients 8 -requests 384 \
		-mix q6,q7,q15 -write-frac 0.25 -parallel 8 -stream -pred-compare -json .

# Same closed loop against a 4-shard scatter-gather cluster: writes
# BENCH_xload_sharded.json with per-shard throughput alongside the
# aggregate, so scale-out is part of the tracked trajectory.
bench-load-sharded:
	$(GO) run ./cmd/xload -xmark 0.5 -shards 4 -clients 8 -requests 384 \
		-mix q6,q7,q15 -write-frac 0.25 -parallel 8 -json .

# Allocation regression gate (run by CI): regenerates the load snapshot
# into a scratch directory and fails if allocs/op exceeds the committed
# BENCH_xload.json baseline by more than 10% (plus a small absolute
# slack for pool warm-up jitter). Allocs/op is workload-determined, not
# machine-speed-determined, so this gates code changes without flaking
# on hardware; wall-clock throughput is printed for context only.
# TTFR is gated loosely (2x) — it is wall-clock and machine dependent,
# so only order-of-magnitude regressions (streaming silently degrading
# to buffer-then-replay) should trip CI.
bench-compare:
	@rm -rf bench-cmp && mkdir -p bench-cmp
	$(GO) run ./cmd/xload -xmark 0.5 -clients 8 -requests 384 \
		-mix q6,q7,q15 -write-frac 0.25 -parallel 8 -stream -json bench-cmp
	$(GO) run ./cmd/benchgate -old BENCH_xload.json \
		-new bench-cmp/BENCH_xload.json -max-alloc-regress 0.10 \
		-max-ttfr-regress 1.0
	@rm -rf bench-cmp

# Sharded counterpart of bench-compare: regenerates the 4-shard snapshot
# and gates allocs/op against the committed BENCH_xload_sharded.json
# (benchgate refuses to compare snapshots at different shard counts).
bench-compare-sharded:
	@rm -rf bench-cmp-sharded && mkdir -p bench-cmp-sharded
	$(GO) run ./cmd/xload -xmark 0.5 -shards 4 -clients 8 -requests 384 \
		-mix q6,q7,q15 -write-frac 0.25 -parallel 8 -json bench-cmp-sharded
	$(GO) run ./cmd/benchgate -old BENCH_xload_sharded.json \
		-new bench-cmp-sharded/BENCH_xload_sharded.json -max-alloc-regress 0.10
	@rm -rf bench-cmp-sharded

# CPU + heap profiles of the load workload, for digging into hot-path
# regressions bench-compare flags: `go tool pprof profiles/cpu.pprof`.
profile: PROFILES ?= profiles
profile:
	@mkdir -p $(PROFILES)
	$(GO) run ./cmd/xload -xmark 0.5 -clients 8 -requests 384 \
		-mix q6,q7,q15 -write-frac 0.25 -parallel 8 \
		-cpuprofile $(PROFILES)/cpu.pprof -memprofile $(PROFILES)/heap.pprof

vet:
	$(GO) vet ./...

# Formatting gate: fails listing any file gofmt would rewrite.
fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# Public-surface gate: fails when the exported API of the root pathdb
# package drifts from the committed API_pathdb.txt baseline. Intended
# changes are landed by committing the regenerated baseline:
# `go run ./cmd/apigate -update`.
api-check:
	$(GO) run ./cmd/apigate

# Transaction subsystem: WAL/group-commit/recovery unit tests and the
# seeded crash matrix (internal/txn), the facade's mixed read/write
# gauntlet (snapshot isolation + goroutine-leak check), and the HTTP
# update path, all under -race.
test-txn:
	$(GO) test -race ./internal/txn/
	$(GO) test -race -run 'TestUpdate|TestQueryChoice' ./internal/server/ .

# Sharding subsystem: ring placement/skew/degradation, the split
# invariants, the scatter-gather coordinator, and the HTTP router
# (labeled metrics, quotas, degraded partials), all under -race.
test-shard:
	$(GO) test -race ./internal/shard/
	$(GO) test -race -run 'TestShardSplit|TestCompareDocOrder' .
	$(GO) test -race -run 'TestRouter|TestSharded' ./internal/server/

# Fault matrix: seeded fault-plane sweeps under -race. Covers the
# device schedule itself (vdisk), retry/poison fanout (buffer),
# checksum escalation (storage), per-query gang isolation at 1%/5%/20%
# read-fault rates (engine), the typed facade (pathdb), the HTTP
# mapping (server), and the randomized WAL crash-point recovery sweep.
test-faults:
	$(GO) test -race -run 'Fault|Corrupt|Retry|Poison|Crash' \
		./internal/vdisk/ ./internal/buffer/ ./internal/storage/ \
		./internal/engine/ ./internal/server/ .

# Short fuzz pass over every parser that consumes untrusted or
# pre-checksum bytes: the XML scanner, the XPath parser, and the WAL
# header decoder on the recovery path. `go test -fuzz` takes one
# target per invocation, hence the three runs.
fuzz-short: FUZZTIME ?= 10s
fuzz-short:
	$(GO) test -run '^$$' -fuzz FuzzParse -fuzztime $(FUZZTIME) ./internal/xmlparse/
	$(GO) test -run '^$$' -fuzz FuzzParsePath -fuzztime $(FUZZTIME) ./internal/xpath/
	$(GO) test -run '^$$' -fuzz FuzzDecodeWalHeader -fuzztime $(FUZZTIME) ./internal/storage/

# Machine-readable benchmark snapshot (BENCH_*.json) for tracking the
# performance trajectory across commits. Slow: full evaluation.
bench-json:
	$(GO) run ./cmd/xbench -json bench-out

clean:
	rm -rf bench-out bench-cmp profiles
