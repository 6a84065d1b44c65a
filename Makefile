# CI entry points. `make` runs the full set.
GO ?= go

.PHONY: all build test race vet fmt api-check bench bench-e2e profile profile-cold test-faults test-txn test-shard fuzz-short loc clean

all: build fmt vet api-check test race

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Race-detect the concurrent layers (engine, server, storage, core, plan —
# the chooser reads the pool's fill while commits fix pages — buffer, vdisk,
# stats) plus the facade, which exercises the engine end to end. The engine
# and server run a second time at GOMAXPROCS 1, the setting the benchmark
# uses. The union-equality test and the sorted-union merge differential run
# at GOMAXPROCS 1 and 4: a union split across gangs only shows when the
# submitter and the dispatcher run on different cores.
race:
	$(GO) test -race ./internal/engine/... ./internal/server/... ./internal/storage/... ./internal/core/... ./internal/plan/... ./internal/buffer/... ./internal/vdisk/... ./internal/stats/... .
	$(GO) test -race -cpu 1 ./internal/engine/ ./internal/server/
	$(GO) test -race -cpu 1,4 -run 'TestQueryStreamMatchesQueryCtx|TestSortedUnionMergeDifferential' .

# Go micro-benchmarks with allocation counts (wall-clock; machine
# dependent, unlike the virtual-clock numbers from xbench). Includes
# internal/txn's BenchmarkCommit/{solo,writers=4} — ns and log flushes
# per commit — the only timing of a commit group with more than one
# writer (no benchmark/ workload has two) — and the phases of a
# structural join (ns, B, allocs): internal/core's BenchmarkJoinResident
# (levels cached, the predicated path read from levels from the roots),
# BenchmarkJoinNavigated (the same predicate from a relative context, its
# candidates navigated), BenchmarkFlatResident and BenchmarkFlatNavigated
# (Q6′ and /site//description read from resident levels, as Auto reads them
# on a resident pool, and navigated by forced Simple), BenchmarkLevelBuild, BenchmarkLevelAdvance (a
# level carried across one commit) and BenchmarkLiteralSelect, and
# internal/storage's BenchmarkStringValue — the cold path: internal/storage's
# BenchmarkDecodePage (validating one 8 KB cluster) and BenchmarkColdSweep (ns, B and allocs per page of touching
# every page of the flat_cold volume through its 90-page pool), and the
# root package's BenchmarkColdQuery (flat_cold's reads, see profile-cold) —
# and the root package's BenchmarkStreamDrain (ns/result and allocs per
# query of draining an engine cursor on a resident volume, sorted,
# unsorted, and a sorted union merged from its ordered branches) — and
# internal/shard's BenchmarkClusterCount (ns and allocs of a count-only
# Cluster.Query, the merge drained with no node kept, on two resident
# shards) — and internal/plan's BenchmarkNewChooser (ns and allocs
# of building the cost model's chooser over flat_cold's volume shape, the
# statistics part of engine start).
bench:
	$(GO) test -bench . -benchmem -count=3 ./...

# The layered benchmark (benchmark/README.md): every workload of
# BENCHMARK.json, three runs each, end-to-end metrics on standard output.
bench-e2e:
	bash benchmark/run.sh -workload all -runs 3

# CPU + heap profiles of the facade's query benchmark, for digging into
# hot-path regressions: `go tool pprof profiles/cpu.pprof`.
profile: PROFILES ?= profiles
profile:
	@mkdir -p $(PROFILES)
	$(GO) test -run '^$$' -bench BenchmarkQueryWallClock \
		-cpuprofile $(PROFILES)/cpu.pprof -memprofile $(PROFILES)/heap.pprof .

# CPU + heap profiles of the cold path: BenchmarkColdQuery reads the
# flat_cold volume through a 90-page pool, so nearly every cluster it
# touches is a miss. `go tool pprof -top profiles/cold-cpu.pprof`.
profile-cold: PROFILES ?= profiles
profile-cold:
	@mkdir -p $(PROFILES)
	$(GO) test -run '^$$' -bench BenchmarkColdQuery -benchtime 100x -o $(PROFILES)/pathdb.test \
		-cpuprofile $(PROFILES)/cold-cpu.pprof -memprofile $(PROFILES)/cold-heap.pprof .

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

# Transaction subsystem: redo-log/recovery unit tests, the deterministic
# group-commit tests (one group for N commits enqueued behind a flush,
# groups of one for a lone writer) and the seeded crash
# matrix (internal/txn), the facade's mixed read/write
# gauntlet (snapshot isolation + goroutine-leak check), reads begun before
# a commit — the volume's first included — on every surface, the HTTP
# update path, and the structural join's levels across commits (advanced
# levels equal fresh builds, Auto reads build once and then join over
# advanced levels, pinned snapshots, faulted advances, reads that take
# their steps from levels — predicated or not — and the candidate sets
# those commits drop), all under -race.
test-txn:
	$(GO) test -race ./internal/txn/
	$(GO) test -race -run 'TestUpdate|TestQueryChoice|TestSnapshot' ./internal/server/ .
	$(GO) test -race -run 'TestLevelAdvance|TestAutoJoinsAcrossCommits|TestSupersededSnapshot|TestFailedAdvance|TestLevelReadDifferential|TestFlatLevelReadDifferential' .
	$(GO) test -race -run 'TestLevelReadAcrossCommits' ./internal/core/

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
# mapping (server), and the txn redo log's crash-point recovery matrix.
test-faults:
	$(GO) test -race -run 'Fault|Corrupt|Retry|Poison|Crash' \
		./internal/vdisk/ ./internal/buffer/ ./internal/storage/ \
		./internal/txn/ ./internal/engine/ ./internal/server/ .

# Short fuzz pass over every parser that consumes untrusted bytes: the
# XML scanner, the XPath parser, the page decoder on the buffer-miss path,
# and the redo log's two payload decoders on the recovery path — and over
# the order-key encoding against its component-wise reference. `go test
# -fuzz` takes one target per invocation.
fuzz-short: FUZZTIME ?= 10s
fuzz-short:
	$(GO) test -run '^$$' -fuzz FuzzParse -fuzztime $(FUZZTIME) ./internal/xmlparse/
	$(GO) test -run '^$$' -fuzz FuzzParsePath -fuzztime $(FUZZTIME) ./internal/xpath/
	$(GO) test -run '^$$' -fuzz FuzzDecodePage -fuzztime $(FUZZTIME) ./internal/storage/
	$(GO) test -run '^$$' -fuzz FuzzDecodeGroupRecord -fuzztime $(FUZZTIME) ./internal/storage/
	$(GO) test -run '^$$' -fuzz FuzzDecodeTxnState -fuzztime $(FUZZTIME) ./internal/storage/
	$(GO) test -run '^$$' -fuzz FuzzKeyOrder -fuzztime $(FUZZTIME) ./internal/ordpath/

# Code size: non-test Go lines outside benchmark/, the figure CHANGES.md
# entries quote.
loc:
	@find . -name '*.go' ! -name '*_test.go' -not -path './benchmark/*' -not -path './.git/*' -exec cat {} + | wc -l

clean:
	rm -rf profiles
