GO ?= go

.PHONY: all build fmt vet test race crash fuzz-smoke race-parallel perf-sanity cluster-smoke snapshot-smoke check bench

all: check

build:
	$(GO) build ./...

fmt:
	@files=$$(gofmt -l .); if [ -n "$$files" ]; then \
		echo "gofmt needed on:"; echo "$$files"; exit 1; fi

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# The crash-enumeration suite, forced to re-run (-count=1) under the
# race detector: fault injection must stay bit-deterministic even with
# -race's scheduling noise.
crash:
	$(GO) test -race -count=1 -run TestCrashEnum ./internal/workload/

# A fixed-seed differential fuzzing campaign: 100 syscall programs,
# every personality compared against every other (internal/difftest).
# Deterministic by construction, so a failure here is a real semantic
# divergence, never flake. Then short native-fuzzing runs of XN's
# ownership delta check against its per-block map reference, and of its
# incremental taint counts against the owns-udf scan they replace; a
# crasher either finds lands in internal/xn/testdata/fuzz and replays
# on every `go test` from then on.
fuzz-smoke:
	$(GO) run ./cmd/xok-bench -run difftest -seeds 100
	$(GO) test -run '^$$' -fuzz '^FuzzOwnsDelta$$' -fuzztime 10s ./internal/xn/
	$(GO) test -run '^$$' -fuzz '^FuzzTaintIncremental$$' -fuzztime 10s ./internal/xn/

# A short difftest batch fanned across 4 workers under the race
# detector: the canary for cross-machine shared state. Any package
# global mutated by two concurrently-running machines surfaces here as
# a data race (this is how xn's package-level LRU clock was caught).
race-parallel:
	$(GO) run -race ./cmd/xok-bench -run difftest -seeds 12 -parallel 4

# Perf sanity: the difftest campaign fanned across 4 workers must not
# be slower than the same campaign serial beyond a generous tolerance
# (single-CPU hosts legitimately see speedup ~1; what this catches is
# the harness actively LOSING to serial — coordination overhead or
# shared-state contention), and the committed BENCH_sim.json must
# carry no regression row its recorded CPU count cannot explain.
# Reduced sizes keep it quick; the XOK_PERF_SANITY guard keeps the
# wall-clock assertions out of ordinary `go test ./...` runs where
# they would be noise.
perf-sanity:
	XOK_PERF_SANITY=1 $(GO) test -run TestPerfSanity -count=1 -v .

# Cluster smoke: a small topology-fabric sweep (1 server vs 2 behind
# the balancer) end to end through the xok-bench CLI. Guards the whole
# shared-engine path — N kernels on one event engine, the balancer,
# open-loop arrivals — and its serial/parallel determinism (the full
# byte-identical check lives in TestClusterParallelMatchesSerial).
cluster-smoke:
	$(GO) run ./cmd/xok-bench -run cluster -servers 2 -conns 300

# Snapshot smoke: the fork fast path's equivalence guards, re-run
# (-count=1) under the race detector — replay equivalence (fork at a
# random MAB boundary continues bit-identically, with and without an
# armed fault plan), the crash sweep's snapshot-vs-boot digest match,
# and difftest's from-boot-vs-forked exact compare with concurrent
# forks from shared snapshots.
snapshot-smoke:
	$(GO) test -race -count=1 -run 'TestSnapshot' ./internal/workload/ ./internal/difftest/

# The full pre-commit gate: everything compiles, the tree is gofmt
# clean, vet is clean, the whole suite passes under the race detector
# (the coroutine hand-off between the scheduler and environments in
# internal/kernel is exactly the kind of code -race exists for), the
# parallel harness is race-clean, the
# crash-enumeration sweep re-runs, the differential fuzz smoke
# campaign comes back clean, the cluster runs end to end, snapshot
# forking reproduces boot runs bit-exactly, and the parallel harness
# is not slower than serial.
check: build fmt vet race race-parallel crash fuzz-smoke cluster-smoke snapshot-smoke perf-sanity

# Wall-clock benchmark baseline, committed as BENCH_sim.json so engine
# or harness regressions show up as a diff. Two tiers: the engine
# micro-benchmarks run at the default benchtime (they are the ns/op +
# allocs/op numbers the fast path is judged on); the end-to-end
# experiment benchmarks (MAB, difftest serial-vs-parallel, crash
# serial-vs-parallel) each run their full campaign once, -benchtime=1x.
# Raw `go test` output passes through on stderr; stdout carries the
# JSON (see cmd/benchjson). The -expect list makes a silently vanished
# benchmark (renamed, paniced, filtered out) fail the run instead of
# quietly shrinking the committed baseline.
BENCH_EXPECT = BenchmarkEngineStepAfter16,BenchmarkEngineStepAfter1024,\
BenchmarkEngineStepAfterArg16,BenchmarkEngineStepAfterArg1024,\
BenchmarkEngineScheduleCancel,BenchmarkEngineScheduleCancelWheel,\
BenchmarkEngineTimersHeap65536,BenchmarkEngineTimersWheel65536,\
BenchmarkEngineTimersHeap1M,BenchmarkEngineTimersWheel1M,\
BenchmarkMAB/Xok-ExOS,BenchmarkMAB/FreeBSD,\
BenchmarkDifftest100Serial,BenchmarkDifftest100Parallel4,\
BenchmarkDifftest100SnapshotSerial,BenchmarkDifftest100SnapshotParallel4,\
BenchmarkCrashSweepSerial,BenchmarkCrashSweepParallel4,\
BenchmarkCrashSweepSnapshotSerial,BenchmarkCrashSweepSnapshotParallel4,\
BenchmarkClusterSerial,BenchmarkClusterParallel4,BenchmarkClusterConns100k

bench:
	@{ $(GO) test -run '^$$' -bench 'BenchmarkEngine' -benchmem ./internal/sim/ && \
	   $(GO) test -run '^$$' -bench 'BenchmarkMAB$$|BenchmarkDifftest100|BenchmarkCrashSweep|BenchmarkCluster' -benchmem -benchtime=1x . ; } \
	  | $(GO) run ./cmd/benchjson -expect '$(BENCH_EXPECT)' > BENCH_sim.json
	@echo "wrote BENCH_sim.json"
