GO ?= go

.PHONY: all build fmt vet test race crash fuzz-smoke race-parallel perf-sanity cluster-smoke snapshot-smoke examples check bench reach

all: check

# perfbench is its own module, which the root ./... skips: build and
# vet it too, so an internal API change that breaks the benchmark fails
# here. Its one package is a command, so the binary is discarded rather
# than left in the source tree.
build:
	$(GO) build ./...
	cd perfbench && $(GO) build -o /dev/null ./...

fmt:
	@files=$$(gofmt -l .); if [ -n "$$files" ]; then \
		echo "gofmt needed on:"; echo "$$files"; exit 1; fi

vet:
	$(GO) vet ./...
	cd perfbench && $(GO) vet ./...

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
# divergence, never flake. Then short native-fuzzing runs of the UDF
# interpreter (fuel bound, determinism, assembler round trip and the
# soundness of the read set XN keeps owns-udf results by), of XN's
# ownership delta check against its per-block map reference, of its
# incremental taint counts against the owns-udf scan they replace, and
# of the -faults parser's round trip through Plan.String; a crasher
# any of them finds lands in the package's testdata/fuzz and replays on
# every `go test` from then on.
fuzz-smoke:
	$(GO) run ./cmd/xok-bench -run difftest -seeds 100
	$(GO) test -run '^$$' -fuzz '^FuzzRun$$' -fuzztime 10s ./internal/udf/
	$(GO) test -run '^$$' -fuzz '^FuzzOwnsDelta$$' -fuzztime 10s ./internal/xn/
	$(GO) test -run '^$$' -fuzz '^FuzzTaintIncremental$$' -fuzztime 10s ./internal/xn/
	$(GO) test -run '^$$' -fuzz '^FuzzParse$$' -fuzztime 10s ./internal/fault/

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
# difftest's from-boot-vs-forked exact compare with concurrent forks
# from shared snapshots, and the process layer's Freeze/Thaw of a
# mount table with one file system at two prefixes.
snapshot-smoke:
	$(GO) test -race -count=1 -run 'TestSnapshot' ./internal/workload/ ./internal/difftest/ ./internal/exos/

# The four standalone programs under examples/, each run to completion
# with its stdout discarded: they boot machines and drive the libOS
# APIs directly, so an API change that breaks one fails here.
examples:
	@for e in quickstart customfs webserver xcp; do \
		$(GO) run ./examples/$$e > /dev/null || exit 1; done

# The full pre-commit gate: everything compiles, the tree is gofmt
# clean, vet is clean, the whole suite passes under the race detector
# (the coroutine hand-off between the scheduler and environments in
# internal/kernel is exactly the kind of code -race exists for), the
# parallel harness is race-clean, the
# crash-enumeration sweep re-runs, the differential fuzz smoke
# campaign comes back clean, the cluster runs end to end, snapshot
# forking reproduces boot runs bit-exactly, the examples run, every
# function is reached by an experiment or allowlisted (reach), and the
# parallel harness is not slower than serial.
check: build fmt vet race race-parallel crash fuzz-smoke cluster-smoke snapshot-smoke examples reach perf-sanity

# Wall-clock benchmark baseline, committed as BENCH_sim.json so engine
# or harness regressions show up as a diff. Two tiers: the engine and
# kernel micro-benchmarks run at the default benchtime (they are the
# ns/op + allocs/op numbers the fast path is judged on: the kernel's
# pair times a Use on the parked path and burned inline); the end-to-end
# experiment benchmarks (MAB, difftest serial-vs-parallel and
# boot-vs-fork, crash serial-vs-parallel) each run their full campaign once, -benchtime=1x.
# Raw `go test` output passes through on stderr; stdout carries the
# JSON (see cmd/benchjson). The -expect list makes a silently vanished
# benchmark (renamed, paniced, filtered out) fail the run instead of
# quietly shrinking the committed baseline.
BENCH_EXPECT = BenchmarkEngineStepAfter16,BenchmarkEngineStepAfter1024,\
BenchmarkEngineStepAfterArg16,BenchmarkEngineStepAfterArg1024,\
BenchmarkEngineScheduleCancel,BenchmarkEngineScheduleCancelWheel,\
BenchmarkEngineTimersHeap65536,BenchmarkEngineTimersWheel65536,\
BenchmarkEngineTimersHeap1M,BenchmarkEngineTimersWheel1M,\
BenchmarkKernelHandoff,BenchmarkKernelUseRunAhead,\
BenchmarkMAB/Xok-ExOS,BenchmarkMAB/FreeBSD,\
BenchmarkDifftest100Serial,BenchmarkDifftest100Parallel4,\
BenchmarkDifftest100SnapshotSerial,BenchmarkDifftest100SnapshotParallel4,\
BenchmarkCrashSweepSnapshotSerial,BenchmarkCrashSweepSnapshotParallel4,\
BenchmarkClusterSerial,BenchmarkClusterParallel4,BenchmarkClusterConns100k

bench:
	@{ $(GO) test -run '^$$' -bench 'BenchmarkEngine' -benchmem ./internal/sim/ && \
	   $(GO) test -run '^$$' -bench 'BenchmarkKernel' -benchmem ./internal/kernel/ && \
	   $(GO) test -run '^$$' -bench 'BenchmarkMAB$$|BenchmarkDifftest100|BenchmarkCrashSweep|BenchmarkCluster' -benchmem -benchtime=1x . ; } \
	  | $(GO) run ./cmd/benchjson -expect '$(BENCH_EXPECT)' > BENCH_sim.json
	@echo "wrote BENCH_sim.json"

# Reachability gate: every function is either run by an experiment or
# listed, with a one-line reason, in reach-allowlist.txt. xok-bench and
# the four examples are built with coverage over every package, the
# runs below go into a scratch GOCOVERDIR with their output discarded,
# and `go tool covdata func` gives each function's coverage. It fails on
#   - a function at 0.0% that the allowlist does not name;
#   - an allowlist entry that is now reached or no longer exists, so
#     the list can only shrink;
#   - a package with non-test Go files that neither xok-bench nor an
#     example links, since coverage cannot see such a package at all;
#     REACH_TOOLS names the standalone tools exempt from this.
REACH_RUNS = '-run all' '-run figure4 -full' '-run crash -faults 42:torn' \
	'-run difftest -faults 42:kill=60,killenv=fuzz,torn' '-run cluster -hist' \
	"-run cluster -parallel 1 -trace $$dir/trace.json"
REACH_EXAMPLES = quickstart customfs webserver xcp
REACH_TOOLS = xok/cmd/benchjson xok/cmd/udfasm

reach:
	@dir=$$(mktemp -d) && trap 'rm -rf "$$dir"' EXIT && mkdir "$$dir/cov" && \
	$(GO) build -cover -coverpkg=./... -o "$$dir/xok-bench" ./cmd/xok-bench && \
	for e in $(REACH_EXAMPLES); do \
		$(GO) build -cover -coverpkg=./... -o "$$dir/$$e" ./examples/$$e || exit 1; \
		GOCOVERDIR="$$dir/cov" "$$dir/$$e" > /dev/null 2>&1 || { echo "examples/$$e failed"; exit 1; }; \
	done && \
	for args in $(REACH_RUNS); do \
		GOCOVERDIR="$$dir/cov" "$$dir/xok-bench" $$args > /dev/null 2>&1 || { echo "xok-bench $$args failed"; exit 1; }; \
	done && \
	$(GO) tool covdata func -i="$$dir/cov" | \
		awk '$$NF == "0.0%" { p = $$1; sub(/\/[^\/]*$$/, "", p); sub(/^xok\//, "", p); print p, $$2 }' | \
		sort -u > "$$dir/unreached" && \
	awk '!/^#/ && NF && NF < 3 { print "reach-allowlist.txt:" NR ": no reason given"; bad = 1 } END { exit bad }' \
		reach-allowlist.txt && \
	awk '!/^#/ && NF { print $$1, $$2 }' reach-allowlist.txt | sort -u > "$$dir/listed" && \
	$(GO) list -f '{{if .GoFiles}}{{.ImportPath}}{{end}}' ./... | sort > "$$dir/pkgs" && \
	{ $(GO) list -deps ./cmd/xok-bench $(REACH_EXAMPLES:%=./examples/%); printf '%s\n' $(REACH_TOOLS); } | \
		sort -u > "$$dir/linked" && \
	fail=0 && \
	for check in "unreached and not in reach-allowlist.txt:-23 unreached listed" \
		"in reach-allowlist.txt but reached or gone:-13 unreached listed" \
		"linked by no experiment binary:-23 pkgs linked"; do \
		set -- $${check#*:}; out=$$(comm $$1 "$$dir/$$2" "$$dir/$$3"); \
		if [ -n "$$out" ]; then echo "$${check%%:*}:"; echo "$$out" | sed 's/^/  /'; fail=1; fi; \
	done && \
	{ [ $$fail = 1 ] || echo "$$(wc -l < "$$dir/unreached") functions no experiment reaches, each in reach-allowlist.txt"; \
	  exit $$fail; }
