package xok

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"testing"
	"time"

	"xok/internal/difftest"
)

// TestPerfSanityParallelNotSlower is the `make perf-sanity` gate: the
// difftest campaign fanned across 4 workers must not run meaningfully
// slower than the identical campaign serial. It is a wall-clock test,
// so it only runs when `make perf-sanity` opts in via XOK_PERF_SANITY —
// inside the ordinary `go test ./...` sweep (and especially under
// -race) the timing would be pure noise.
//
// The tolerance is deliberately one-sided. On a single-CPU host real
// speedup is impossible and speedup ≈ 1 is the healthy reading; on a
// multi-core host parallel should win outright. In both cases
// parallel-4 losing to serial by more than the tolerance means the
// harness is burning time on coordination or shared-state contention —
// the zero-speedup regression this PR fixed, caught at `make check`
// time instead of in the committed BENCH_sim.json diff.
func TestPerfSanityParallelNotSlower(t *testing.T) {
	if os.Getenv("XOK_PERF_SANITY") == "" {
		t.Skip("wall-clock gate; run via `make perf-sanity` (XOK_PERF_SANITY=1)")
	}
	const seeds = 40
	run := func(workers int) time.Duration {
		start := time.Now()
		div, err := difftest.Fuzz(difftest.Options{Seeds: seeds, Parallel: workers})
		if err != nil {
			t.Fatal(err)
		}
		if div != nil {
			t.Fatalf("unexpected divergence: %v", div)
		}
		return time.Since(start)
	}
	// Warm the process-wide caches (UDF assembly memo, buffer pools) so
	// both timed runs see steady state, then take the best of two runs
	// each to damp scheduler noise.
	run(1)
	serial := min(run(1), run(1))
	parallel := min(run(4), run(4))

	limit := serial + serial/2 // 1.5x: generous, but a contended pool blows past it
	if parallel > limit {
		t.Fatalf("parallel-4 took %v vs serial %v on GOMAXPROCS=%d: beyond the 1.5x tolerance (%v)",
			parallel, serial, runtime.GOMAXPROCS(0), limit)
	}
	t.Logf("serial %v, parallel-4 %v, speedup %.2fx (GOMAXPROCS=%d)",
		serial, parallel, float64(serial)/float64(parallel), runtime.GOMAXPROCS(0))
}

// TestPerfSanityNoCommittedRegressions reads the committed
// BENCH_sim.json and refuses any speedup row benchjson flagged
// "regression": true — a slowdown cannot land silently in the
// baseline. A row whose variant ran on more workers than the recorded
// host had CPUs is tolerated: there a ratio hovering just under 1.0
// (the BenchmarkCrashSweepSnapshot Parallel4 0.93x once committed
// from a 1-CPU host) is scheduler noise, not contention. Every other
// row — single-threaded comparisons such as heap versus timer wheel,
// and concurrent ones with a CPU per worker — fails. The CPU count is
// the one benchjson recorded, not the checking host's.
func TestPerfSanityNoCommittedRegressions(t *testing.T) {
	if os.Getenv("XOK_PERF_SANITY") == "" {
		t.Skip("baseline gate; run via `make perf-sanity` (XOK_PERF_SANITY=1)")
	}
	raw, err := os.ReadFile("BENCH_sim.json")
	if err != nil {
		t.Skipf("no committed baseline: %v", err)
	}
	var rep struct {
		Host     map[string]string `json:"host"`
		Speedups []struct {
			Kind       string  `json:"kind"`
			Base       string  `json:"base"`
			Variant    string  `json:"variant"`
			Workers    int     `json:"workers"`
			Speedup    float64 `json:"speedup"`
			Regression bool    `json:"regression"`
		} `json:"speedups"`
	}
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatalf("BENCH_sim.json: %v", err)
	}
	cpus, err := strconv.Atoi(rep.Host["num_cpu"])
	if err != nil {
		t.Fatalf("BENCH_sim.json: host.num_cpu %q: %v", rep.Host["num_cpu"], err)
	}
	for _, r := range rep.Speedups {
		if !r.Regression {
			continue
		}
		label := fmt.Sprintf("%s row %s -> %s (%.2fx)", r.Kind, r.Base, r.Variant, r.Speedup)
		if r.Workers > cpus {
			t.Logf("tolerating committed %s: %d workers measured on %d CPUs", label, r.Workers, cpus)
			continue
		}
		t.Errorf("committed regression: %s, measured on %d CPUs", label, cpus)
	}
}
