package main

import (
	"encoding/json"
	"os"
	"sort"
	"testing"

	"xok/internal/sim"
)

// testSize keeps each workload's run well under a few seconds.
var testSize = size{ioSystems: 1, clusterConns: 2000, diffPrograms: 10, diffSteps: 30}

func measureAt(t *testing.T, name string, seed uint64, traced bool) *rep {
	t.Helper()
	r := &rep{seed: seed, traced: traced, layers: map[string]float64{}}
	w := workloads[name]
	if err := w.measureSetup(r, testSize); err != nil {
		t.Fatalf("%s set-up: %v", name, err)
	}
	if err := w.measureRun(r, testSize); err != nil {
		t.Fatalf("%s run: %v", name, err)
	}
	if r.failed != 0 || r.attempted == 0 {
		t.Fatalf("%s: %d of %d operations failed: %v", name, r.failed, r.attempted, r.errors)
	}
	return r
}

// Two runs of a workload with the same seed simulate the same thing.
// The fingerprint values themselves are not pinned: a change to the
// model may move them.
func TestRunsAgree(t *testing.T) {
	for _, name := range workloadNames() {
		t.Run(name, func(t *testing.T) {
			a, b := measureAt(t, name, 7, false), measureAt(t, name, 7, false)
			if fingerprint(a.fp) != fingerprint(b.fp) {
				t.Fatalf("fingerprints differ:\n%q\n%q", a.fp, b.fp)
			}
			if a.runCPU <= 0 || len(a.setupCPU) != setupBatches || a.setupCPU[0] <= 0 {
				t.Fatalf("run %v, set-up %v: want positive host times", a.runCPU, a.setupCPU)
			}
		})
	}
}

func TestSeedChangesInputs(t *testing.T) {
	for _, name := range []string{"cluster", "difftest"} {
		a, b := measureAt(t, name, 1, false), measureAt(t, name, 2, false)
		if fingerprint(a.fp) == fingerprint(b.fp) {
			t.Errorf("%s: seeds 1 and 2 simulate the same thing", name)
		}
	}
}

// Tracing and profiling must not change what is simulated.
func TestTracingKeepsSimulation(t *testing.T) {
	a, b := measureAt(t, "iointensive", 3, false), measureAt(t, "iointensive", 3, true)
	if fingerprint(a.fp) != fingerprint(b.fp) {
		t.Fatalf("traced run simulated something else:\n%q\n%q", a.fp, b.fp)
	}
}

// Every per-layer metric BENCHMARK.json names is reported by a traced
// repetition of every workload, and nothing else is.
func TestLayersMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{}
	for _, m := range spec.PerLayer {
		if !derivedByRunPy[m.Name] {
			want[m.Name] = true
		}
	}
	for _, name := range workloadNames() {
		r := measureAt(t, name, 1, true)
		var missing, extra []string
		for m := range want {
			if _, ok := r.layers[m]; !ok {
				missing = append(missing, m)
			}
		}
		for m := range r.layers {
			if !want[m] {
				extra = append(extra, m)
			}
		}
		sort.Strings(missing)
		sort.Strings(extra)
		if len(missing)+len(extra) > 0 {
			t.Errorf("%s: missing %v, not in BENCHMARK.json %v", name, missing, extra)
		}
	}
}

// derivedByRunPy are per-layer metrics run.py computes from several
// processes: traced against untraced repetitions, and the reference.
var derivedByRunPy = map[string]bool{
	"trace.overhead_frac": true,
	"host.run_cpu_s":      true,
	"host.ref_score":      true,
}

// The reference times every kernel and scores the host near 1 on a
// quiet host; any positive score is accepted here.
func TestReferenceScores(t *testing.T) {
	secs, score := measureRef()
	if len(secs) != len(refKernels) || score <= 0 {
		t.Fatalf("measureRef() = %v, %v", secs, score)
	}
	for k, s := range secs {
		if s <= 0 {
			t.Errorf("kernel %s took %v s", k, s)
		}
	}
}

func TestRepoLayer(t *testing.T) {
	for fn, want := range map[string]string{
		"xok/internal/sim.(*Engine).Step":              "sim",
		"xok/internal/kernel.(*Kernel).Spawn.func1":    "kernel",
		"xok/internal/parallel.Map[...]":               "parallel",
		"xok/internal/xn.(*XN).Modify":                 "xn",
		"runtime.mallocgc":                             "",
		"main.main":                                    "",
		"xok/perfbench.foo":                            "",
		"xok/internal/workload.IOIntensive.func3.Cp.1": "workload",
	} {
		if got := repoLayer(fn); got != want {
			t.Errorf("repoLayer(%q) = %q, want %q", fn, got, want)
		}
	}
}

// A profile of engine work charges the engine's frames, and the
// benchmark's own callback below them, to sim; nothing else but
// runtime (GC, and the race detector's code, which has no Go frames)
// gets samples.
func TestAttributeChargesInnermostRepoFrame(t *testing.T) {
	var fired int
	layers, err := profiled(func() error {
		eng := sim.NewEngine()
		var tick func()
		tick = func() {
			if fired++; fired < 3_000_000 {
				eng.After(1, tick)
			}
		}
		eng.After(1, tick)
		eng.Run()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if layers["sim"] == 0 {
		t.Skipf("profile caught no sim samples: %v", layers)
	}
	for l := range layers {
		if l != "sim" && l != runtimeLayer {
			t.Errorf("%s charged: %v", l, layers)
		}
	}
}
