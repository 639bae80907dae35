package main

import "testing"

func TestParseBench(t *testing.T) {
	b, ok := parseBench("BenchmarkEngineStepAfter16-4   \t20000000\t        57.3 ns/op\t       0 B/op\t       0 allocs/op")
	if !ok {
		t.Fatal("line did not parse")
	}
	if b.Name != "BenchmarkEngineStepAfter16" {
		t.Fatalf("name %q (cpu suffix must be stripped)", b.Name)
	}
	if b.Runs != 20000000 {
		t.Fatalf("runs %d", b.Runs)
	}
	want := map[string]float64{"ns/op": 57.3, "B/op": 0, "allocs/op": 0}
	for unit, v := range want {
		if b.Metrics[unit] != v {
			t.Fatalf("metric %s = %v, want %v", unit, b.Metrics[unit], v)
		}
	}
}

func TestParseBenchCustomMetric(t *testing.T) {
	b, ok := parseBench("BenchmarkMAB-8 1 1234567 ns/op 9.41 vsec/xok")
	if !ok {
		t.Fatal("line did not parse")
	}
	if b.Metrics["vsec/xok"] != 9.41 {
		t.Fatalf("custom metric lost: %v", b.Metrics)
	}
}

func TestParseBenchRejectsNoise(t *testing.T) {
	for _, line := range []string{
		"PASS",
		"ok  \txok\t12.3s",
		"goos: linux",
		"BenchmarkBroken-4 notanumber 1 ns/op",
		"--- FAIL: BenchmarkX",
		"BenchmarkOdd-4 10 57.3", // dangling value without unit
	} {
		if _, ok := parseBench(line); ok {
			t.Fatalf("noise line parsed as benchmark: %q", line)
		}
	}
}

func TestDeriveSpeedups(t *testing.T) {
	benches := []Benchmark{
		{Name: "BenchmarkDifftest100Serial", Metrics: map[string]float64{
			"ns/op": 800e6, "B/op": 100e6, "allocs/op": 1000,
		}},
		{Name: "BenchmarkDifftest100Parallel4", Metrics: map[string]float64{
			"ns/op": 400e6, "B/op": 110e6, "allocs/op": 1100,
		}},
		{Name: "BenchmarkUnpaired", Metrics: map[string]float64{"ns/op": 5}},
		{Name: "BenchmarkOrphanParallel2", Metrics: map[string]float64{"ns/op": 5}},
	}
	got := deriveSpeedups(benches)
	if len(got) != 1 {
		t.Fatalf("derived %d speedups, want 1: %+v", len(got), got)
	}
	s := got[0]
	if s.Kind != "parallel" || s.Base != "BenchmarkDifftest100Serial" ||
		s.Variant != "BenchmarkDifftest100Parallel4" || s.Workers != 4 {
		t.Fatalf("pairing wrong: %+v", s)
	}
	if s.Speedup != 2.0 {
		t.Fatalf("speedup = %v, want 2.0", s.Speedup)
	}
	if s.AllocDeltaBytes == nil || *s.AllocDeltaBytes != 10e6 {
		t.Fatalf("alloc byte delta = %v, want 10e6", s.AllocDeltaBytes)
	}
	if s.AllocDeltaObjects == nil || *s.AllocDeltaObjects != 100 {
		t.Fatalf("alloc object delta = %v, want 100", s.AllocDeltaObjects)
	}
}

func TestDeriveSpeedupsIntraRunFlag(t *testing.T) {
	benches := []Benchmark{
		{Name: "BenchmarkClusterSerial", Metrics: map[string]float64{"ns/op": 100e6}},
		{Name: "BenchmarkClusterParallel4", Metrics: map[string]float64{"ns/op": 98e6}},
		{Name: "BenchmarkDifftest100Serial", Metrics: map[string]float64{"ns/op": 800e6}},
		{Name: "BenchmarkDifftest100Parallel4", Metrics: map[string]float64{"ns/op": 400e6}},
	}
	got := deriveSpeedups(benches)
	if len(got) != 2 {
		t.Fatalf("derived %d speedups, want 2: %+v", len(got), got)
	}
	for _, s := range got {
		switch s.Base {
		case "BenchmarkClusterSerial":
			if s.IntraRun == nil || *s.IntraRun {
				t.Fatalf("cluster row must be flagged intra_run=false: %+v", s)
			}
		default:
			if s.IntraRun != nil {
				t.Fatalf("%s must not carry the intra_run flag: %+v", s.Base, s)
			}
		}
	}
}

// TestDeriveSnapshotSpeedups: the snapshot rule pairs each fork-path
// campaign with its boot twin at the same worker count, while the
// parallel rule pairs the two snapshot campaigns with each other.
func TestDeriveSnapshotSpeedups(t *testing.T) {
	benches := []Benchmark{
		{Name: "BenchmarkCrashSweepSerial", Metrics: map[string]float64{"ns/op": 600e6}},
		{Name: "BenchmarkCrashSweepParallel4", Metrics: map[string]float64{"ns/op": 200e6}},
		{Name: "BenchmarkCrashSweepSnapshotSerial", Metrics: map[string]float64{"ns/op": 300e6}},
		{Name: "BenchmarkCrashSweepSnapshotParallel4", Metrics: map[string]float64{"ns/op": 100e6}},
		{Name: "BenchmarkSnapshotOrphan", Metrics: map[string]float64{"ns/op": 5}}, // no mode suffix
	}
	var snap []Speedup
	for _, s := range deriveSpeedups(benches) {
		if s.Kind == "snapshot" {
			snap = append(snap, s)
		}
	}
	if len(snap) != 2 {
		t.Fatalf("derived %d snapshot speedups, want 2: %+v", len(snap), snap)
	}
	if snap[0].Base != "BenchmarkCrashSweepSerial" || snap[0].Workers != 0 || snap[0].Speedup != 2.0 {
		t.Fatalf("serial pairing wrong: %+v", snap[0])
	}
	if snap[1].Base != "BenchmarkCrashSweepParallel4" || snap[1].Workers != 4 || snap[1].Speedup != 2.0 {
		t.Fatalf("parallel pairing wrong: %+v", snap[1])
	}
}

func TestDeriveWheelSpeedups(t *testing.T) {
	benches := []Benchmark{
		{Name: "BenchmarkEngineTimersHeap65536", Metrics: map[string]float64{"ns/op": 172.7}},
		{Name: "BenchmarkEngineTimersWheel65536", Metrics: map[string]float64{"ns/op": 85.8}},
		{Name: "BenchmarkEngineTimersHeap1M", Metrics: map[string]float64{"ns/op": 232.9}},
		{Name: "BenchmarkEngineTimersWheel1M", Metrics: map[string]float64{"ns/op": 130.7}},
		{Name: "BenchmarkEngineScheduleCancelWheel", Metrics: map[string]float64{"ns/op": 20}}, // no heap twin
		{Name: "BenchmarkUnpairedHeap8", Metrics: map[string]float64{"ns/op": 5}},
	}
	got := deriveSpeedups(benches)
	if len(got) != 2 {
		t.Fatalf("derived %d wheel speedups, want 2: %+v", len(got), got)
	}
	if got[0].Kind != "wheel" || got[0].Base != "BenchmarkEngineTimersHeap65536" || got[0].Speedup < 2.0 {
		t.Fatalf("65536 pairing wrong: %+v", got[0])
	}
	if got[1].Variant != "BenchmarkEngineTimersWheel1M" || got[1].Speedup < 1.7 {
		t.Fatalf("1M pairing wrong: %+v", got[1])
	}
	for _, s := range got {
		if s.Regression {
			t.Fatalf("wheel-wins row flagged as regression: %+v", s)
		}
	}
}

func TestDeriveSpeedupsRegressionFlag(t *testing.T) {
	benches := []Benchmark{
		{Name: "BenchmarkSlowSerial", Metrics: map[string]float64{"ns/op": 100}},
		{Name: "BenchmarkSlowParallel4", Metrics: map[string]float64{"ns/op": 110}},
		{Name: "BenchmarkSlowSnapshotSerial", Metrics: map[string]float64{"ns/op": 130}},
		{Name: "BenchmarkEngineTimersHeap1M", Metrics: map[string]float64{"ns/op": 90}},
		{Name: "BenchmarkEngineTimersWheel1M", Metrics: map[string]float64{"ns/op": 100}},
	}
	got := deriveSpeedups(benches)
	if len(got) != 3 {
		t.Fatalf("derived %d speedups, want 3: %+v", len(got), got)
	}
	for _, s := range got {
		if !s.Regression {
			t.Fatalf("%s slowdown not flagged: %+v", s.Kind, s)
		}
	}
}

func TestDeriveSpeedupsNoBenchmem(t *testing.T) {
	benches := []Benchmark{
		{Name: "BenchmarkXSerial", Metrics: map[string]float64{"ns/op": 10}},
		{Name: "BenchmarkXParallel2", Metrics: map[string]float64{"ns/op": 5}},
	}
	got := deriveSpeedups(benches)
	if len(got) != 1 || got[0].AllocDeltaBytes != nil || got[0].AllocDeltaObjects != nil {
		t.Fatalf("alloc deltas should be absent without -benchmem: %+v", got)
	}
}

func TestMissingBenchmarks(t *testing.T) {
	got := []Benchmark{{Name: "BenchmarkA"}, {Name: "BenchmarkB"}}
	if m := missingBenchmarks("", got); m != nil {
		t.Fatalf("empty expect list flagged %v", m)
	}
	if m := missingBenchmarks("BenchmarkA,BenchmarkB", got); m != nil {
		t.Fatalf("all present but flagged %v", m)
	}
	m := missingBenchmarks("BenchmarkA, BenchmarkC,BenchmarkD", got)
	if len(m) != 2 || m[0] != "BenchmarkC" || m[1] != "BenchmarkD" {
		t.Fatalf("missing = %v, want [BenchmarkC BenchmarkD]", m)
	}
}

func TestParseHeader(t *testing.T) {
	k, v, ok := parseHeader("cpu: AMD EPYC 7B13")
	if !ok || k != "cpu" || v != "AMD EPYC 7B13" {
		t.Fatalf("got %q=%q ok=%v", k, v, ok)
	}
	if _, _, ok := parseHeader("pkg: xok"); ok {
		t.Fatal("pkg line must not become a host key")
	}
}
