// Command benchjson converts `go test -bench` output on stdin into a
// stable JSON document on stdout, so benchmark baselines can be
// committed (BENCH_sim.json) and diffed in review instead of eyeballed
// in scrollback.
//
//	go test -bench=. -benchmem ./... | go run ./cmd/benchjson > BENCH_sim.json
//
// Parsed per benchmark line: the run count plus every "value unit"
// metric pair — the standard ns/op, B/op, allocs/op and any custom
// b.ReportMetric units (vsec/system, usec/call, ...). Header lines
// (goos/goarch/cpu) and the host's CPU count and GOMAXPROCS become the
// "host" block. Benchmark pairs that differ in one name part become
// "speedups" rows (see pairings). Everything else passes through to
// stderr untouched so failures stay visible in the pipe.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"regexp"
	"runtime"
	"strconv"
	"strings"
)

// Benchmark is one parsed result line.
type Benchmark struct {
	// Name has the -cpu suffix stripped: BenchmarkFoo-4 -> BenchmarkFoo.
	Name string `json:"name"`
	// Runs is b.N — how many iterations the timing averages over.
	Runs int64 `json:"runs"`
	// Metrics maps unit -> value, e.g. {"ns/op": 57.3, "allocs/op": 0}.
	Metrics map[string]float64 `json:"metrics"`
}

// Speedup is one derived base-versus-variant comparison: two
// benchmarks that run the same campaign and differ in one name part,
// paired by one of the rules in pairings.
type Speedup struct {
	// Kind names the pairing rule ("parallel", "snapshot", "wheel").
	Kind string `json:"kind"`
	// Base and Variant are the two benchmarks' names.
	Base    string `json:"base"`
	Variant string `json:"variant"`
	// Workers is the variant's worker count when its name carries one
	// (Parallel<k>); 0 means it runs on one goroutine.
	Workers int `json:"workers,omitempty"`
	// Speedup is base ns/op over variant ns/op (>1 = the variant wins).
	Speedup float64 `json:"speedup"`
	// BaseNsOp/VariantNsOp restate the inputs for review diffs.
	BaseNsOp    float64 `json:"base_ns_op"`
	VariantNsOp float64 `json:"variant_ns_op"`
	// AllocDelta* are variant minus base per campaign. Present only
	// when both sides ran with -benchmem.
	AllocDeltaBytes   *float64 `json:"alloc_delta_bytes,omitempty"`
	AllocDeltaObjects *float64 `json:"alloc_delta_objects,omitempty"`
	// IntraRun is false for campaigns whose legs cannot fan out (e.g. a
	// single cluster cell sweep: Parallel only distributes whole cells,
	// so the worker count barely moves the number). It flags rows that
	// must not be read as scaling evidence.
	IntraRun *bool `json:"intra_run,omitempty"`
	// Regression marks a speedup below 1.0 — the variant lost. `make
	// perf-sanity` refuses these rows, except concurrent ones measured
	// on a host with fewer CPUs than the variant's workers, where a
	// ratio hovering just under 1.0 is scheduler noise (see
	// perfsanity_test.go).
	Regression bool `json:"regression,omitempty"`
}

// Report is the whole document.
type Report struct {
	// Host pins the hardware/toolchain the numbers were taken on.
	Host map[string]string `json:"host"`
	// Benchmarks appear in input order.
	Benchmarks []Benchmark `json:"benchmarks"`
	// Speedups is derived from the benchmark pairs the pairing rules
	// match, in the variant side's input order.
	Speedups []Speedup `json:"speedups,omitempty"`
}

func main() {
	expect := flag.String("expect", "", "comma-separated benchmark names that must be present; any missing or unparsable one fails the run")
	flag.Parse()

	// benchjson reads the benchmarks through a pipe on the same host,
	// under the same environment, so its own runtime sees the CPU
	// count and GOMAXPROCS they ran with.
	rep := Report{Host: map[string]string{
		"num_cpu":    strconv.Itoa(runtime.NumCPU()),
		"gomaxprocs": strconv.Itoa(runtime.GOMAXPROCS(0)),
	}}
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if b, ok := parseBench(line); ok {
			rep.Benchmarks = append(rep.Benchmarks, b)
			continue
		}
		if k, v, ok := parseHeader(line); ok {
			rep.Host[k] = v
			continue
		}
		// PASS/FAIL/ok lines and test noise: keep them on stderr so a
		// failing pipeline is still diagnosable.
		fmt.Fprintln(os.Stderr, line)
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: read: %v\n", err)
		os.Exit(1)
	}
	if len(rep.Benchmarks) == 0 {
		fmt.Fprintln(os.Stderr, "benchjson: no benchmark lines on stdin")
		os.Exit(1)
	}
	if missing := missingBenchmarks(*expect, rep.Benchmarks); len(missing) > 0 {
		fmt.Fprintf(os.Stderr, "benchjson: expected benchmarks missing or unparsable: %s\n", strings.Join(missing, ", "))
		os.Exit(1)
	}
	rep.Speedups = deriveSpeedups(rep.Benchmarks)
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: write: %v\n", err)
		os.Exit(1)
	}
}

// missingBenchmarks returns the names from the comma-separated expect
// list that did not produce a parsed result line. A benchmark that
// paniced, failed, or was renamed shows up here instead of silently
// vanishing from the committed baseline.
func missingBenchmarks(expect string, got []Benchmark) []string {
	if expect == "" {
		return nil
	}
	have := make(map[string]bool, len(got))
	for _, b := range got {
		have[b.Name] = true
	}
	var missing []string
	for _, name := range strings.Split(expect, ",") {
		name = strings.TrimSpace(name)
		if name != "" && !have[name] {
			missing = append(missing, name)
		}
	}
	return missing
}

// noIntraRunParallelism names the campaigns (by their serial side)
// whose Parallel legs cannot fan out within a run — the worker pool
// only distributes whole independent sub-runs, and this campaign has
// too few to matter (the cluster sweep is three cells, dominated by
// the largest). Their rows are kept for the record but flagged
// intra_run: false so nobody reads a ~1.0x as a regression or a ~Nx
// as scaling.
var noIntraRunParallelism = map[string]bool{
	"BenchmarkClusterSerial": true,
}

// pairings are the base-versus-variant rules: a benchmark whose name
// matches variant is paired with the benchmark named by expanding base
// against the match, when that one ran too.
var pairings = []struct {
	kind    string
	variant *regexp.Regexp
	base    string
}{
	// <X>Serial -> <X>Parallel<k>: the worker pool on versus off.
	{"parallel", regexp.MustCompile(`^(.+)Parallel\d+$`), "${1}Serial"},
	// <X><Mode> -> <X>Snapshot<Mode>: forking machines from snapshots
	// versus booting them, at the same worker count.
	{"snapshot", regexp.MustCompile(`^(.+)Snapshot(Serial|Parallel\d+)$`), "${1}${2}"},
	// <X>Heap<Case> -> <X>Wheel<Case>: the engine's timer wheel versus
	// its pure-heap reference.
	{"wheel", regexp.MustCompile(`^(.+)Wheel(.*)$`), "${1}Heap${2}"},
}

// workersRE reads the worker count out of a Parallel<k> name.
var workersRE = regexp.MustCompile(`Parallel(\d+)$`)

// deriveSpeedups applies every pairing rule to every benchmark and
// computes each pair's speedup and allocation deltas.
func deriveSpeedups(benches []Benchmark) []Speedup {
	byName := make(map[string]Benchmark, len(benches))
	for _, b := range benches {
		byName[b.Name] = b
	}
	var out []Speedup
	for _, v := range benches {
		for _, rule := range pairings {
			m := rule.variant.FindStringSubmatchIndex(v.Name)
			if m == nil {
				continue
			}
			name := string(rule.variant.ExpandString(nil, rule.base, v.Name, m))
			b, ok := byName[name]
			if !ok {
				continue
			}
			bNs, vNs := b.Metrics["ns/op"], v.Metrics["ns/op"]
			if bNs == 0 || vNs == 0 {
				continue
			}
			sp := Speedup{
				Kind:        rule.kind,
				Base:        b.Name,
				Variant:     v.Name,
				Speedup:     bNs / vNs,
				BaseNsOp:    bNs,
				VariantNsOp: vNs,
				Regression:  bNs/vNs < 1.0,
			}
			if w := workersRE.FindStringSubmatch(v.Name); w != nil {
				sp.Workers, _ = strconv.Atoi(w[1]) // \d+ always parses
			}
			if d, ok := delta(b, v, "B/op"); ok {
				sp.AllocDeltaBytes = &d
			}
			if d, ok := delta(b, v, "allocs/op"); ok {
				sp.AllocDeltaObjects = &d
			}
			if noIntraRunParallelism[b.Name] {
				f := false
				sp.IntraRun = &f
			}
			out = append(out, sp)
		}
	}
	return out
}

// delta is variant minus base for one metric both sides reported.
func delta(base, variant Benchmark, unit string) (float64, bool) {
	b, okB := base.Metrics[unit]
	v, okV := variant.Metrics[unit]
	return v - b, okB && okV
}

// parseHeader matches the `go test -bench` preamble: "goos: linux",
// "goarch: amd64", "pkg: xok", "cpu: ...". pkg is skipped — one
// report spans several packages.
func parseHeader(line string) (key, val string, ok bool) {
	for _, k := range []string{"goos", "goarch", "cpu"} {
		if rest, found := strings.CutPrefix(line, k+": "); found {
			return k, strings.TrimSpace(rest), true
		}
	}
	return "", "", false
}

// parseBench matches a result line:
//
//	BenchmarkEngineStepAfter16-4   20000000   57.3 ns/op   0 B/op   0 allocs/op
//
// i.e. name, b.N, then (value, unit) pairs.
func parseBench(line string) (Benchmark, bool) {
	f := strings.Fields(line)
	if len(f) < 4 || !strings.HasPrefix(f[0], "Benchmark") || len(f)%2 != 0 {
		return Benchmark{}, false
	}
	runs, err := strconv.ParseInt(f[1], 10, 64)
	if err != nil {
		return Benchmark{}, false
	}
	b := Benchmark{Name: f[0], Runs: runs, Metrics: map[string]float64{}}
	if i := strings.LastIndexByte(b.Name, '-'); i > 0 {
		if _, err := strconv.Atoi(b.Name[i+1:]); err == nil {
			b.Name = b.Name[:i]
		}
	}
	for i := 2; i+1 < len(f); i += 2 {
		v, err := strconv.ParseFloat(f[i], 64)
		if err != nil {
			return Benchmark{}, false
		}
		b.Metrics[f[i+1]] = v
	}
	return b, true
}
