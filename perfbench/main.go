// Command perfbench runs one repetition of one benchmark workload and
// prints what it measured as a single JSON object on standard output.
//
// It is the measuring half of the repository's benchmark; run.py is the
// driving half. run.py starts fresh perfbench processes, with
// GOMAXPROCS=1 and GOGC, GOMEMLIMIT and GODEBUG unset, and aggregates
// the repetitions into medians. Run by hand:
//
//	cd perfbench && go build -o /tmp/perfbench .
//	GOMAXPROCS=1 /tmp/perfbench -workload cluster -seed 3 -phase setup
//	GOMAXPROCS=1 /tmp/perfbench -workload cluster -seed 3 -phase run
//
// A repetition is two processes. The -phase setup process boots the
// workload's machines a fixed number of times, timed in batches. The
// -phase run process makes the workload's public calls once. Every
// timed phase starts right after a forced GC. The -phase ref process
// times the host-speed reference (calib.go).
//
// Host times are process CPU seconds (see cpuNow): the process is
// single-threaded at GOMAXPROCS=1 and never blocks, so CPU time equals
// wall time on an idle host and leaves out time spent waiting for a CPU
// on a busy one. They are printed unscaled; run.py divides them by the
// reference score of -phase ref processes (calib.go).
//
// With -traced the run additionally gets a CPU profile, charged to the
// repository's packages (profile.go), and a histogram tracer where the
// entry point accepts one. End-to-end figures come only from untraced
// repetitions.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"syscall"
	"time"
	"unsafe"

	"xok/internal/sim"
)

// rep is one repetition: its inputs, its spans and what it measured.
type rep struct {
	seed   uint64
	traced bool
	spans  spanLog

	attempted int
	failed    int
	errors    []string

	// fp lists "key=value" lines describing simulated behaviour only;
	// two repetitions with the same inputs must produce the same lines.
	fp []string

	// layers holds the per-layer metrics this repetition could observe;
	// the rest are reported as notObserved.
	layers map[string]float64

	runCPU   time.Duration   // summed CPU time of the workload calls
	runWall  time.Duration   // and their wall time
	setupCPU []time.Duration // CPU time of one set-up, the mean of each batch
	paperErr float64         // error against the paper's results, in percent

	meter meterDelta
}

// notObserved marks a per-layer metric the workload's entry point does
// not expose (for example sim.Stats counters of machines that
// difftest.Fuzz boots and closes internally).
const notObserved = -1

// output is the JSON object a process prints; fields of the other phase
// are zero.
type output struct {
	Workload    string             `json:"workload"`
	Phase       string             `json:"phase"`
	Seed        uint64             `json:"seed"`
	Traced      bool               `json:"traced"`
	GoVersion   string             `json:"go_version"`
	NumCPU      int                `json:"num_cpu"`
	GOMAXPROCS  int                `json:"gomaxprocs"`
	SetupCPUS   []float64          `json:"setup_cpu_s"`
	RunCPUS     float64            `json:"run_cpu_s"`
	RunWallS    float64            `json:"run_wall_s"`
	PeakRSSMB   float64            `json:"peak_rss_mb"`
	PaperErrPct float64            `json:"paper_err_pct"`
	Attempted   int                `json:"attempted"`
	Failed      int                `json:"failed"`
	Errors      []string           `json:"errors"`
	Fingerprint string             `json:"fingerprint"`
	FPLines     []string           `json:"fingerprint_lines"`
	Layers      map[string]float64 `json:"layers"`
	Spans       []span             `json:"spans"`
	RefS        map[string]float64 `json:"ref_s"`
	RefScore    float64            `json:"ref_score"`
}

func main() {
	name := flag.String("workload", "", "workload to run: iointensive, cluster or difftest")
	seed := flag.Uint64("seed", 1, "input seed")
	phase := flag.String("phase", "", "what to measure: setup, run or ref (the host-speed reference)")
	traced := flag.Bool("traced", false, "profile the run and attach a histogram tracer")
	flag.Parse()

	w, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want one of %v)\n", *name, workloadNames())
		os.Exit(2)
	}
	r := &rep{seed: *seed, traced: *traced, layers: map[string]float64{}}
	var err error
	var refS map[string]float64
	var refScore float64
	switch *phase {
	case "ref":
		refS, refScore = measureRef()
	case "setup":
		err = w.measureSetup(r, fullSize)
	case "run":
		err = w.measureRun(r, fullSize)
	default:
		fmt.Fprintf(os.Stderr, "perfbench: -phase must be setup, run or ref, not %q\n", *phase)
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s %s: %v\n", *name, *phase, err)
		os.Exit(1)
	}
	out := output{
		Workload: *name, Phase: *phase, Seed: *seed, Traced: *traced,
		GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		SetupCPUS:   seconds(r.setupCPU),
		RunCPUS:     r.runCPU.Seconds(),
		RunWallS:    r.runWall.Seconds(),
		PeakRSSMB:   peakRSSMB(),
		PaperErrPct: r.paperErr,
		Attempted:   r.attempted, Failed: r.failed, Errors: r.errors,
		Fingerprint: fingerprint(r.fp), FPLines: r.fp,
		Layers: r.layers,
		Spans:  r.spans.spans,
		RefS:   refS, RefScore: refScore,
	}
	enc := json.NewEncoder(os.Stdout)
	if err := enc.Encode(out); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
}

func seconds(ds []time.Duration) []float64 {
	s := make([]float64, len(ds))
	for i, d := range ds {
		s[i] = d.Seconds()
	}
	return s
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// cpuNow reads the process CPU clock (user plus system time of every
// thread). Linux only.
func cpuNow() time.Duration {
	const clockProcessCPUTimeID = 2
	var ts syscall.Timespec
	if _, _, e := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockProcessCPUTimeID,
		uintptr(unsafe.Pointer(&ts)), 0); e != 0 {
		panic(fmt.Sprintf("clock_gettime(CLOCK_PROCESS_CPUTIME_ID): %v", e))
	}
	return time.Duration(ts.Nano())
}

// peakRSSMB is the process's peak resident set, in MiB: VmHWM from
// /proc/self/status. getrusage's maxrss is no use here: Linux carries it
// across execve, so a child spawned by a larger parent (run.py's
// Python) would report the parent's resident set.
func peakRSSMB() float64 {
	status, err := os.ReadFile("/proc/self/status")
	if err != nil {
		panic(err)
	}
	for _, line := range strings.Split(string(status), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kib float64
			if _, err := fmt.Sscanf(strings.TrimSpace(rest), "%g kB", &kib); err != nil {
				panic(fmt.Sprintf("parsing %q: %v", line, err))
			}
			return kib / 1024
		}
	}
	panic("no VmHWM in /proc/self/status")
}

// meterDelta is the simulation and Go-runtime activity of one or more
// workload calls: the process-wide sim meters and runtime counters,
// read before and after each call.
type meterDelta struct {
	events   int64
	cycles   sim.Time
	allocMB  float64
	mallocs  uint64
	gcCycles uint32
	gcCPU    float64 // GC CPU seconds
	totalCPU float64 // GOMAXPROCS × wall seconds, as runtime/metrics defines it
}

type meterMark struct {
	events  int64
	cycles  sim.Time
	ms      runtime.MemStats
	samples []metrics.Sample
}

var cpuMetrics = []string{"/cpu/classes/gc/total:cpu-seconds", "/cpu/classes/total:cpu-seconds"}

func markMeters() meterMark {
	m := meterMark{events: sim.EventsDispatched(), cycles: sim.CyclesSimulated()}
	runtime.ReadMemStats(&m.ms)
	m.samples = make([]metrics.Sample, len(cpuMetrics))
	for i, n := range cpuMetrics {
		m.samples[i].Name = n
	}
	metrics.Read(m.samples)
	return m
}

// add accumulates the activity since mark.
func (d *meterDelta) add(mark meterMark) {
	now := markMeters()
	d.events += now.events - mark.events
	d.cycles += now.cycles - mark.cycles
	d.allocMB += float64(now.ms.TotalAlloc-mark.ms.TotalAlloc) / (1 << 20)
	d.mallocs += now.ms.Mallocs - mark.ms.Mallocs
	d.gcCycles += now.ms.NumGC - mark.ms.NumGC
	d.gcCPU += sampleFloat(now.samples[0]) - sampleFloat(mark.samples[0])
	d.totalCPU += sampleFloat(now.samples[1]) - sampleFloat(mark.samples[1])
}

func sampleFloat(s metrics.Sample) float64 {
	if s.Value.Kind() != metrics.KindFloat64 {
		return 0
	}
	return s.Value.Float64()
}
