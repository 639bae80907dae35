// xok-bench regenerates every table and figure from the paper's
// evaluation as formatted text tables, with the published values shown
// alongside for comparison.
//
// Usage:
//
//	xok-bench                  # run everything
//	xok-bench -run figure2     # one experiment: figure2, mab,
//	                           # protection, table2, figure3, figure4,
//	                           # figure5, emulator, xcp, crash
//	xok-bench -full            # full-size Figures 4/5 (7/1 .. 35/5)
//
// Fault injection (internal/fault):
//
//	xok-bench -run crash                   # crash-point enumeration,
//	                                       # default plan (seed 1, torn
//	                                       # writes)
//	xok-bench -run crash -faults 42:torn   # same sweep, custom plan
//
// Observability (internal/trace):
//
//	xok-bench -run figure2 -trace out.json   # Chrome trace_event
//	                                         # timeline (load it in
//	                                         # ui.perfetto.dev)
//	xok-bench -run figure3 -hist             # p50/p90/p99 latency
//	                                         # histograms per machine
//
// Differential syscall fuzzing (internal/difftest):
//
//	xok-bench -run difftest -seeds 500          # 500 random programs on
//	                                            # every personality,
//	                                            # cross-compared
//	xok-bench -run difftest -seeds 100 \
//	          -faults 42:kill=60,killenv=fuzz   # determinism mode: each
//	                                            # program twice per
//	                                            # personality under the
//	                                            # cloned plan
//	xok-bench -run difftest -replay 452:40:all  # re-run one replay token
//	                                            # bit-identically
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"time"

	"xok/internal/core"
	"xok/internal/difftest"
	"xok/internal/fault"
	"xok/internal/parallel"
	"xok/internal/sim"
	"xok/internal/trace"
	"xok/internal/workload"
)

var (
	runFlag      = flag.String("run", "all", "experiment to run (all, figure2, mab, protection, table2, figure3, figure4, figure5, emulator, xcp, crash, difftest, cluster)")
	fullFlag     = flag.Bool("full", false, "run Figures 4/5 at full size (35 jobs); slower")
	traceFlag    = flag.String("trace", "", "write a Chrome trace_event JSON timeline of every simulated machine to this file")
	histFlag     = flag.Bool("hist", false, "print per-machine latency histograms (p50/p90/p99) after the experiments")
	faultsFlag   = flag.String("faults", "", "fault plan as seed[:spec], e.g. 42:torn,loss=50 (see internal/fault); used by -run crash and -run difftest")
	seedsFlag    = flag.Int("seeds", 200, "difftest: number of generated programs")
	stepsFlag    = flag.Int("steps", 60, "difftest: syscalls per generated program")
	baseFlag     = flag.Uint64("base", 1, "difftest: first seed (seed i = base+i)")
	replayFlag   = flag.String("replay", "", "difftest: replay one seed:steps:keep token instead of fuzzing")
	parallelFlag = flag.Int("parallel", 0, "worker count for independent simulated machines (0 = one per CPU, 1 = serial); stdout is byte-identical at any setting")
	serversFlag  = flag.Int("servers", 4, "cluster: backend machine count")
	connsFlag    = flag.Int("conns", 2000, "cluster: open-loop connection arrivals per cell")
	rateFlag     = flag.Float64("rate", 0, "cluster: offered arrivals per virtual second (0 = default)")
)

// bench carries the shared experiment knobs: the optional trace sink
// (fed by per-leg tracers, merged in presentation order) and the
// resolved worker count.
var bench core.Bench

func main() {
	flag.Parse()
	bench.Parallel = parallel.Workers(*parallelFlag)
	var tr *trace.Tracer
	if *traceFlag != "" || *histFlag {
		tr = trace.New()
		bench.Trace = tr
	}
	defer dumpTrace(tr)
	if *runFlag == "all" {
		for _, name := range order {
			timed(name, experiments[name])
		}
		return
	}
	fn, ok := experiments[*runFlag]
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown experiment %q; choose from %s\n",
			*runFlag, strings.Join(order, ", "))
		os.Exit(2)
	}
	timed(*runFlag, fn)
}

// experiments maps each -run name to its experiment; order is the
// order -run all runs them in.
var (
	experiments = map[string]func(){
		"figure2":    figure2,
		"mab":        mab,
		"protection": protection,
		"table2":     table2,
		"figure3":    figure3,
		"figure4":    func() { globalPerf("Figure 4 (pool 1)", workload.Pool1()) },
		"figure5":    func() { globalPerf("Figure 5 (pool 2)", workload.Pool2()) },
		"emulator":   emulator,
		"xcp":        xcp,
		"crash":      crash,
		"difftest":   diffFuzz,
		"cluster":    cluster,
	}
	order = []string{"figure2", "mab", "protection", "table2", "emulator", "xcp", "crash", "difftest", "figure3", "figure4", "figure5", "cluster"}
)

// timed wraps one experiment with a wall-clock summary: host seconds
// spent, virtual cycles simulated, and engine events dispatched with
// their per-host-second rate (summed across every machine the
// experiment ran, on all workers). Events-per-host-second is the
// simulator-throughput number an event-engine change actually moves. The line goes to stderr so stdout —
// the tables — stays byte-identical across runs and -parallel values.
func timed(name string, fn func()) {
	hostStart := time.Now()
	simStart := sim.CyclesSimulated()
	evStart := sim.EventsDispatched()
	fn()
	secs := time.Since(hostStart).Seconds()
	events := sim.EventsDispatched() - evStart
	rate := 0.0
	if secs > 0 {
		rate = float64(events) / secs
	}
	fmt.Fprintf(os.Stderr, "# %-10s %8.2fs host, %d cycles simulated, %d events (%.0f/s host)\n",
		name, secs, sim.CyclesSimulated()-simStart, events, rate)
}

// dumpTrace flushes the tracer's output after the experiments: the
// Chrome trace_event JSON timeline to -trace's file, the latency
// histogram report to stdout for -hist.
func dumpTrace(tr *trace.Tracer) {
	if tr == nil {
		return
	}
	if *traceFlag != "" {
		f, err := os.Create(*traceFlag)
		if err != nil {
			log.Fatal(err)
		}
		if err := tr.WriteChromeTrace(f); err != nil {
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\nwrote %d trace events to %s (open in ui.perfetto.dev or chrome://tracing)\n",
			tr.Events(), *traceFlag)
		if d := tr.Dropped(); d > 0 {
			fmt.Printf("note: %d events dropped past the %d-event cap; histograms stay exact\n",
				d, trace.MaxEvents)
		}
	}
	if *histFlag {
		fmt.Println()
		if err := tr.WriteHistReport(os.Stdout); err != nil {
			log.Fatal(err)
		}
	}
}

func header(title string) {
	fmt.Println()
	fmt.Println(title)
	fmt.Println(strings.Repeat("=", len(title)))
}

func figure2() {
	header("Figure 2 / Table 1 — I/O-intensive workload (lcc install)")
	fmt.Println("paper totals: Xok/ExOS 41s, OpenBSD/C-FFS 51s, OpenBSD 60s, FreeBSD 59s")
	results, err := bench.Figure2()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n%-28s", "step")
	for _, r := range results {
		fmt.Printf(" %14s", r.System)
	}
	fmt.Println()
	for i := range results[0].Steps {
		fmt.Printf("%-28s", results[0].Steps[i].Name)
		for _, r := range results {
			fmt.Printf(" %14v", r.Steps[i].Elapsed)
		}
		fmt.Println()
	}
	fmt.Printf("%-28s", "TOTAL")
	for _, r := range results {
		fmt.Printf(" %14v", r.Total)
	}
	fmt.Println()
}

func mab() {
	header("Modified Andrew Benchmark (Section 6.2)")
	fmt.Println("paper totals: Xok/ExOS 11.5s, OpenBSD/C-FFS 12.5s, OpenBSD 14.2s, FreeBSD 11.5s")
	results, err := bench.MAB()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n%-12s", "phase")
	for _, r := range results {
		fmt.Printf(" %14s", r.System)
	}
	fmt.Println()
	for i := range results[0].Phases {
		fmt.Printf("%-12s", results[0].Phases[i].Name)
		for _, r := range results {
			fmt.Printf(" %14v", r.Phases[i].Elapsed)
		}
		fmt.Println()
	}
	fmt.Printf("%-12s", "TOTAL")
	for _, r := range results {
		fmt.Printf(" %14v", r.Total)
	}
	fmt.Println()
}

func protection() {
	header("Cost of protection (Section 6.3)")
	fmt.Println("paper: 41.1s -> 39.7s; system calls 300,000 -> 81,000")
	res, err := bench.ProtectionCost()
	if err != nil {
		log.Fatal(err)
	}
	w, wo := res.WithProtection, res.WithoutProtection
	fmt.Printf("\n%-22s %12s %12s %12s\n", "configuration", "total", "syscalls", "prot calls")
	fmt.Printf("%-22s %12v %12d %12d\n", "XN + protection", w.Total, w.Syscalls, w.ProtCalls)
	fmt.Printf("%-22s %12v %12d %12d\n", "no XN, no protection", wo.Total, wo.Syscalls, wo.ProtCalls)
	fmt.Printf("\noverhead: %.1f%% of runtime\n",
		100*float64(w.Total-wo.Total)/float64(wo.Total))
}

func table2() {
	header("Table 2 — pipe latency (microseconds)")
	fmt.Println("paper: shared 13/150, protection 30/148, OpenBSD 34/160 (1B / 8KB)")
	rows, err := bench.Table2()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n%-16s %12s %12s\n", "implementation", "1 byte", "8 KB")
	for _, r := range rows {
		fmt.Printf("%-16s %10.1fus %10.1fus\n", r.Impl, r.Lat1B.Micros(), r.Lat8KB.Micros())
	}
}

func figure3() {
	header("Figure 3 — HTTP document throughput (requests/second)")
	fmt.Println("paper: Cheetah up to 8x the best BSD server; 29.3 MB/s at 100KB (network-limited)")
	results, err := bench.Figure3(24, 300*sim.Millisecond)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n%-12s %10s %12s %10s %9s\n", "server", "doc size", "req/s", "MB/s", "CPU idle")
	last := ""
	for _, r := range results {
		if r.Server != last {
			if last != "" {
				fmt.Println()
			}
			last = r.Server
		}
		fmt.Printf("%-12s %9dB %12.0f %10.2f %8.0f%%\n",
			r.Server, r.DocSize, r.ReqPerSec, r.MBytesPerS, r.CPUIdle*100)
	}
}

func globalPerf(title string, pool []workload.JobKind) {
	header(title + " — global performance under multitasking (Section 8)")
	fmt.Println("paper: Xok/ExOS roughly comparable to FreeBSD; advantage grows with concurrency on pool 2")
	cells := core.Figure45Cells()
	if !*fullFlag {
		cells = cells[:3]
		fmt.Println("(scaled to 7/1..21/3; use -full for 35/5)")
	}
	fmt.Printf("\n%-8s %28s %28s\n", "", "Xok/ExOS", "FreeBSD")
	fmt.Printf("%-8s %10s %8s %8s %10s %8s %8s\n",
		"jobs/conc", "total", "max", "min", "total", "max", "min")
	rows, err := bench.GlobalSweep(pool, cells, 1234)
	if err != nil {
		log.Fatal(err)
	}
	for i, cell := range cells {
		x, f := rows[i][0], rows[i][1]
		fmt.Printf("%3d/%-4d %10v %8v %8v %10v %8v %8v\n",
			cell.TotalJobs, cell.MaxConc,
			x.Total, x.Max, x.Min, f.Total, f.Max, f.Min)
	}
}

func emulator() {
	header("OpenBSD binary emulation (Section 7.1)")
	fmt.Println("paper: getpid 270 cycles on OpenBSD, 100 cycles emulated on Xok/ExOS")
	res, err := bench.Emulator()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ngetpid: native OpenBSD %d cycles, emulated on Xok/ExOS %d cycles\n",
		res.Native, res.Emulated)
}

func diffFuzz() {
	header("Differential syscall fuzzing (internal/difftest)")
	opt := difftest.Options{
		Seeds:    *seedsFlag,
		Steps:    *stepsFlag,
		BaseSeed: *baseFlag,
		Log:      os.Stdout,
		Parallel: bench.Parallel,
		Snapshot: true,
	}
	if *faultsFlag != "" {
		plan, err := fault.Parse(*faultsFlag)
		if err != nil {
			log.Fatal(err)
		}
		opt.Faults = plan
		fmt.Printf("mode: determinism (each program twice per personality, plan %s)\n", plan)
	} else {
		fmt.Println("mode: differential (every personality vs every other)")
	}

	if *replayFlag != "" {
		prog, err := difftest.Program(*replayFlag)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("replaying %s:\n%s", *replayFlag, prog)
		div, err := difftest.Replay(*replayFlag, opt)
		if err != nil {
			log.Fatal(err)
		}
		if div != nil {
			fmt.Printf("\nSTILL DIVERGES\n%v\n", div)
			os.Exit(1)
		}
		fmt.Println("\nclean: all personalities agree on this program")
		return
	}

	fmt.Printf("programs: %d x %d syscalls (seeds %d..%d)\n",
		opt.Seeds, opt.Steps, opt.BaseSeed, opt.BaseSeed+uint64(opt.Seeds)-1)
	div, err := difftest.Fuzz(opt)
	if err != nil {
		log.Fatal(err)
	}
	if div != nil {
		prog, _ := difftest.Program(div.Token)
		fmt.Printf("\nDIVERGENCE (shrunk to %d calls)\n%v\nprogram:\n%s", len(div.Keep), div, prog)
		os.Exit(1)
	}
	fmt.Printf("\nclean: zero divergences across %d programs\n", opt.Seeds)
}

func cluster() {
	header("Cluster — N-machine HTTP serving, open-loop load (topology fabric)")
	fmt.Println("Socket/Xok servers behind a balancer; tail latency from internal/trace")
	cells := workload.ClusterCells(*serversFlag, *connsFlag, *rateFlag)
	rs, err := bench.Cluster(cells)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println()
	workload.WriteClusterReport(os.Stdout, rs)
}

func crash() {
	header("Crash-point enumeration (Section 4.4 recovery)")
	fmt.Println("paper: XN's reachability scan rebuilds the free map after any crash;")
	fmt.Println("C-FFS metadata stays consistent without ordered cleanup")
	cfg := workload.CrashConfig{Parallel: bench.Parallel}
	if *faultsFlag != "" {
		plan, err := fault.Parse(*faultsFlag)
		if err != nil {
			log.Fatal(err)
		}
		cfg.Plan = plan
	}
	res, err := workload.CrashEnumerate(cfg)
	if err != nil {
		log.Fatal(err)
	}
	plan := cfg.Plan
	if plan == nil {
		plan = &fault.Plan{Seed: 1, TornWrites: true}
	}
	fmt.Printf("\nfault plan:                %s\n", plan)
	fmt.Printf("write boundaries observed: %d\n", res.Boundaries)
	fmt.Printf("crash points tested:       %d\n", len(res.Points))
	fmt.Printf("recovered clean:           %d/%d\n", len(res.Points)-res.Violations(), len(res.Points))
	for _, pt := range res.Points {
		for _, v := range pt.Violations {
			fmt.Printf("  crash@%v: %s\n", pt.At, v)
		}
	}
	fmt.Printf("outcome digest:            %016x (same seed => same digest)\n", res.Digest)
}

func xcp() {
	header("XCP zero-touch copy (Section 7.2)")
	fmt.Println("paper: XCP is ~3x faster than cp, in core and on disk")
	rows, err := bench.XCP()
	if err != nil {
		log.Fatal(err)
	}
	for _, r := range rows {
		label := "in core"
		if r.Cold {
			label = "on disk"
		}
		fmt.Printf("%-10s cp=%10v  xcp=%10v  speedup %.1fx\n",
			label, r.Cp, r.XCP, float64(r.Cp)/float64(r.XCP))
	}
}
