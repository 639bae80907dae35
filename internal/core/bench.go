// Package core is the experiment runner of the exokernel
// reproduction: Bench runs every experiment of the paper's evaluation
// — Figure 2 / Table 1 (the I/O-intensive workload), the Modified
// Andrew Benchmark, the Section 6.3 cost-of-protection measurement,
// Table 2 (pipe latencies), the Section 7.1 emulator and 7.2 XCP
// results, Figure 3 (HTTP throughput), Figures 4 and 5 (global
// performance) and the cluster cells — each as a set of machines
// booted with machine.New and closed when measured.
//
// cmd/xok-bench and the root benchmarks are built on this package;
// each experiment returns plain result structs so callers can format
// or assert on them.
package core

import (
	"fmt"

	"xok/internal/emu"
	"xok/internal/exos"
	"xok/internal/httpd"
	"xok/internal/machine"
	"xok/internal/ostest"
	"xok/internal/parallel"
	"xok/internal/sim"
	"xok/internal/trace"
	"xok/internal/unix"
	"xok/internal/workload"
)

// Bench runs the paper's experiments with two cross-cutting knobs: a
// trace sink and a worker count. The zero value is a serial, untraced
// run.
//
// Every experiment decomposes into independent "legs" — one simulated
// machine booted, run and measured in isolation (a Figure-2 system, a
// Table-2 pipe implementation, one server×size cell of Figure 3, one
// system of a Figure 4/5 cell). Legs run on up to Parallel worker
// goroutines; each leg gets its own trace.Tracer, merged into Trace in
// presentation order after all legs finish. Results, table order, and
// the trace sink's digest are therefore identical at every Parallel
// setting, including 1 (which takes internal/parallel's no-goroutine
// serial path).
type Bench struct {
	// Trace, when non-nil, collects every leg's spans, histograms and
	// counters (cmd/xok-bench feeds -trace/-hist from it).
	Trace *trace.Tracer
	// Parallel bounds the worker pool; <= 1 runs legs serially.
	// cmd/xok-bench resolves its -parallel flag (0 = one worker per
	// CPU) with parallel.Workers before setting this.
	Parallel int
}

type leg[R any] struct {
	res R
	tr  *trace.Tracer
	err error
}

// runLegs fans run(0..n-1) across the bench's worker pool. Each leg
// receives a private tracer (nil when the bench has no sink); legs
// merge into b.Trace in index order. The first failing index aborts
// with its error, matching a serial loop.
func runLegs[R any](b *Bench, n int, run func(i int, tr *trace.Tracer) (R, error)) ([]R, error) {
	legs := parallel.Map(b.Parallel, n, func(i int) leg[R] {
		var tr *trace.Tracer
		if b.Trace != nil {
			tr = trace.New()
		}
		r, err := run(i, tr)
		return leg[R]{r, tr, err}
	})
	out := make([]R, 0, n)
	for _, l := range legs {
		if l.err != nil {
			return nil, l.err
		}
		b.Trace.Merge(l.tr)
		out = append(out, l.res)
	}
	return out, nil
}

// Figure2 executes the I/O-intensive lcc-install workload (Table 1)
// on the four systems of Figure 2, in the paper's order.
func (b *Bench) Figure2() ([]workload.IOResult, error) {
	cfgs := workload.SystemConfigs()
	return runLegs(b, len(cfgs), func(i int, tr *trace.Tracer) (workload.IOResult, error) {
		cfg := cfgs[i]
		cfg.Trace = tr
		m := machine.MustNew(cfg)
		defer m.Close()
		return workload.IOIntensive(m)
	})
}

// MAB executes the Modified Andrew Benchmark on the four systems.
func (b *Bench) MAB() ([]workload.MABResult, error) {
	cfgs := workload.SystemConfigs()
	return runLegs(b, len(cfgs), func(i int, tr *trace.Tracer) (workload.MABResult, error) {
		cfg := cfgs[i]
		cfg.Trace = tr
		m := machine.MustNew(cfg)
		defer m.Close()
		return workload.MAB(m)
	})
}

// ProtectionCost executes the Section 6.3 experiment: the I/O workload
// with and without XN + shared-state protection. The two
// configurations are independent machines, so they run as two legs.
func (b *Bench) ProtectionCost() (workload.ProtectionResult, error) {
	cfgs := []machine.Config{
		{Personality: machine.XokExOS},
		{Personality: machine.XokUnprotected},
	}
	rs, err := runLegs(b, len(cfgs), func(i int, tr *trace.Tracer) (workload.IOResult, error) {
		cfg := cfgs[i]
		cfg.Trace = tr
		m := machine.MustNew(cfg)
		defer m.Close()
		return workload.IOIntensive(m)
	})
	if err != nil {
		return workload.ProtectionResult{}, err
	}
	return workload.ProtectionResult{WithProtection: rs[0], WithoutProtection: rs[1]}, nil
}

// Table2Row is one pipe implementation's latencies.
type Table2Row struct {
	Impl   string
	Lat1B  sim.Time
	Lat8KB sim.Time
}

// Table2 measures the three pipe implementations of Table 2:
// shared-memory ExOS pipes, protected ExOS pipes (software regions +
// wakeup predicates), and OpenBSD's in-kernel pipes.
func (b *Bench) Table2() ([]Table2Row, error) {
	const rounds = 200
	specs := []struct {
		impl string
		cfg  machine.Config
	}{
		{"Shared memory", machine.Config{Personality: machine.XokExOS, SharedMemPipes: true}},
		{"Protection", machine.Config{Personality: machine.XokExOS}},
		{"OpenBSD", machine.Config{Personality: machine.OpenBSD}},
	}
	return runLegs(b, len(specs), func(i int, tr *trace.Tracer) (Table2Row, error) {
		cfg := specs[i].cfg
		cfg.Trace = tr
		m := machine.MustNew(cfg)
		defer m.Close()
		run := machine.Runner(m)
		row := Table2Row{
			Impl:   specs[i].impl,
			Lat1B:  ostest.PipeLatency(run, 1, rounds),
			Lat8KB: ostest.PipeLatency(run, 8192, rounds),
		}
		if row.Lat1B == 0 || row.Lat8KB == 0 {
			return row, fmt.Errorf("core: pipe measurement failed for %s", row.Impl)
		}
		return row, nil
	})
}

// EmulatorResult is Section 7.1's getpid cost, in cycles per call.
type EmulatorResult struct {
	// Native is OpenBSD's getpid: a real kernel crossing.
	Native sim.Time
	// Emulated is the same call from an OpenBSD binary under the Xok
	// emulator: an INT reroute plus a procedure call into ExOS.
	Emulated sim.Time
}

// Emulator measures getpid natively on OpenBSD and emulated on
// Xok/ExOS through internal/emu, both with ostest.GetpidCost.
func (b *Bench) Emulator() (EmulatorResult, error) {
	cfgs := []machine.Config{
		{Personality: machine.XokExOS},
		{Personality: machine.OpenBSD},
	}
	rs, err := runLegs(b, len(cfgs), func(i int, tr *trace.Tracer) (sim.Time, error) {
		cfg := cfgs[i]
		cfg.Trace = tr
		m := machine.MustNew(cfg)
		defer m.Close()
		run := machine.Runner(m)
		if cfg.Personality == machine.XokExOS {
			direct := run
			run = func(main func(unix.Proc)) {
				direct(func(p unix.Proc) { main(emu.Emulate(p.(*exos.Proc))) })
			}
		}
		return ostest.GetpidCost(run), nil
	})
	if err != nil {
		return EmulatorResult{}, err
	}
	return EmulatorResult{Native: rs[1], Emulated: rs[0]}, nil
}

// XCPRow is one row of the Section 7.2 comparison: the copy time of
// cp and of XCP over the same staged files.
type XCPRow struct {
	// Cold is true when the copy starts with every block evicted (on
	// disk), false when the files are cached (in core).
	Cold    bool
	Cp, XCP sim.Time
}

// XCP runs the Section 7.2 comparison, in core then on disk. Each of
// its four legs (two rows × cp/XCP) copies on its own freshly staged
// Xok/ExOS machine (workload.XCPCopy).
func (b *Bench) XCP() ([]XCPRow, error) {
	ts, err := runLegs(b, 4, func(i int, tr *trace.Tracer) (sim.Time, error) {
		m := machine.MustNew(machine.Config{Personality: machine.XokExOS, Trace: tr})
		defer m.Close()
		return workload.XCPCopy(m, i >= 2, i%2 == 1)
	})
	if err != nil {
		return nil, err
	}
	return []XCPRow{{Cold: false, Cp: ts[0], XCP: ts[1]}, {Cold: true, Cp: ts[2], XCP: ts[3]}}, nil
}

// Figure3 measures HTTP throughput for all five servers across the
// document sizes of Figure 3 — 25 independent server×size cells.
func (b *Bench) Figure3(clients int, duration sim.Time) ([]httpd.Result, error) {
	if clients == 0 {
		clients = 24
	}
	if duration == 0 {
		duration = 300 * sim.Millisecond
	}
	kinds := httpd.Kinds()
	sizes := httpd.Figure3Sizes
	return runLegs(b, len(kinds)*len(sizes), func(i int, tr *trace.Tracer) (httpd.Result, error) {
		kind, size := kinds[i/len(sizes)], sizes[i%len(sizes)]
		r, err := httpd.Measure(kind, size, httpd.Opts{Clients: clients, Duration: duration, Trace: tr})
		if err != nil {
			return r, fmt.Errorf("%v@%d: %w", kind, size, err)
		}
		return r, nil
	})
}

// Cluster runs the topology-aware cluster cells — each cell boots its
// own fabric and machines, so cells are independent legs. Results and
// the merged latency digests are identical at every Parallel setting.
func (b *Bench) Cluster(cells []workload.ClusterConfig) ([]workload.ClusterResult, error) {
	return runLegs(b, len(cells), func(i int, tr *trace.Tracer) (workload.ClusterResult, error) {
		cfg := cells[i]
		cfg.Trace = tr
		return workload.Cluster(cfg)
	})
}

// GlobalCell is one number/number cell of Figures 4 and 5.
type GlobalCell struct {
	TotalJobs int
	MaxConc   int
}

// Figure45Cells are the paper's five cells: 7/1 .. 35/5.
func Figure45Cells() []GlobalCell {
	return []GlobalCell{{7, 1}, {14, 2}, {21, 3}, {28, 4}, {35, 5}}
}

// GlobalSweep runs the Figure 4/5 cells on both Xok/ExOS and FreeBSD
// with the identical seed — 2×len(cells) legs. Row i of the result is
// {Xok/ExOS, FreeBSD} for cells[i].
func (b *Bench) GlobalSweep(pool []workload.JobKind, cells []GlobalCell, seed uint64) ([][2]workload.GlobalResult, error) {
	rs, err := runLegs(b, 2*len(cells), func(i int, tr *trace.Tracer) (workload.GlobalResult, error) {
		cell := cells[i/2]
		cfg := machine.Config{Personality: machine.XokExOS}
		if i%2 == 1 {
			cfg.Personality = machine.FreeBSD
		}
		cfg.Trace = tr
		m := machine.MustNew(cfg)
		defer m.Close()
		return workload.GlobalPerf(m, pool, cell.TotalJobs, cell.MaxConc, seed)
	})
	if err != nil {
		return nil, err
	}
	out := make([][2]workload.GlobalResult, len(cells))
	for i := range cells {
		out[i] = [2]workload.GlobalResult{rs[2*i], rs[2*i+1]}
	}
	return out, nil
}
