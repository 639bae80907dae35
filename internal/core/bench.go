package core

import (
	"fmt"

	"xok/internal/httpd"
	"xok/internal/machine"
	"xok/internal/ostest"
	"xok/internal/parallel"
	"xok/internal/sim"
	"xok/internal/trace"
	"xok/internal/workload"
)

// Bench runs the paper's experiments with two orthogonal knobs the
// plain Run* functions don't expose: a trace sink and a worker count.
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
	BenchOpts
}

// BenchOpts are the cross-cutting experiment knobs — the options
// every experiment accepts without threading them positionally
// through internal/workload. The zero value is a serial, untraced
// run.
type BenchOpts struct {
	// Trace, when non-nil, collects every leg's spans, histograms and
	// counters (cmd/xok-bench feeds -trace/-hist from it).
	Trace *trace.Tracer
	// Parallel bounds the worker pool; <= 1 runs legs serially.
	// cmd/xok-bench resolves its -parallel flag (0 = one worker per
	// CPU) with parallel.Workers before setting this.
	Parallel int
}

func (b *Bench) workers() int {
	if b.Parallel <= 1 {
		return 1
	}
	return b.Parallel
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
	legs := parallel.Map(b.workers(), n, func(i int) leg[R] {
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

// Table2 measures the three pipe implementations of Table 2.
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
