// Package xok's root benchmark harness: one testing.B benchmark per
// table and figure in the paper's evaluation. Each benchmark runs the
// full experiment and reports the measured *virtual* quantities via
// b.ReportMetric — the wall-clock ns/op of the simulation itself is
// incidental. Run with:
//
//	go test -bench=. -benchmem
//
// cmd/xok-bench prints the same experiments as formatted tables, and
// EXPERIMENTS.md records paper-vs-measured values.
package xok

import (
	"fmt"
	"testing"

	"xok/internal/core"
	"xok/internal/httpd"
	"xok/internal/machine"
	"xok/internal/ostest"
	"xok/internal/sim"
	"xok/internal/workload"
)

// BenchmarkFigure2_IOIntensive regenerates Figure 2 / Table 1: the
// lcc-install workload on the four systems. Reported metric:
// virtual seconds of total workload time per system.
func BenchmarkFigure2_IOIntensive(b *testing.B) {
	names := []string{"Xok-ExOS", "OpenBSD-CFFS", "OpenBSD", "FreeBSD"}
	for k, cfg := range workload.SystemConfigs() {
		b.Run(names[k], func(b *testing.B) {
			var total sim.Time
			for i := 0; i < b.N; i++ {
				m := machine.MustNew(cfg)
				res, err := workload.IOIntensive(m)
				m.Close()
				if err != nil {
					b.Fatal(err)
				}
				total = res.Total
			}
			b.ReportMetric(total.Seconds(), "vsec/run")
		})
	}
}

// xokAndFreeBSD are the two systems of the MAB and Figure 4/5
// benchmarks.
var xokAndFreeBSD = []struct {
	name string
	cfg  machine.Config
}{
	{"Xok-ExOS", machine.Config{Personality: machine.XokExOS}},
	{"FreeBSD", machine.Config{Personality: machine.FreeBSD}},
}

// BenchmarkMAB regenerates the Modified Andrew Benchmark totals.
func BenchmarkMAB(b *testing.B) {
	for _, s := range xokAndFreeBSD {
		b.Run(s.name, func(b *testing.B) {
			var total sim.Time
			for i := 0; i < b.N; i++ {
				m := machine.MustNew(s.cfg)
				res, err := workload.MAB(m)
				m.Close()
				if err != nil {
					b.Fatal(err)
				}
				total = res.Total
			}
			b.ReportMetric(total.Seconds(), "vsec/run")
		})
	}
}

// BenchmarkProtectionCost regenerates Section 6.3: runtime and
// syscall-count deltas between protected and unprotected Xok/ExOS.
func BenchmarkProtectionCost(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := (&core.Bench{}).ProtectionCost()
		if err != nil {
			b.Fatal(err)
		}
		w, wo := res.WithProtection, res.WithoutProtection
		b.ReportMetric(w.Total.Seconds(), "vsec-protected")
		b.ReportMetric(wo.Total.Seconds(), "vsec-unprotected")
		b.ReportMetric(float64(w.Syscalls), "syscalls-protected")
		b.ReportMetric(float64(wo.Syscalls), "syscalls-unprotected")
	}
}

// BenchmarkTable2_Pipes regenerates Table 2: pipe latencies for the
// three implementations at 1 byte and 8 KB.
func BenchmarkTable2_Pipes(b *testing.B) {
	impls := []struct {
		name string
		cfg  machine.Config
	}{
		{"SharedMemory", machine.Config{Personality: machine.XokExOS, SharedMemPipes: true}},
		{"Protection", machine.Config{Personality: machine.XokExOS}},
		{"OpenBSD", machine.Config{Personality: machine.OpenBSD}},
	}
	for _, impl := range impls {
		for _, size := range []int{1, 8192} {
			b.Run(fmt.Sprintf("%s/%dB", impl.name, size), func(b *testing.B) {
				var lat sim.Time
				for i := 0; i < b.N; i++ {
					m := machine.MustNew(impl.cfg)
					lat = ostest.PipeLatency(machine.Runner(m), size, 100)
					m.Close()
				}
				b.ReportMetric(lat.Micros(), "vus/transfer")
			})
		}
	}
}

// BenchmarkEmulatorGetpid regenerates Section 7.1: the trivial system
// call natively on OpenBSD vs emulated on Xok/ExOS.
func BenchmarkEmulatorGetpid(b *testing.B) {
	var res core.EmulatorResult
	for i := 0; i < b.N; i++ {
		var err error
		if res, err = (&core.Bench{}).Emulator(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(res.Native), "vcycles-native")
	b.ReportMetric(float64(res.Emulated), "vcycles-emulated")
}

// BenchmarkXCP regenerates Section 7.2: cp vs XCP, in core and on
// disk.
func BenchmarkXCP(b *testing.B) {
	var rows []core.XCPRow
	for i := 0; i < b.N; i++ {
		var err error
		if rows, err = (&core.Bench{}).XCP(); err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		unit := "cp/xcp-incore"
		if r.Cold {
			unit = "cp/xcp-ondisk"
		}
		b.ReportMetric(float64(r.Cp)/float64(r.XCP), unit)
	}
}

// BenchmarkFigure3_HTTP regenerates Figure 3 at two representative
// sizes for every server. Metric: virtual requests/second.
func BenchmarkFigure3_HTTP(b *testing.B) {
	for _, kind := range httpd.Kinds() {
		for _, size := range []int{1024, 102400} {
			b.Run(fmt.Sprintf("%s/%dB", kind, size), func(b *testing.B) {
				var rps, mbps float64
				for i := 0; i < b.N; i++ {
					r, err := httpd.Measure(kind, size, httpd.Opts{Clients: 24, Duration: 200 * sim.Millisecond})
					if err != nil {
						b.Fatal(err)
					}
					rps, mbps = r.ReqPerSec, r.MBytesPerS
				}
				b.ReportMetric(rps, "vreq/vsec")
				b.ReportMetric(mbps, "vMB/vsec")
			})
		}
	}
}

// BenchmarkFigure4_GlobalPool1 regenerates a Figure 4 cell (14 jobs,
// concurrency 2) on Xok/ExOS and FreeBSD.
func BenchmarkFigure4_GlobalPool1(b *testing.B) {
	benchGlobal(b, workload.Pool1())
}

// BenchmarkFigure5_GlobalPool2 regenerates a Figure 5 cell on the
// pool with C-FFS-favoured jobs.
func BenchmarkFigure5_GlobalPool2(b *testing.B) {
	benchGlobal(b, workload.Pool2())
}

func benchGlobal(b *testing.B, pool []workload.JobKind) {
	for _, s := range xokAndFreeBSD {
		b.Run(s.name, func(b *testing.B) {
			var res workload.GlobalResult
			for i := 0; i < b.N; i++ {
				m := machine.MustNew(s.cfg)
				var err error
				res, err = workload.GlobalPerf(m, pool, 14, 2, 1234)
				m.Close()
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(res.Total.Seconds(), "vsec-total")
			b.ReportMetric(res.Max.Seconds(), "vsec-maxlat")
			b.ReportMetric(res.Min.Seconds(), "vsec-minlat")
		})
	}
}
