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

	"xok/internal/apps"
	"xok/internal/bsdos"
	"xok/internal/cap"
	"xok/internal/core"
	"xok/internal/exos"
	"xok/internal/httpd"
	"xok/internal/kernel"
	"xok/internal/machine"
	"xok/internal/ostest"
	"xok/internal/sim"
	"xok/internal/unix"
	"xok/internal/workload"
)

// BenchmarkFigure2_IOIntensive regenerates Figure 2 / Table 1: the
// lcc-install workload on the four systems. Reported metric:
// virtual seconds of total workload time per system.
func BenchmarkFigure2_IOIntensive(b *testing.B) {
	systems := []struct {
		name string
		mk   func() workload.Machine
	}{
		{"Xok-ExOS", workload.NewXok},
		{"OpenBSD-CFFS", func() workload.Machine { return workload.NewBSD(bsdos.OpenBSDCFFS) }},
		{"OpenBSD", func() workload.Machine { return workload.NewBSD(bsdos.OpenBSD) }},
		{"FreeBSD", func() workload.Machine { return workload.NewBSD(bsdos.FreeBSD) }},
	}
	for _, s := range systems {
		b.Run(s.name, func(b *testing.B) {
			var total sim.Time
			for i := 0; i < b.N; i++ {
				m := s.mk()
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

// BenchmarkMAB regenerates the Modified Andrew Benchmark totals.
func BenchmarkMAB(b *testing.B) {
	systems := []struct {
		name string
		mk   func() workload.Machine
	}{
		{"Xok-ExOS", workload.NewXok},
		{"FreeBSD", func() workload.Machine { return workload.NewBSD(bsdos.FreeBSD) }},
	}
	for _, s := range systems {
		b.Run(s.name, func(b *testing.B) {
			var total sim.Time
			for i := 0; i < b.N; i++ {
				m := s.mk()
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
		res, err := workload.ProtectionCost()
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
		run  func() ostest.RunFunc
	}{
		{"SharedMemory", func() ostest.RunFunc {
			return machine.Runner(machine.MustNew(machine.Config{
				Personality: machine.XokExOS, SharedMemPipes: true}))
		}},
		{"Protection", func() ostest.RunFunc {
			return machine.Runner(machine.MustNew(machine.Config{Personality: machine.XokExOS}))
		}},
		{"OpenBSD", func() ostest.RunFunc {
			return machine.Runner(machine.MustNew(machine.Config{Personality: machine.OpenBSD}))
		}},
	}
	for _, impl := range impls {
		for _, size := range []int{1, 8192} {
			b.Run(fmt.Sprintf("%s/%dB", impl.name, size), func(b *testing.B) {
				var lat sim.Time
				for i := 0; i < b.N; i++ {
					lat = ostest.PipeLatency(impl.run(), size, 100)
				}
				b.ReportMetric(lat.Micros(), "vus/transfer")
			})
		}
	}
}

// BenchmarkEmulatorGetpid regenerates Section 7.1: the trivial system
// call natively on OpenBSD vs emulated on Xok/ExOS.
func BenchmarkEmulatorGetpid(b *testing.B) {
	b.Run("OpenBSD-native", func(b *testing.B) {
		var cycles sim.Time
		for i := 0; i < b.N; i++ {
			m := machine.MustNew(machine.Config{Personality: machine.OpenBSD})
			cycles = ostest.GetpidCost(machine.Runner(m))
		}
		b.ReportMetric(float64(cycles), "vcycles/call")
	})
	b.Run("Xok-emulated", func(b *testing.B) {
		var cycles sim.Time
		for i := 0; i < b.N; i++ {
			m := machine.MustNew(machine.Config{Personality: machine.XokExOS})
			cycles = ostest.GetpidCost(func(fn func(unix.Proc)) {
				m.SpawnProc("t", 0, func(p unix.Proc) {
					fn(wrapEmulated{p})
				})
				m.Run()
			})
		}
		b.ReportMetric(float64(cycles), "vcycles/call")
	})
}

// wrapEmulated adds the INT-reroute cost to getpid, mirroring
// internal/emu without the import cycle risk in this harness.
type wrapEmulated struct{ unix.Proc }

func (w wrapEmulated) Getpid() int {
	w.Compute(12)
	return w.Proc.Getpid()
}

// BenchmarkXCP regenerates Section 7.2: cp vs XCP, warm and cold.
func BenchmarkXCP(b *testing.B) {
	for _, cold := range []bool{false, true} {
		name := "InCore"
		if cold {
			name = "OnDisk"
		}
		b.Run(name, func(b *testing.B) {
			var ratio float64
			for i := 0; i < b.N; i++ {
				cpT, xcpT := xcpPair(b, cold)
				ratio = float64(cpT) / float64(xcpT)
			}
			b.ReportMetric(ratio, "cp/xcp-speedup")
		})
	}
}

// xcpPair stages fragmented files on fresh machines and copies them
// with cp and with XCP, returning both elapsed virtual times.
func xcpPair(b *testing.B, cold bool) (cpT, xcpT sim.Time) {
	b.Helper()
	const n, size = 8, 400_000
	stage := func() (*exos.System, [][2]string) {
		s := machine.MustNew(machine.Config{Personality: machine.XokExOS}).(machine.Xok).S
		pairs := make([][2]string, n)
		s.Spawn("stage", 0, func(p unix.Proc) {
			fds := make([]unix.FD, n)
			for i := range fds {
				fd, err := p.Create(fmt.Sprintf("/s%d", i), 6)
				if err != nil {
					b.Error(err)
					return
				}
				fds[i] = fd
				pairs[i] = [2]string{fmt.Sprintf("/s%d", i), fmt.Sprintf("/d%d", i)}
			}
			chunk := make([]byte, sim.DiskBlockSize)
			for off := 0; off < size; off += len(chunk) {
				for i := range fds {
					if _, err := p.Write(fds[i], chunk); err != nil {
						b.Error(err)
						return
					}
				}
			}
			for _, fd := range fds {
				p.Close(fd)
			}
			if err := p.Sync(); err != nil {
				b.Error(err)
			}
		})
		s.Run()
		if cold {
			s.K.Spawn("evict", func(e *kernel.Env) {
				e.Creds = cap.UnixCreds(0)
				for {
					if _, ok := s.X.RecycleLRU(e); !ok {
						return
					}
				}
			})
			s.Run()
		}
		return s, pairs
	}

	sc, pairsC := stage()
	start := sc.Now()
	var end sim.Time
	sc.Spawn("cp", 0, func(p unix.Proc) {
		for _, pr := range pairsC {
			if err := apps.Cp(p, pr[0], pr[1]); err != nil {
				b.Error(err)
				return
			}
		}
		end = p.Now()
	})
	sc.Run()
	cpT = end - start

	sx, pairsX := stage()
	start = sx.Now()
	sx.K.Spawn("xcp", func(e *kernel.Env) {
		e.Creds = cap.UnixCreds(0)
		if err := apps.XCP(e, sx.FS, pairsX); err != nil {
			b.Error(err)
		}
		end = sx.Now()
	})
	sx.Run()
	xcpT = end - start
	return
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
	benchGlobal(b, core.Pool1())
}

// BenchmarkFigure5_GlobalPool2 regenerates a Figure 5 cell on the
// pool with C-FFS-favoured jobs.
func BenchmarkFigure5_GlobalPool2(b *testing.B) {
	benchGlobal(b, core.Pool2())
}

func benchGlobal(b *testing.B, pool []workload.JobKind) {
	systems := []struct {
		name string
		mk   func() workload.Machine
	}{
		{"Xok-ExOS", workload.NewXok},
		{"FreeBSD", func() workload.Machine { return workload.NewBSD(bsdos.FreeBSD) }},
	}
	for _, s := range systems {
		b.Run(s.name, func(b *testing.B) {
			var res workload.GlobalResult
			for i := 0; i < b.N; i++ {
				var err error
				res, err = workload.GlobalPerf(s.mk(), pool, 14, 2, 1234)
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
