package xok

import (
	"testing"

	"xok/internal/core"
	"xok/internal/difftest"
	"xok/internal/fault"
	"xok/internal/netsim"
	"xok/internal/workload"
)

// Serial-vs-parallel wall-clock baselines for the run harness. Each
// pair runs the identical campaign with the worker pool off and on;
// the ns/op gap is the harness speedup on this host (on a single-CPU
// host the pair instead bounds the pool's scheduling overhead).
// `make bench` runs these once (-benchtime=1x) and folds the numbers
// into BENCH_sim.json.

func benchDifftest(b *testing.B, workers int, snapshot bool) {
	for i := 0; i < b.N; i++ {
		div, err := difftest.Fuzz(difftest.Options{Seeds: 100, Parallel: workers, Snapshot: snapshot})
		if err != nil {
			b.Fatal(err)
		}
		if div != nil {
			b.Fatalf("unexpected divergence: %v", div)
		}
	}
}

func BenchmarkDifftest100Serial(b *testing.B)    { benchDifftest(b, 1, false) }
func BenchmarkDifftest100Parallel4(b *testing.B) { benchDifftest(b, 4, false) }

// The Snapshot variants run the identical campaign with the fork fast
// path on (seeds fork per-personality post-boot snapshots instead of
// re-booting); outcomes are bit-identical, only wall-clock moves. The
// benchjson derivation pairs each with its from-boot twin above.
func BenchmarkDifftest100SnapshotSerial(b *testing.B)    { benchDifftest(b, 1, true) }
func BenchmarkDifftest100SnapshotParallel4(b *testing.B) { benchDifftest(b, 4, true) }

func benchCrashSweep(b *testing.B, workers int, snapshot bool) {
	for i := 0; i < b.N; i++ {
		res, err := workload.CrashEnumerate(workload.CrashConfig{
			Plan:      &fault.Plan{Seed: 42, TornWrites: true},
			MaxPoints: 12,
			Parallel:  workers,
			Snapshot:  snapshot,
		})
		if err != nil {
			b.Fatal(err)
		}
		if res.Violations() != 0 {
			b.Fatalf("%d crash points failed recovery", res.Violations())
		}
	}
}

func BenchmarkCrashSweepSerial(b *testing.B)    { benchCrashSweep(b, 1, false) }
func BenchmarkCrashSweepParallel4(b *testing.B) { benchCrashSweep(b, 4, false) }

// Snapshot variants: crash trials fork from the probe's segment
// snapshots instead of re-running the workload prefix from boot.
func BenchmarkCrashSweepSnapshotSerial(b *testing.B)    { benchCrashSweep(b, 1, true) }
func BenchmarkCrashSweepSnapshotParallel4(b *testing.B) { benchCrashSweep(b, 4, true) }

func benchCluster(b *testing.B, workers int) {
	for i := 0; i < b.N; i++ {
		bench := core.Bench{BenchOpts: core.BenchOpts{Parallel: workers}}
		rs, err := bench.Cluster(workload.ClusterCells(4, 400, 8000))
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rs {
			if r.Completed != r.Conns {
				b.Fatalf("%d servers: %d/%d connections completed", r.Servers, r.Completed, r.Conns)
			}
		}
	}
}

// The Parallel4 leg distributes whole cells over workers — the sweep
// is three cells dominated by the largest, so it barely moves
// (benchjson flags its speedup row intra_run: false).
func BenchmarkClusterSerial(b *testing.B)    { benchCluster(b, 1) }
func BenchmarkClusterParallel4(b *testing.B) { benchCluster(b, 4) }

// BenchmarkClusterConns100k is the connection-scale cell the timer
// wheel and the netsim allocation pass exist for: one 4-server cell
// under 100k open-loop arrivals, offered just below the aggregate
// service capacity so the backlog stays bounded (no 1-server baseline
// — a single server would backlog ~all arrivals and the cell would
// measure RTO thrash, not serving). Reports events-per-host-second,
// the simulator-throughput number an engine change moves.
func BenchmarkClusterConns100k(b *testing.B) {
	b.ReportAllocs()
	var events int64
	for i := 0; i < b.N; i++ {
		res, err := workload.Cluster(workload.ClusterConfig{
			Servers: 4, Conns: 100_000, Rate: 4000,
			Policy: netsim.LeastConnections,
		})
		if err != nil {
			b.Fatal(err)
		}
		if res.Completed != res.Conns {
			b.Fatalf("%d/%d connections completed", res.Completed, res.Conns)
		}
		events += res.EngineEvents
	}
	if secs := b.Elapsed().Seconds(); secs > 0 {
		b.ReportMetric(float64(events)/secs, "events/s")
	}
}
