package workload_test

import (
	"bytes"
	"testing"

	"xok/internal/core"
	"xok/internal/machine"
	"xok/internal/netsim"
	"xok/internal/trace"
	"xok/internal/workload"
)

// testCells is a scaled-down acceptance sweep: 1 server vs 4 servers
// at the same offered load.
func testCells() []workload.ClusterConfig {
	return workload.ClusterCells(4, 400, 8000)
}

// renderCluster runs the sweep on a bench with the given worker count
// and returns the rendered report plus the combined latency digest.
func renderCluster(t *testing.T, parallel int) (string, uint64) {
	t.Helper()
	bench := core.Bench{Trace: trace.New(), Parallel: parallel}
	rs, err := bench.Cluster(testCells())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	workload.WriteClusterReport(&buf, rs)
	return buf.String(), workload.ClusterDigest(rs)
}

// TestClusterParallelMatchesSerial: the cluster sweep renders
// byte-identically and digests identically at every worker count.
func TestClusterParallelMatchesSerial(t *testing.T) {
	serialOut, serialDigest := renderCluster(t, 1)
	for _, p := range []int{2, 4} {
		out, digest := renderCluster(t, p)
		if out != serialOut {
			t.Errorf("-parallel %d report differs from serial:\n--- serial ---\n%s--- parallel %d ---\n%s",
				p, serialOut, p, out)
		}
		if digest != serialDigest {
			t.Errorf("-parallel %d digest %#x != serial %#x", p, digest, serialDigest)
		}
	}
}

// TestClusterThroughputScales: at a fixed offered load past one
// server's capacity, 4 servers must deliver at least 2.5x the
// single-server throughput, and every connection must complete.
func TestClusterThroughputScales(t *testing.T) {
	var bench core.Bench
	rs, err := bench.Cluster(testCells())
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rs {
		if r.Completed != r.Conns {
			t.Errorf("%d servers (%v): completed %d/%d connections",
				r.Servers, r.Policy, r.Completed, r.Conns)
		}
		if r.P50 <= 0 || r.P99 < r.P50 {
			t.Errorf("%d servers (%v): implausible quantiles p50=%v p99=%v",
				r.Servers, r.Policy, r.P50, r.P99)
		}
	}
	base, scaled := rs[0], rs[1]
	if ratio := scaled.ReqPerSec / base.ReqPerSec; ratio < 2.5 {
		t.Errorf("4-server/1-server throughput = %.2fx, want >= 2.5x (%.0f vs %.0f req/s)",
			ratio, scaled.ReqPerSec, base.ReqPerSec)
	}
}

// TestClusterBalancerSpread: round-robin spreads exactly evenly;
// least-connections stays within a few connections of even.
func TestClusterBalancerSpread(t *testing.T) {
	var bench core.Bench
	rs, err := bench.Cluster(testCells())
	if err != nil {
		t.Fatal(err)
	}
	rr, lc := rs[1], rs[2]
	per := int64(rr.Conns / rr.Servers)
	for i, n := range rr.Assignments {
		if n != per {
			t.Errorf("round-robin backend %d got %d connections, want %d", i, n, per)
		}
	}
	var total int64
	for i, n := range lc.Assignments {
		total += n
		if n < per/2 || n > per*2 {
			t.Errorf("least-conn backend %d got %d connections, want near %d", i, n, per)
		}
	}
	if total != int64(lc.Conns) {
		t.Errorf("least-conn assigned %d connections total, want %d", total, lc.Conns)
	}
}

// TestMachinesShareFabricClock: machines attached to one topology boot
// on the fabric's engine — one event queue, one virtual clock.
func TestMachinesShareFabricClock(t *testing.T) {
	topo := netsim.NewTopology()
	var atts [2]*netsim.Attachment
	for i := range atts {
		atts[i] = &netsim.Attachment{Topology: topo}
		m, err := machine.New(machine.Config{
			Personality: machine.XokExOS,
			DiskBlocks:  1 << 15,
			Net:         atts[i],
		})
		if err != nil {
			t.Fatal(err)
		}
		defer m.Close()
		if m.Kern().Eng != topo.Engine() {
			t.Fatalf("machine %d booted on its own engine, not the fabric's", i)
		}
		if atts[i].NIC == nil {
			t.Fatalf("machine %d: attachment NIC not filled in", i)
		}
	}
	if atts[0].Host == atts[1].Host {
		t.Error("both machines attached to the same host id")
	}
}
