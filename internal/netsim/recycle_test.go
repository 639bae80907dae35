package netsim

import (
	"testing"

	"xok/internal/cap"
	"xok/internal/kernel"
	"xok/internal/sim"
	"xok/internal/trace"
)

// cellOutcome is what a small cluster cell measures: completions, the
// servers' go-back-N retransmits, the clients' timer re-sends, the
// latency digest, and how many connections went back to the fabric's
// freelist.
type cellOutcome struct {
	issued, completed    int
	retransmits, resends int64
	digest               uint64
	recycled             int64
}

// cellEpoch is when cell's load starts.
const cellEpoch = sim.Millisecond

// cell runs an open-loop load through a least-connections balancer to
// two servers sharing one engine. stopAt > 0 stops the servers at that
// instant (after cellEpoch), so connections can be abandoned
// mid-exchange; their clients re-send for ever, so the run then ends at
// the bound until instead of when the engine drains.
func cell(t *testing.T, conns int, rate float64, stopAt, until sim.Time) cellOutcome {
	t.Helper()
	eng := sim.NewEngine()
	tp := NewTopologyOn(eng)
	clients := tp.AddHost("clients")
	lb := tp.LoadBalancer(LeastConnections)
	tp.Link(clients, lb, LinkSpec{BandwidthBps: 1_000_000_000})
	classes := []RequestClass{{Name: "small", DocSize: 512, Weight: 3}, {Name: "large", DocSize: 8192, Weight: 1}}
	var kernels []*kernel.Kernel
	for i := 0; i < 2; i++ {
		k := kernel.New(kernel.Config{Name: "srv", MemPages: 512, Eng: eng})
		kernels = append(kernels, k)
		srv := tp.AttachKernel("srv", k)
		tp.Link(lb, srv, LinkSpec{})
		nic := tp.NIC(srv)
		k.Spawn("httpd", func(e *kernel.Env) {
			e.Creds = cap.UnixCreds(0)
			nic.Serve(e, testServerConfig(), func(_ *kernel.Env, c *Conn) int {
				return classes[c.Class()].DocSize
			}, stopAt)
		})
	}
	// Settle the servers into their listen state; load starts at a
	// fixed epoch (a server stop event must not be run through here).
	eng.RunUntil(cellEpoch)
	tr := trace.NewHistOnly()
	pid := tr.AddProcess("cell")
	pool := tp.OpenLoop(OpenLoopConfig{
		From: clients, Target: lb, Conns: conns, Rate: rate, Seed: 5,
		Classes: classes, Trace: tr, TracePID: pid,
	})
	if until > 0 {
		eng.RunUntil(until)
	} else {
		eng.Run()
	}
	out := cellOutcome{issued: pool.Issued, completed: pool.Completed,
		digest: tr.Digest(), recycled: tp.connsRecycled}
	for _, k := range kernels {
		out.retransmits += k.Stats.Get(sim.CtrRetransmits)
		out.resends += k.Stats.Get(sim.CtrResends)
		k.Shutdown()
	}
	return out
}

// TestAbandonedConnsNotRecycled: connections that end any other way
// than a full exchange are left to the garbage collector. Servers
// stopped 30 ms into the load strand packets in their inboxes: only the
// completions whose last packets drained before the stop are recycled
// (the cell finishes exactly as the allocating implementation did).
// Each of the 494 clients left waiting re-sends once, 60 ms after its
// launch, into a stopped server before the run's 100-ms bound; none
// panics.
func TestAbandonedConnsNotRecycled(t *testing.T) {
	want := cellOutcome{issued: 600, completed: 106, resends: 494, digest: 17227506352884953760, recycled: 23}
	if got := cell(t, 600, 40000, 30*sim.Millisecond, cellEpoch+100*sim.Millisecond); got != want {
		t.Errorf("stopped cell = %+v, want %+v", got, want)
	}
}

// TestConnSteadyStateAllocs: opening a connection and running it to
// completion on a two-host fabric allocates nothing once the freelists
// are warm — the Conn, its packets, transit records, timer nodes and
// the server's per-connection DPF filter are all recycled.
func TestConnSteadyStateAllocs(t *testing.T) {
	k := kernel.New(kernel.Config{Name: "net", MemPages: 512})
	tp := NewTopologyOn(k.Eng)
	client := tp.AddHost("client")
	server := tp.AttachKernel("server", k)
	tp.Link(client, server, LinkSpec{})
	k.Spawn("server", func(e *kernel.Env) {
		tp.NIC(server).Serve(e, testServerConfig(), func(*kernel.Env, *Conn) int { return 4000 }, 0)
	})
	k.Eng.Run()
	pool := &OpenPool{t: tp, ClassDone: make([]int, 1), ClassBytes: make([]int64, 1), series: []string{"http.doc"},
		cfg: OpenLoopConfig{From: client, Target: server, Classes: defaultClasses}}
	port := uint32(10000)
	conn := func() {
		port++
		pool.launch(port, 0)
		k.Eng.Run()
	}
	conn() // warm the freelists
	conn()
	done, recycled := pool.Completed, tp.connsRecycled
	avg := testing.AllocsPerRun(200, conn)
	if pool.Completed-done != 201 || tp.connsRecycled-recycled != 201 {
		t.Fatalf("%d of 201 connections completed, %d recycled", pool.Completed-done, tp.connsRecycled-recycled)
	}
	if avg > 0 {
		t.Fatalf("steady-state connection lifecycle: %.1f allocs/op, want 0", avg)
	}
	k.Shutdown()
}
