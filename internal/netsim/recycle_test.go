package netsim

import (
	"testing"

	"xok/internal/cap"
	"xok/internal/fault"
	"xok/internal/kernel"
	"xok/internal/sim"
	"xok/internal/trace"
)

// cellOutcome is what a small cluster cell measures: completions, the
// servers' go-back-N retransmits, the latency digest, and how many
// connections went back to the fabric's freelist.
type cellOutcome struct {
	issued, completed int
	retransmits       int64
	digest            uint64
	recycled          int64
}

// cellEpoch is when faultCell's load starts.
const cellEpoch = sim.Millisecond

// faultCell runs an open-loop load through a least-connections
// balancer to two servers sharing one engine, under plan (nil = a
// clean fabric). stopAt > 0 stops the servers at that instant (after
// cellEpoch) and
// deadline > 0 bounds every client's retries, so connections can be
// abandoned mid-exchange.
func faultCell(t *testing.T, plan *fault.Plan, conns int, rate float64, stopAt, deadline sim.Time) cellOutcome {
	t.Helper()
	eng := sim.NewEngine()
	tp := NewTopologyOn(eng)
	tp.Faults = plan
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
		Classes: classes, Deadline: deadline, Trace: tr, TracePID: pid,
	})
	eng.Run()
	out := cellOutcome{issued: pool.Issued, completed: pool.Completed,
		digest: tr.Digest(), recycled: tp.connsRecycled}
	for _, k := range kernels {
		out.retransmits += k.Stats.Get(sim.CtrRetransmits)
		k.Shutdown()
	}
	return out
}

// TestFaultedCellRecyclesConns: under loss, duplication and reordering
// every connection still completes with exactly the latency series,
// completions and retransmits of the allocating implementation (the
// pinned figures predate Conn recycling), connections are recycled,
// and no packet or timer ever reaches a freed Conn (that would panic).
func TestFaultedCellRecyclesConns(t *testing.T) {
	plan := &fault.Plan{Seed: 11, LossRate: 20, DupRate: 23, ReorderRate: 29}
	got := faultCell(t, plan, 600, 4000, 0, 0)
	if got.recycled == 0 {
		t.Error("no connection was recycled in a cell where all 600 complete")
	}
	got.recycled = 0
	want := cellOutcome{issued: 600, completed: 600, retransmits: 228, digest: 7226338685703827415}
	if got != want {
		t.Fatalf("faulted cell = %+v, want %+v", got, want)
	}
}

// TestAbandonedConnsNotRecycled: connections that end any other way
// than a full exchange are left to the garbage collector. Overloaded
// servers under a lossy plan with a 20-ms client deadline abandon
// about a quarter of the arrivals: exactly the completed connections
// are recycled. Servers stopped 30 ms into the load strand packets in
// their inboxes: only the completions whose last packets drained
// before the stop are recycled. Both cells finish exactly as the
// allocating implementation did (completions, retransmits, digest)
// and without panicking.
func TestAbandonedConnsNotRecycled(t *testing.T) {
	plan := &fault.Plan{Seed: 11, LossRate: 20, DupRate: 23, ReorderRate: 29}
	for _, tc := range []struct {
		name   string
		plan   *fault.Plan
		stopAt sim.Time
		want   cellOutcome
	}{
		{"deadline", plan, 0, cellOutcome{issued: 600, completed: 453, retransmits: 176, digest: 3293681385666056476, recycled: 453}},
		{"stopped", nil, 30 * sim.Millisecond, cellOutcome{issued: 600, completed: 106, digest: 17227506352884953760, recycled: 23}},
	} {
		if got := faultCell(t, tc.plan, 600, 40000, tc.stopAt, 20*sim.Millisecond); got != tc.want {
			t.Errorf("%s cell = %+v, want %+v", tc.name, got, tc.want)
		}
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
