package netsim

import (
	"strings"
	"testing"

	"xok/internal/cap"
	"xok/internal/kernel"
	"xok/internal/sim"
)

// funcSink adapts a func(*Packet) to the sink interface for tests.
type funcSink struct{ f func(*Packet) }

func (s *funcSink) deliverPkt(p *Packet) { s.f(p) }

// testTransit builds a terminal transit record (no further hops)
// delivering to the given sink.
func testTransit(tp *Topology, to sink) *transit {
	tr := tp.newTransit()
	tr.t = tp
	tr.to = to
	return tr
}

// TestLinkCustomBandwidthSerializes: frames on a slow link serialize
// against the custom wire time, not the default Ethernet's.
func TestLinkCustomBandwidthSerializes(t *testing.T) {
	tp := NewTopology()
	eng := tp.Engine()
	const bps = 10_000_000 // 10 Mbit
	l := &link{bps: bps}
	var deliveries []sim.Time
	record := &funcSink{f: func(p *Packet) { deliveries = append(deliveries, eng.Now()) }}
	l.transmit(0, 1460, testTransit(tp, record))
	l.transmit(0, 1460, testTransit(tp, record))
	eng.Run()
	if len(deliveries) != 2 {
		t.Fatalf("delivered %d frames, want 2", len(deliveries))
	}
	wire := sim.WireTimeAt(1460+ipTCPHeader, bps)
	if want := wire + sim.LinkLatency; deliveries[0] != want {
		t.Errorf("first delivery at %v, want %v", deliveries[0], want)
	}
	if want := 2*wire + sim.LinkLatency; deliveries[1] != want {
		t.Errorf("second delivery at %v, want %v (serialized)", deliveries[1], want)
	}
	slow := sim.WireTimeAt(1460+ipTCPHeader, bps)
	fast := sim.WireTimeAt(1460+ipTCPHeader, sim.LinkBandwidthBps)
	if slow <= fast {
		t.Errorf("10Mbit wire time %v should exceed 100Mbit's %v", slow, fast)
	}
}

// TestUnclaimedPacketDropped: a packet reaching a NIC where no filter
// claims it (here, no server listens) is the fabric's one drop: it is
// counted in Drops and its packet goes back to the freelist.
func TestUnclaimedPacketDropped(t *testing.T) {
	k := kernel.New(kernel.Config{Name: "srv", MemPages: 512})
	tp := NewTopologyOn(k.Eng)
	client := tp.AddHost("client")
	srv := tp.AttachKernel("server", k)
	tp.Link(client, srv, LinkSpec{})
	pkt := tp.newPacket()
	pkt.SrcPort, pkt.DstPort, pkt.Flags = 10000, ServerPort, FlagSYN
	tp.xmit([]hop{tp.hopTo(client, srv)}, pkt, tp.NIC(srv))
	k.Eng.Run()
	if rx := k.Stats.Get(sim.CtrPacketsRx); rx != 1 {
		t.Errorf("NIC received %d packets, want 1", rx)
	}
	if tp.Drops != 1 {
		t.Errorf("Drops = %d, want 1", tp.Drops)
	}
	if len(tp.freePkts) != 1 || tp.freePkts[0] != pkt {
		t.Error("the dropped packet did not go back to the freelist")
	}
	k.Shutdown()
}

// TestAttachKernelRejectsForeignEngine: a kernel booted on its own
// engine would run its NIC against a clock the fabric never advances,
// so attaching it panics instead of simulating nonsense.
func TestAttachKernelRejectsForeignEngine(t *testing.T) {
	k := kernel.New(kernel.Config{Name: "foreign", MemPages: 512})
	tp := NewTopology()
	defer func() {
		if recover() == nil {
			t.Fatal("AttachKernel accepted a kernel on a foreign engine")
		}
	}()
	tp.AttachKernel("server", k)
}

// TestRoundRobinPickCycles: round-robin walks the backends cyclically
// in insertion order.
func TestRoundRobinPickCycles(t *testing.T) {
	lb := &lbState{
		policy:   RoundRobin,
		backends: make([]*trunkSet, 4),
		active:   make([]int, 4),
		assigned: make([]int64, 4),
	}
	want := []int{0, 1, 2, 3, 0, 1, 2, 3}
	for i, w := range want {
		if got := lb.pick(); got != w {
			t.Fatalf("pick %d = backend %d, want %d", i, got, w)
		}
	}
	for i, n := range lb.assigned {
		if n != 2 {
			t.Errorf("backend %d assigned %d, want 2", i, n)
		}
	}
}

// TestLeastConnTieBreakDeterministic: least-connections breaks ties
// toward the lowest index, so with no releases it degenerates to the
// same cyclic order every run.
func TestLeastConnTieBreakDeterministic(t *testing.T) {
	seq := func() []int {
		lb := &lbState{
			policy:   LeastConnections,
			backends: make([]*trunkSet, 4),
			active:   make([]int, 4),
			assigned: make([]int64, 4),
		}
		var got []int
		for i := 0; i < 8; i++ {
			got = append(got, lb.pick())
		}
		return got
	}
	want := []int{0, 1, 2, 3, 0, 1, 2, 3}
	first := seq()
	for i, w := range want {
		if first[i] != w {
			t.Fatalf("pick sequence %v, want %v (lowest-index tie-break)", first, want)
		}
	}
	second := seq()
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("non-deterministic pick: run1 %v run2 %v", first, second)
		}
	}
}

// TestLeastConnFollowsReleases: a freed backend wins the next pick.
func TestLeastConnFollowsReleases(t *testing.T) {
	lb := &lbState{
		policy:   LeastConnections,
		backends: make([]*trunkSet, 3),
		active:   make([]int, 3),
		assigned: make([]int64, 3),
	}
	for i := 0; i < 3; i++ {
		lb.pick()
	}
	lb.active[2]-- // backend 2's connection completes
	if got := lb.pick(); got != 2 {
		t.Errorf("pick after release = %d, want 2 (fewest active)", got)
	}
}

// TestOpenLoopOneHop: an open-loop load straight to an adjacent
// server completes without a retransmit on a clean LAN, and its plan
// puts one arrival on the engine, not all 20: each schedules the next.
func TestOpenLoopOneHop(t *testing.T) {
	k := kernel.New(kernel.Config{Name: "srv", MemPages: 512})
	tp := NewTopologyOn(k.Eng)
	client := tp.AddHost("client")
	srv := tp.AttachKernel("server", k)
	tp.Link(client, srv, LinkSpec{})
	k.Spawn("server", func(e *kernel.Env) {
		e.Creds = cap.UnixCreds(0)
		tp.NIC(srv).Serve(e, testServerConfig(), func(*kernel.Env, *Conn) int { return 4000 }, 0)
	})
	pending := k.Eng.Pending()
	pool := tp.OpenLoop(OpenLoopConfig{
		From: client, Target: srv, Conns: 20, Rate: 200,
		Classes: []RequestClass{{Name: "doc", DocSize: 4000, Weight: 1}},
	})
	if n := k.Eng.Pending() - pending; n != 1 {
		t.Errorf("the open-loop plan queued %d events, want 1", n)
	}
	k.Eng.Run()
	if pool.Completed != 20 {
		t.Fatalf("completed %d/20 on a clean one-hop path", pool.Completed)
	}
	if rtx := k.Stats.Get(sim.CtrRetransmits); rtx != 0 {
		t.Errorf("%d retransmits on a clean one-hop path", rtx)
	}
	k.Shutdown()
}

// TestTrunkRotation: parallel links between one pair rotate per
// connection, in link order.
func TestTrunkRotation(t *testing.T) {
	tp := NewTopology()
	a := tp.AddHost("a")
	b := tp.AddHost("b")
	for i := 0; i < 3; i++ {
		tp.Link(a, b, LinkSpec{})
	}
	links := tp.hosts[a].trunkTo(b).hops // in link order
	var got []*link
	for i := 0; i < 6; i++ {
		got = append(got, tp.hopTo(a, b).l)
	}
	for i := range got {
		if want := links[i%3].l; got[i] != want {
			t.Fatalf("connection %d used link %p, want link %d (%p, round-robin)", i, got[i], i%3, want)
		}
	}
	// The reverse direction walks the same links the other way.
	if h := tp.hopTo(b, a); h.l != got[0] || h.dir != 1 {
		t.Errorf("b->a first hop = link %p dir %d, want link %p dir 1", h.l, h.dir, got[0])
	}
}

// TestConnToUnlinkedHostPanics: a connection whose target is neither
// linked to the client nor a balancer linked to it has no path on the
// LAN fabric; opening it panics and names both hosts. Here the server
// sits behind a balancer but the client addresses it directly.
func TestConnToUnlinkedHostPanics(t *testing.T) {
	k := kernel.New(kernel.Config{Name: "srv", MemPages: 512})
	tp := NewTopologyOn(k.Eng)
	client := tp.AddHost("client")
	lb := tp.LoadBalancer(RoundRobin)
	srv := tp.AttachKernel("backend", k)
	tp.Link(client, lb, LinkSpec{})
	tp.Link(lb, srv, LinkSpec{})
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "client") || !strings.Contains(msg, "backend") {
			t.Fatalf("panic %q, want one naming client and backend", msg)
		}
	}()
	tp.openConn(client, srv, 10000, 100)
}
