package netsim

import (
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
	l := &link{bps: bps, latency: sim.LinkLatency}
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

// TestQueueTailDrop: a bounded link queue tail-drops the burst's
// excess, counts it in Drops, and delivers the rest.
func TestQueueTailDrop(t *testing.T) {
	tp := NewTopology()
	a := tp.AddHost("a")
	b := tp.AddHost("b")
	tp.Link(a, b, LinkSpec{Queue: 2})
	path := tp.appendPath(nil, a, b)

	const burst = 16
	delivered := 0
	count := &funcSink{f: func(p *Packet) { delivered++; tp.release(p) }}
	for i := 0; i < burst; i++ {
		pkt := tp.newPacket()
		pkt.Payload = MSS
		tp.xmit(path, pkt, count)
	}
	tp.Engine().Run()
	if tp.Drops == 0 {
		t.Fatal("no tail drops on a 2-frame queue under a 16-frame burst")
	}
	if got := int64(burst) - int64(delivered); got != tp.Drops {
		t.Errorf("delivered %d + dropped %d != burst %d", delivered, tp.Drops, burst)
	}
	// The queue admits the in-flight frame plus roughly Queue more.
	if delivered < 3 || delivered > 4 {
		t.Errorf("delivered %d frames, want 3-4 (1 in flight + queue of 2)", delivered)
	}
}

// TestUnboundedQueueNeverDrops: the zero-value spec keeps the legacy
// behavior — everything queues, nothing drops.
func TestUnboundedQueueNeverDrops(t *testing.T) {
	tp := NewTopology()
	a := tp.AddHost("a")
	b := tp.AddHost("b")
	tp.Link(a, b, LinkSpec{})
	path := tp.appendPath(nil, a, b)
	delivered := 0
	count := &funcSink{f: func(p *Packet) { delivered++; tp.release(p) }}
	for i := 0; i < 64; i++ {
		pkt := tp.newPacket()
		pkt.Payload = MSS
		tp.xmit(path, pkt, count)
	}
	tp.Engine().Run()
	if delivered != 64 || tp.Drops != 0 {
		t.Errorf("delivered %d (want 64), drops %d (want 0)", delivered, tp.Drops)
	}
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
		backends: []HostID{10, 11, 12, 13},
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
			backends: []HostID{10, 11, 12, 13},
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
		backends: []HostID{10, 11, 12},
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

// twoHopServe runs a small open-loop load across a two-hop 15ms+15ms
// path (static RTT ~60ms — right at the legacy RTO floor, which
// without RTT adaptation retransmits every exchange).
func twoHopServe(t *testing.T, loss int) (*OpenPool, *kernel.Kernel) {
	t.Helper()
	k := kernel.New(kernel.Config{Name: "far", MemPages: 512})
	tp := NewTopologyOn(k.Eng)
	client := tp.AddHost("client")
	mid := tp.AddHost("wan-switch")
	srv := tp.AttachKernel("server", k)
	spec := LinkSpec{Latency: 15 * sim.Millisecond, LossRate: loss}
	tp.Link(client, mid, spec)
	tp.Link(mid, srv, spec)
	k.Spawn("server", func(e *kernel.Env) {
		e.Creds = cap.UnixCreds(0)
		tp.NIC(srv).Serve(e, testServerConfig(), func(*kernel.Env, *Conn) int { return 4000 }, 0)
	})
	pool := tp.OpenLoop(OpenLoopConfig{
		From: client, Target: srv, Conns: 20, Rate: 200,
		Classes: []RequestClass{{Name: "doc", DocSize: 4000, Weight: 1}},
	})
	k.Eng.Run()
	return pool, k
}

// TestAdaptiveRTOCleanLongPath: on a lossless long path the RTO must
// scale with the measured RTT — zero retransmits, every connection
// completes. (With the fixed 60ms floor the ~60ms path livelocks.)
func TestAdaptiveRTOCleanLongPath(t *testing.T) {
	pool, k := twoHopServe(t, 0)
	if pool.Completed != 20 {
		t.Fatalf("completed %d/20 on a lossless long path", pool.Completed)
	}
	if rtx := k.Stats.Get(sim.CtrRetransmits); rtx != 0 {
		t.Errorf("%d spurious retransmits on a lossless path (RTO below path RTT?)", rtx)
	}
}

// TestAdaptiveRTOLossyLongPath: per-link loss on both hops — recovery
// must still converge (retransmissions happen, the load drains).
func TestAdaptiveRTOLossyLongPath(t *testing.T) {
	pool, k := twoHopServe(t, 25)
	if pool.Completed != 20 {
		t.Fatalf("completed %d/20 on a lossy long path (livelock?)", pool.Completed)
	}
	if rtx := k.Stats.Get(sim.CtrRetransmits); rtx == 0 {
		t.Error("no retransmits despite 1-in-25 per-link loss on both hops")
	}
}

// TestTrunkRotation: parallel links between one pair rotate per
// connection-path computation, in link order.
func TestTrunkRotation(t *testing.T) {
	tp := NewTopology()
	a := tp.AddHost("a")
	b := tp.AddHost("b")
	for i := 0; i < 3; i++ {
		tp.Link(a, b, LinkSpec{})
	}
	var got []*link
	for i := 0; i < 6; i++ {
		path := tp.appendPath(nil, a, b)
		got = append(got, path[0].l)
	}
	for i := range got {
		if want := tp.links[i%3]; got[i] != want {
			t.Fatalf("path %d used link %d, want %d (round-robin)", i, linkIndex(tp, got[i]), i%3)
		}
	}
}

func linkIndex(tp *Topology, l *link) int {
	for i, cand := range tp.links {
		if cand == l {
			return i
		}
	}
	return -1
}

// TestBFSRouting: multi-hop routes resolve and carry traffic
// end-to-end through intermediate plain hosts.
func TestBFSRouting(t *testing.T) {
	tp := NewTopology()
	a := tp.AddHost("a")
	s1 := tp.AddHost("s1")
	s2 := tp.AddHost("s2")
	d := tp.AddHost("d")
	tp.Link(a, s1, LinkSpec{})
	tp.Link(s1, s2, LinkSpec{})
	tp.Link(s2, d, LinkSpec{})
	path := tp.appendPath(nil, a, d)
	if len(path) != 3 {
		t.Fatalf("path a->d has %d hops, want 3", len(path))
	}
	delivered := false
	pkt := tp.newPacket()
	pkt.Payload = 100
	tp.xmit(path, pkt, &funcSink{f: func(p *Packet) { delivered = true; tp.release(p) }})
	tp.Engine().Run()
	if !delivered {
		t.Fatal("packet not delivered across 3-hop route")
	}
}
