package netsim

import (
	"testing"

	"xok/internal/cap"
	"xok/internal/kernel"
	"xok/internal/sim"
	"xok/internal/trace"
)

func testServerConfig() StackConfig {
	return StackConfig{
		Name: "test", PerConn: 100 * sim.Microsecond,
		PerPacket: 20 * sim.Microsecond, AckCost: 5 * sim.Microsecond,
	}
}

// pair wires sim.NumLinks Ethernets between a client host and k's
// machine: the single-server fabric of the HTTP experiments.
func pair(k *kernel.Kernel) (tp *Topology, client, server HostID) {
	tp = NewTopologyOn(k.Eng)
	client = tp.AddHost("client")
	server = tp.AttachKernel("server", k)
	for i := 0; i < sim.NumLinks; i++ {
		tp.Link(client, server, LinkSpec{})
	}
	return tp, client, server
}

// serve boots a machine with a fixed-size handler and runs a client
// pool against it.
func serve(t *testing.T, cfg StackConfig, body, clients int, dur sim.Time) (*ClientPool, *kernel.Env, *kernel.Kernel) {
	t.Helper()
	k := kernel.New(kernel.Config{Name: "net", MemPages: 512})
	tp, client, server := pair(k)
	stop := k.Now() + dur
	pool := tp.NewClientPool(client, server, clients, body, stop)
	env := k.Spawn("server", func(e *kernel.Env) {
		e.Creds = cap.UnixCreds(0)
		tp.NIC(server).Serve(e, cfg, func(*kernel.Env, *Conn) int { return body }, stop)
	})
	k.RunUntil(stop)
	k.Shutdown()
	return pool, env, k
}

func TestRequestsComplete(t *testing.T) {
	pool, _, k := serve(t, testServerConfig(), 1000, 4, 100*sim.Millisecond)
	if pool.Completed == 0 {
		t.Fatal("no requests completed")
	}
	if pool.Bytes != int64(pool.Completed)*1000 {
		t.Fatalf("bytes = %d for %d requests", pool.Bytes, pool.Completed)
	}
	if pool.MeanLatency() == 0 || pool.LatMax < pool.MeanLatency() {
		t.Fatalf("latency accounting broken: mean=%v max=%v", pool.MeanLatency(), pool.LatMax)
	}
	if k.Stats.Get(sim.CtrPacketsRx) == 0 || k.Stats.Get(sim.CtrPacketsTx) == 0 {
		t.Fatal("no packets counted")
	}
}

func TestThroughputBoundByServerCPU(t *testing.T) {
	// With per-request CPU of ~260us (conn + 4 packets + acks), the
	// server cannot exceed ~1/260us requests/sec.
	cfg := testServerConfig()
	dur := 200 * sim.Millisecond
	pool, env, _ := serve(t, cfg, 0, 16, dur)
	rps := float64(pool.Completed) / dur.Seconds()
	if rps > 8000 {
		t.Fatalf("rps = %.0f exceeds the CPU bound", rps)
	}
	busy := env.CPUUsed().Seconds() / dur.Seconds()
	if busy < 0.8 {
		t.Fatalf("server only %.0f%% busy with 16 clients; should saturate", busy*100)
	}
}

func TestLargeDocsBoundByNetwork(t *testing.T) {
	// A nearly free server pushing 100-KB docs must cap near the
	// 3-link aggregate bandwidth (37.5 MB/s raw).
	cfg := StackConfig{Name: "fast", PerConn: 10 * sim.Microsecond,
		PerPacket: 2 * sim.Microsecond, AckCost: 1 * sim.Microsecond}
	dur := 200 * sim.Millisecond
	pool, _, _ := serve(t, cfg, 100_000, 30, dur)
	mbps := float64(pool.Bytes) / dur.Seconds() / 1e6
	if mbps < 20 {
		t.Fatalf("%.1f MB/s: not reaching network saturation", mbps)
	}
	if mbps > 38 {
		t.Fatalf("%.1f MB/s exceeds 3x100Mbit physical capacity", mbps)
	}
}

func TestSeparateControlPacketsCostMore(t *testing.T) {
	base := testServerConfig()
	dur := 100 * sim.Millisecond
	merged, _, km := serve(t, base, 100, 8, dur)
	sep := base
	sep.SeparateReqAck = true
	sep.SeparateFIN = true
	separate, _, ks := serve(t, sep, 100, 8, dur)
	// Per request, the separate config transmits 2 more server frames.
	mergedTx := float64(km.Stats.Get(sim.CtrPacketsTx)) / float64(merged.Completed)
	sepTx := float64(ks.Stats.Get(sim.CtrPacketsTx)) / float64(separate.Completed)
	if sepTx < mergedTx+1.5 {
		t.Fatalf("separate-control frames/request = %.2f vs merged %.2f; want ~+2", sepTx, mergedTx)
	}
	if separate.Completed >= merged.Completed {
		t.Fatalf("packet merging should raise throughput: %d vs %d",
			merged.Completed, separate.Completed)
	}
}

func TestForkPerRequestThrottles(t *testing.T) {
	base := testServerConfig()
	dur := 100 * sim.Millisecond
	plain, _, _ := serve(t, base, 0, 8, dur)
	forky := base
	forky.ForkPerRequest = sim.CostForkBSD + sim.CostExec
	forked, _, _ := serve(t, forky, 0, 8, dur)
	if forked.Completed*2 >= plain.Completed {
		t.Fatalf("fork-per-request only dropped throughput %d -> %d",
			plain.Completed, forked.Completed)
	}
}

// nowSink records the engine time of its delivery.
type nowSink struct {
	eng *sim.Engine
	at  *sim.Time
}

func (s *nowSink) deliverPkt(*Packet) { *s.at = s.eng.Now() }

func TestWireTimeSerializesLink(t *testing.T) {
	tp := NewTopology()
	eng := tp.Engine()
	l := &link{bps: sim.LinkBandwidthBps}
	var first, second sim.Time
	send := func(at *sim.Time) {
		tr := tp.newTransit()
		tr.t = tp
		tr.to = &nowSink{eng: eng, at: at}
		l.transmit(0, 1460, tr)
	}
	send(&first)
	send(&second)
	eng.Run()
	if second <= first {
		t.Fatal("second frame not serialized behind the first")
	}
	gap := second - first
	wire := sim.WireTimeAt(1460+ipTCPHeader, sim.LinkBandwidthBps)
	if gap != wire {
		t.Fatalf("inter-frame gap = %v, want one wire time %v", gap, wire)
	}
}

func TestPacketHeaderMatchesFilters(t *testing.T) {
	p := &Packet{SrcPort: 5555, DstPort: 80, Flags: FlagSYN}
	h := p.HeaderInto(make([]byte, 16))
	want := []byte{0, 0, 0, 80, 0, 0, 0x15, 0xB3, FlagSYN}
	if len(h) != len(want) {
		t.Fatalf("header = %v, want %v", h, want)
	}
	for i := range want {
		if h[i] != want[i] {
			t.Fatalf("header = %v, want %v", h, want)
		}
	}
}

func TestConnectionTracing(t *testing.T) {
	tr := trace.New()
	k := kernel.New(kernel.Config{Name: "net", MemPages: 512, Trace: tr})
	tp, client, server := pair(k)
	stop := k.Now() + 100*sim.Millisecond
	pool := tp.NewClientPool(client, server, 4, 1000, stop)
	k.Spawn("server", func(e *kernel.Env) {
		tp.NIC(server).Serve(e, testServerConfig(), func(*kernel.Env, *Conn) int { return 1000 }, stop)
	})
	k.RunUntil(stop)
	k.Shutdown()
	if pool.Completed == 0 {
		t.Fatal("no requests completed")
	}
	h := tr.Hist(k.TracePID, "http.request")
	if h == nil || h.Count() != int64(pool.Completed) {
		t.Fatalf("http.request samples = %v, want %d", h, pool.Completed)
	}
	if h.Max() != pool.LatMax {
		t.Fatalf("histogram max %v != pool max %v", h.Max(), pool.LatMax)
	}
	var conns, phases int
	for _, s := range tr.Spans() {
		if s.Cat != "http" {
			continue
		}
		switch s.Name {
		case "conn":
			conns++
		case "handshake+request", "stream":
			phases++
		}
	}
	if conns != pool.Completed {
		t.Fatalf("conn spans = %d, want %d", conns, pool.Completed)
	}
	if phases < 2*pool.Completed {
		t.Fatalf("phase spans = %d, want >= %d", phases, 2*pool.Completed)
	}
}
