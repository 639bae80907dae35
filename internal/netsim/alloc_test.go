package netsim

import (
	"testing"

	"xok/internal/sim"
)

// releaseSink is a delivery endpoint that immediately releases the
// packet — the minimal implementation of the sink interface.
type releaseSink struct{ tp *Topology }

func (s *releaseSink) deliverPkt(p *Packet) { s.tp.release(p) }

// TestPacketSendPathSteadyStateAllocs pins the steady-state allocation
// count of the packet send path: take a Packet from the freelist, put
// it on the wire, deliver it, release it back. A saturated cluster run
// pushes millions of segments down this path; Packets, transit records
// and engine timer nodes all come from freelists and the delivery
// endpoint is an interface (no per-hop closure), so the whole
// traversal is allocation-free.
func TestPacketSendPathSteadyStateAllocs(t *testing.T) {
	eng := sim.NewEngine()
	tp := NewTopologyOn(eng)
	a := tp.AddHost("a")
	b := tp.AddHost("b")
	tp.Link(a, b, LinkSpec{})
	path := []hop{tp.hopTo(a, b)}
	to := &releaseSink{tp: tp}

	send := func() {
		pkt := tp.newPacket()
		pkt.SrcPort, pkt.DstPort = 9999, ServerPort
		pkt.Flags = FlagACK | FlagPSH
		pkt.Payload = MSS
		tp.xmit(path, pkt, to)
		eng.Run()
	}
	send() // warm the freelists

	avg := testing.AllocsPerRun(500, send)
	// A Packet or transit record escaping its freelist, a header slice
	// rematerializing, or a per-hop closure returning shows up as +1.
	if avg > 0 {
		t.Fatalf("steady-state packet send path: %.1f allocs/op, want 0", avg)
	}
}
