package netsim

import (
	"strconv"

	"xok/internal/dpf"
	"xok/internal/sim"
	"xok/internal/trace"
)

// connOwner receives connection completions. The pool that opened a
// connection owns it; an interface (rather than a per-connection
// callback closure) keeps opening 100k+ connections alloc-lean.
type connOwner interface {
	connDone(c *Conn, latency sim.Time)
}

// pathHalf is the hop capacity of each half of a connection's inline
// path buffer; deeper routes spill to the heap.
const pathHalf = 4

// Conn is one HTTP/1.0 connection: server-side state plus the scripted
// client endpoint (clients are other hosts; their logic runs in
// event callbacks with no simulated-CPU accounting — the paper
// saturates the server from multiple client hosts).
//
// Conn objects are deliberately NOT pooled: in-flight duplicate or
// lost-in-transit packets keep *Conn references alive after
// completion, so a recycled connection would let a late segment act
// on an unrelated connection's state. The scale pass pools what
// cycles fast — packets, transit records, timer nodes — and keeps the
// connection itself a plain allocation.
type Conn struct {
	t       *Topology
	fwd     []hop // client -> server path (through the balancer, if any)
	rev     []hop // the same links walked back
	backend *NIC  // the serving machine's interface

	// pathBuf holds fwd (first half) and rev (second half) inline so
	// opening a connection does not allocate path slices.
	pathBuf [2 * pathHalf]hop

	// Load-balancer bookkeeping: which backend slot this connection
	// holds open (released exactly once, on completion).
	lbRef  *lbState
	lbIdx  int
	lbHeld bool

	// sink receives the connection's spans and latency samples
	// (default: the backend machine's tracer; pools may redirect).
	sink    *trace.Tracer
	sinkPID int64

	// class tags the request for per-class latency series;
	// classSeries is the precomputed "http.<class>" histogram name
	// ("" = the untagged legacy single-document workload).
	class       int
	classSeries string

	clientPort uint32
	filterID   dpf.ID
	hasFilter  bool

	// Client-side state. The client accepts segments in order only
	// (the path is FIFO; a loss leaves a hole that go-back-N
	// retransmission fills).
	expect    int // response bytes outstanding
	got       int // contiguous bytes received
	gotSynAck bool
	started   sim.Time
	tsReq     sim.Time  // when the server began serving the request
	deadline  sim.Time  // client stops re-sending past this point (0 = never)
	ctimer    sim.Event // client retransmission timer
	owner     connOwner // completion sink; nil once done
	unacked   int       // data segments since last client ACK
	reqDocLen int

	// Round-trip estimation. staticRTT is the path's propagation +
	// serialization bound computed at open; rttEst only ever rises,
	// lifted by the measured handshake RTT (monotone, so timer values
	// are deterministic and never shrink mid-connection).
	staticRTT sim.Time
	rttEst    sim.Time

	// Server-side retransmission state (the merged file cache /
	// retransmission pool holds the data; nothing is re-read or
	// re-copied on a retransmit).
	srvAccepted bool
	srvTotal    int
	srvAcked    int
	srvDone     bool
	rto         sim.Event
}

// clientRTO is the floor of the client-side retransmission timeout:
// shorter than the server's RTO so a stalled handshake restarts
// before the server's timer would have a say.
const clientRTO = 60 * sim.Millisecond

// adaptiveRTTMin gates measured-RTT timer scaling: a path whose
// static round trip is at least this long gets timeouts derived from
// the measured RTT (a fixed 60/80-ms timer under a comparable path
// RTT fires spuriously and livelocks lossy multi-hop paths in
// retransmission storms). LAN-scale paths keep the fixed floors — at
// a sub-millisecond RTT the floor already dominates, and inflating it
// with congestion-queueing samples would only slow loss recovery.
const adaptiveRTTMin = 10 * sim.Millisecond

// adaptive reports whether this connection's path is long enough for
// measured-RTT timeouts.
func (c *Conn) adaptive() bool { return c.staticRTT >= adaptiveRTTMin }

// clientTimeout is the client retransmission timeout: the legacy
// 60-ms floor, or 3x the path RTT estimate when the path is long.
func (c *Conn) clientTimeout() sim.Time {
	if c.adaptive() {
		if v := 3 * c.rttEst; v > clientRTO {
			return v
		}
	}
	return clientRTO
}

// serverTimeout is the server RTO: the legacy 80-ms floor, or 4x the
// path RTT estimate when the path is long (the server waits out a
// full client-timer cycle before going back-N).
func (c *Conn) serverTimeout() sim.Time {
	if c.adaptive() {
		if v := 4 * c.rttEst; v > RTO {
			return v
		}
	}
	return RTO
}

// Class returns the request-class index the connection was opened
// with (open-loop pools tag connections; handlers pick the document).
func (c *Conn) Class() int { return c.class }

// clientDeliver handles a server->client segment at the client host.
func (c *Conn) clientDeliver(pkt *Packet) {
	if c.owner != nil {
		c.armTimer() // any arrival is progress; push the timer back
	}
	if pkt.Flags&FlagSYN != 0 {
		if c.gotSynAck {
			return // duplicate SYN-ACK
		}
		c.gotSynAck = true
		// The handshake measures the path once: SYN out to SYN-ACK
		// back. The estimate only rises (Karn-style caution: a dup
		// SYN-ACK never produces a second, ambiguous sample).
		if s := c.t.eng.Now() - c.started; s > c.rttEst {
			c.rttEst = s
		}
		c.sendRequest()
		return
	}
	if pkt.Payload > 0 {
		if pkt.Seq != c.got {
			// A predecessor was lost: discard and dup-ACK so the
			// server learns our progress.
			c.sendAck()
			return
		}
		c.got += pkt.Payload
		c.unacked++
		// Delayed ACK: every second segment.
		if c.unacked >= 2 {
			c.unacked = 0
			c.sendAck()
		}
	}
	// The client knows the response length up front, so arrival of the
	// last byte completes the request — a lost FIN must not strand a
	// connection whose data all made it.
	if c.got >= c.expect {
		owner := c.owner
		c.owner = nil
		if owner != nil {
			c.t.eng.Cancel(c.ctimer)
			c.ctimer = sim.Event{}
			if c.lbHeld {
				c.lbHeld = false
				c.lbRef.active[c.lbIdx]--
			}
			// Final cumulative ACK so the server can retire the
			// connection.
			c.sendAck()
			c.traceDone()
			owner.connDone(c, c.t.eng.Now()-c.started)
		}
	}
}

// sendSyn opens (or re-opens) the handshake.
func (c *Conn) sendSyn() {
	syn := c.t.newPacket()
	syn.SrcPort, syn.DstPort, syn.Flags, syn.Conn = c.clientPort, ServerPort, FlagSYN, c
	c.t.xmit(c.fwd, syn, c.backend)
}

// sendRequest piggybacks the HTTP request (a ~200-byte GET) on the
// client's handshake ACK.
func (c *Conn) sendRequest() {
	req := c.t.newPacket()
	req.SrcPort, req.DstPort, req.Conn = c.clientPort, ServerPort, c
	req.Flags, req.Payload = FlagACK|FlagPSH, requestBytes
	c.t.xmit(c.fwd, req, c.backend)
}

// armTimer (re)schedules the client retransmission timer. The server's
// go-back-N covers lost response data; this timer covers everything the
// server cannot know about — a lost SYN, SYN-ACK or request, and lost
// client ACKs that leave both ends waiting. On firing it re-sends
// whatever the exchange is missing and re-arms.
func (c *Conn) armTimer() {
	c.t.eng.Cancel(c.ctimer)
	c.ctimer = c.t.eng.AfterArg(c.clientTimeout(), clientTimerFire, c)
}

// clientTimerFire is the client timer's firing body (package-level so
// re-arming a timer never allocates a closure).
func clientTimerFire(a any) {
	c := a.(*Conn)
	c.ctimer = sim.Event{}
	if c.owner == nil || (c.deadline > 0 && c.t.eng.Now() >= c.deadline) {
		return
	}
	switch {
	case !c.gotSynAck:
		c.sendSyn()
	case c.got == 0:
		c.sendRequest()
	default:
		c.sendAck() // remind the server of our progress
	}
	c.armTimer()
}

// lane is this connection's trace lane (TID): 10000 + the client port.
func (c *Conn) lane() int64 { return 10000 + int64(c.clientPort) }

// traceDone emits the connection's phase spans — handshake+request
// (SYN sent to the server starting the handler) and stream (response
// bytes until the client has everything) — plus the end-to-end span
// and the http.request latency sample (and the class's own series,
// for tagged connections).
func (c *Conn) traceDone() {
	tr := c.sink
	if tr == nil {
		return
	}
	now := c.t.eng.Now()
	pid := c.sinkPID
	if tr.EventsEnabled() {
		// Span records (and their rendered args) only exist on a
		// full tracer; a histogram-only sink skips the strconv work
		// entirely.
		if c.tsReq > c.started {
			tr.Span(pid, c.lane(), "http", "handshake+request", c.started, c.tsReq)
			tr.Span(pid, c.lane(), "http", "stream", c.tsReq, now)
		}
		tr.Span(pid, c.lane(), "http", "conn", c.started, now,
			trace.Arg{Key: "doc", Val: strconv.Itoa(c.reqDocLen)},
			trace.Arg{Key: "port", Val: strconv.Itoa(int(c.clientPort))})
	}
	tr.Observe(pid, "http.request", now-c.started)
	if c.classSeries != "" {
		tr.Observe(pid, c.classSeries, now-c.started)
	}
}

// sendAck transmits a cumulative ACK carrying the client's in-order
// byte count.
func (c *Conn) sendAck() {
	ack := c.t.newPacket()
	ack.SrcPort, ack.DstPort, ack.Conn = c.clientPort, ServerPort, c
	ack.Flags, ack.Ack = FlagACK, c.got
	c.t.xmit(c.fwd, ack, c.backend)
}

// deliverPkt consumes one client-bound delivery (the Conn is the sink
// of its reverse path): unlike the server path, the client processes a
// segment synchronously, so the reference drops as soon as
// clientDeliver returns.
func (c *Conn) deliverPkt(pkt *Packet) {
	c.clientDeliver(pkt)
	c.t.release(pkt)
}

// sendToClient transmits a server segment; Topology.xmit applies the
// fault decisions (loss, duplication, reordering) on the way out.
func (c *Conn) sendToClient(flags uint8, payload, seq int) {
	k := c.backend.K
	k.Stats.Inc(sim.CtrPacketsTx)
	if tr := k.Trace; tr != nil {
		tr.Instant(k.TracePID, c.lane(), "net", "tx", c.t.eng.Now(),
			trace.Arg{Key: "seq", Val: strconv.Itoa(seq)},
			trace.Arg{Key: "payload", Val: strconv.Itoa(payload)})
	}
	pkt := c.t.newPacket()
	pkt.SrcPort, pkt.DstPort, pkt.Conn = ServerPort, c.clientPort, c
	pkt.Flags, pkt.Payload, pkt.Seq = flags, payload, seq
	c.t.xmit(c.rev, pkt, c)
}

// ClientPool drives nClients closed-loop HTTP clients against the
// server: each opens a connection, sends one request, reads the full
// response, and immediately issues the next. Connections round-robin
// across parallel links.
type ClientPool struct {
	t        *Topology
	from     HostID
	target   HostID
	docSize  int
	nextPort uint32

	stopAt    sim.Time
	Completed int
	Bytes     int64
	latSum    sim.Time
	LatMax    sim.Time
}

// requestBytes is the size of an HTTP GET.
const requestBytes = 200

// responseHeader is the HTTP response header size.
const responseHeader = 200

// ServerPort is the HTTP port.
const ServerPort = 80

// NewClientPool prepares n closed-loop clients at host `from`
// fetching docSize-byte documents from `target` (a NIC host or a load
// balancer).
func (t *Topology) NewClientPool(from, target HostID, clients, docSize int, stopAt sim.Time) *ClientPool {
	p := &ClientPool{t: t, from: from, target: target, docSize: docSize,
		nextPort: 10000, stopAt: stopAt}
	for i := 0; i < clients; i++ {
		// Stagger starts slightly for a clean ramp.
		d := sim.Time(i) * 100
		t.eng.AfterArg(d, poolStart, p)
	}
	return p
}

// poolStart launches one closed-loop client (the staggered-start
// event's body).
func poolStart(a any) { a.(*ClientPool).startRequest() }

// startRequest opens a fresh connection and sends the SYN.
func (p *ClientPool) startRequest() {
	if p.t.eng.Now() >= p.stopAt {
		return
	}
	port := p.nextPort
	p.nextPort++
	c := p.t.openConn(p.from, p.target, port, p.docSize, p.stopAt)
	c.owner = p
	c.sendSyn()
	c.armTimer()
}

// connDone books one completed closed-loop request and immediately
// issues the next (the closed loop).
func (p *ClientPool) connDone(_ *Conn, lat sim.Time) {
	p.Completed++
	p.Bytes += int64(p.docSize)
	p.latSum += lat
	if lat > p.LatMax {
		p.LatMax = lat
	}
	p.startRequest()
}

// MeanLatency reports the average request latency.
func (p *ClientPool) MeanLatency() sim.Time {
	if p.Completed == 0 {
		return 0
	}
	return p.latSum / sim.Time(p.Completed)
}
