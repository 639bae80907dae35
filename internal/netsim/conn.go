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
// path buffer: client -> balancer -> server is the longest path.
const pathHalf = 2

// Conn is one HTTP/1.0 connection: server-side state plus the scripted
// client endpoint (clients are other hosts; their logic runs in
// event callbacks with no simulated-CPU accounting — the paper
// saturates the server from multiple client hosts).
//
// Conns recycle through the fabric's freelist, but only once nothing
// can reach them: the client is done (completion cancelled its timer),
// the server retired the connection (RTO cancelled, filter removed),
// the balancer slot is given back, and no Packet naming the Conn is
// still live — in flight, queued in a server inbox or being
// processed. Each Packet counts once from xmit (or the RTO marker)
// until it is released, so a late re-sent segment keeps its Conn out
// of the freelist until it is gone. Any other ending — a client
// deadline give-up, a server stopped with packets still queued, a
// crash — leaves the Conn to the garbage collector. A freed Conn is
// marked, and a packet or timer that reaches one panics rather than
// act on a recycled connection.
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

	// Client-side state. The client accepts segments in order only:
	// the path is FIFO, but a go-back-N retransmission can land
	// behind segments the client already has.
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

	// Server-side retransmission state (the merged file cache /
	// retransmission pool holds the data; nothing is re-read or
	// re-copied on a retransmit).
	srvAccepted bool
	srvTotal    int
	srvAcked    int
	srvDone     bool
	rto         sim.Event

	// pkts counts the live Packets naming this connection; freed marks
	// a Conn on the fabric's freelist.
	pkts  int
	freed bool
}

// retired reports whether both ends are finished with the connection
// and nothing else holds it open; with no live packet left, it can go
// back to the freelist.
func (c *Conn) retired() bool {
	return c.owner == nil && !c.ctimer.Pending() &&
		c.srvDone && !c.rto.Pending() && !c.hasFilter && !c.lbHeld
}

// mustLive panics when a packet or timer reaches a recycled Conn: the
// lifetime rule above makes that unreachable, so reaching it means a
// reference escaped the packet count.
func (c *Conn) mustLive() {
	if c.freed {
		panic("netsim: packet or timer reached a recycled Conn")
	}
}

// clientRTO is the client-side retransmission timeout: shorter than
// the server's RTO so a stalled handshake restarts before the
// server's timer would have a say. On a LAN's sub-millisecond round
// trip a fixed timer is all the fabric needs; it fires only when an
// overloaded server leaves the exchange waiting longer than that.
const clientRTO = 60 * sim.Millisecond

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
		c.sendRequest()
		return
	}
	if pkt.Payload > 0 {
		if pkt.Seq != c.got {
			// Out of order (a retransmission repeating bytes we
			// have): discard and dup-ACK so the server learns our
			// progress.
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
	// last byte completes the request, FIN or not.
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
// go-back-N covers response data it has not seen acknowledged; this
// timer covers the client's side — a SYN, request or ACK whose answer
// is slow to come because the server is busy. On firing it re-sends
// whatever the exchange is missing, counts the re-send in the backend
// machine's sim.CtrResends, and re-arms.
func (c *Conn) armTimer() {
	c.t.eng.Cancel(c.ctimer)
	c.ctimer = c.t.eng.AfterArg(clientRTO, clientTimerFire, c)
}

// clientTimerFire is the client timer's firing body (package-level so
// re-arming a timer never allocates a closure).
func clientTimerFire(a any) {
	c := a.(*Conn)
	c.mustLive()
	c.ctimer = sim.Event{}
	if c.owner == nil || (c.deadline > 0 && c.t.eng.Now() >= c.deadline) {
		return
	}
	c.backend.K.Stats.Inc(sim.CtrResends)
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
	c.mustLive()
	c.clientDeliver(pkt)
	c.t.release(pkt)
}

// sendToClient transmits a server segment.
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
// balancer). No client opens a connection at or past stopAt; the
// caller stops the engine there, so no client timer fires past it.
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
	c := p.t.openConn(p.from, p.target, port, p.docSize, 0)
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
