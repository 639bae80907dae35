package netsim

import (
	"xok/internal/dpf"
	"xok/internal/kernel"
	"xok/internal/sim"
)

// StackConfig is the server-side protocol cost profile. The five HTTP
// servers of Figure 3 differ exactly in these knobs:
//
//   - the OpenBSD socket stack pays heavy per-packet and
//     per-connection kernel work, copies every payload into a kernel
//     retransmission pool and checksums it at send time, and emits
//     separate control packets (ACK of the request, standalone FIN);
//   - the XIO-based socket stack on Xok is the same interface with a
//     leaner user-level implementation (protocol control block reuse,
//     cheaper crossings);
//   - Cheetah additionally transmits file data directly from the file
//     cache with precomputed checksums (no copies, no checksum at
//     send), and merges control packets into data packets
//     ("knowledge-based packet merging").
type StackConfig struct {
	Name           string
	PerConn        sim.Time // connection setup/teardown CPU
	PerPacket      sim.Time // per-segment stack processing
	AckCost        sim.Time // processing one client ACK
	CopyOnSend     bool     // copy payloads into a retransmission pool
	ChecksumOnSend bool     // checksum each segment at send time
	SeparateReqAck bool     // ACK the request in its own packet
	SeparateFIN    bool     // FIN as its own packet
	ForkPerRequest sim.Time // NCSA: fork+exec a handler per request
}

// Handler produces the response body length for a request and performs
// the server's file system work in the server environment. The Conn is
// valid only until the handler returns: the fabric recycles it once the
// exchange ends, so a handler must not keep it.
type Handler func(e *kernel.Env, conn *Conn) int

// flagRetransmit is an internal inbox marker: the RTO timer fired.
const flagRetransmit uint8 = 0x80

// RTO is the server retransmission timeout.
const RTO = 80 * sim.Millisecond

// NIC is a machine's interface on the fabric: the receive path
// charges the machine's CPU for the interrupt and packet filter, and
// the server stack transmits from here.
type NIC struct {
	t   *Topology
	K   *kernel.Kernel
	DPF *dpf.Engine

	stack  *Stack
	hdrBuf [9]byte // rx filter-match scratch
}

// deliverPkt is the NIC receive path (the NIC is the sink of every
// client->server path): interrupt, packet filter, enqueue on the
// owner's ring, wake the server. A packet no filter claims is dropped
// and counted in Topology.Drops, the fabric's one drop point.
func (nic *NIC) deliverPkt(pkt *Packet) {
	nic.K.ChargeInterrupt(sim.CostNICInterrupt)
	nic.K.Stats.Inc(sim.CtrPacketsRx)
	if tr := nic.K.Trace; tr != nil && pkt.Conn != nil {
		tr.Instant(nic.K.TracePID, pkt.Conn.lane(), "net", "rx", nic.t.eng.Now())
	}
	nic.K.ChargeInterrupt(sim.CostPacketFilter)
	owner, ok := nic.DPF.Dispatch(pkt.HeaderInto(nic.hdrBuf[:]))
	ring, isRing := owner.(*ring)
	if !ok || !isRing {
		nic.t.Drops++
		nic.t.release(pkt)
		return
	}
	ring.push(pkt)
}

// ring is a packet ring bound to the server stack ("packet rings ...
// allow protected buffering of received network packets", Section
// 5.2.1).
type ring struct {
	stack *Stack
}

func (r *ring) push(pkt *Packet) {
	s := r.stack
	s.inbox = append(s.inbox, pkt)
	if s.env != nil {
		s.nic.K.Wake(s.env)
	}
}

// Stack is the server's protocol endpoint.
type Stack struct {
	nic *NIC
	cfg StackConfig
	env *kernel.Env

	// inbox is a head-indexed queue: wait pops from inHead and the
	// storage is reclaimed wholesale when it drains, so steady-state
	// receive buffering allocates nothing (the old inbox[1:] drift
	// forced append to reallocate continuously).
	inbox   []*Packet
	inHead  int
	rg      ring // shared filter owner: one ring per stack, not per conn
	handler Handler
	// connFilter is the scratch a connection's filter is built in; the
	// filter engine copies it on Insert.
	connFilter dpf.Filter
	connCmps   [2]dpf.Cmp

	// stopAt ends the server loop at a deadline; 0 serves forever
	// (the loop exits only when the machine shuts down).
	stopAt sim.Time
}

// Serve installs the listen filter and runs the server loop in env
// until stopAt (0 = serve forever; then the environment exits).
func (nic *NIC) Serve(env *kernel.Env, cfg StackConfig, handler Handler, stopAt sim.Time) *Stack {
	s := &Stack{nic: nic, cfg: cfg, env: env, handler: handler, stopAt: stopAt}
	s.rg.stack = s
	nic.stack = s
	listen := &dpf.Filter{Cmps: []dpf.Cmp{dpf.Eq32(0, ServerPort)}}
	if _, err := nic.DPF.Insert(listen, &s.rg); err != nil {
		panic("netsim: listen filter: " + err.Error())
	}
	if stopAt > 0 {
		// Stop event so the server wakes up and notices the deadline
		// even if traffic is in flight.
		nic.t.eng.At(stopAt, func() { nic.K.Wake(env) })
	}
	s.loop()
	return s
}

// expired reports whether the serve deadline has passed.
func (s *Stack) expired() bool {
	return s.stopAt > 0 && s.nic.t.eng.Now() >= s.stopAt
}

// wait blocks the server until a packet arrives or the deadline hits.
func (s *Stack) wait() *Packet {
	for s.inHead == len(s.inbox) {
		if s.expired() {
			return nil
		}
		s.env.Block()
	}
	pkt := s.inbox[s.inHead]
	s.inbox[s.inHead] = nil
	s.inHead++
	if s.inHead == len(s.inbox) {
		s.inbox = s.inbox[:0]
		s.inHead = 0
	}
	return pkt
}

func (s *Stack) loop() {
	for {
		pkt := s.wait()
		if pkt == nil {
			return
		}
		if s.expired() {
			return
		}
		c := pkt.Conn
		c.mustLive()
		switch {
		case pkt.Flags&flagRetransmit != 0:
			s.retransmit(c)
		case pkt.Flags&FlagSYN != 0:
			s.acceptConn(c)
		case pkt.Payload > 0: // the HTTP request
			s.serveRequest(c)
		default: // bare ACK
			s.env.Use(s.cfg.AckCost)
			if pkt.Ack > c.srvAcked {
				c.srvAcked = pkt.Ack
			}
			if !c.srvDone && c.srvTotal > 0 && c.srvAcked >= c.srvTotal {
				s.retireConn(c)
			}
		}
		// The ring handed us this delivery; processing is done.
		s.nic.t.release(pkt)
	}
}

// acceptConn performs the server side of the handshake: PCB setup and
// a connection-specific packet filter, then SYN-ACK.
func (s *Stack) acceptConn(c *Conn) {
	if c.srvAccepted {
		// Duplicate SYN (the client's timer re-sent it while the
		// first waited in an overloaded server's inbox): re-send the
		// SYN-ACK without setting up a second PCB or filter.
		c.sendToClient(FlagSYN|FlagACK, 0, 0)
		return
	}
	c.srvAccepted = true
	s.env.Use(s.cfg.PerConn)
	s.connCmps = [2]dpf.Cmp{dpf.Eq32(0, ServerPort), dpf.Eq32(4, c.clientPort)}
	s.connFilter.Cmps = s.connCmps[:]
	id, err := s.nic.DPF.Insert(&s.connFilter, &s.rg)
	if err == nil {
		c.filterID = id
		c.hasFilter = true
	}
	c.sendToClient(FlagSYN|FlagACK, 0, 0)
}

// serveRequest runs the handler and streams the response.
func (s *Stack) serveRequest(c *Conn) {
	if c.srvTotal > 0 || c.srvDone {
		// Duplicate request (a client retransmit crossed our response):
		// the handler already ran; the RTO covers delivery.
		return
	}
	c.tsReq = s.nic.t.eng.Now()
	// Receive-side processing of the request segment.
	s.env.Use(s.cfg.PerPacket)
	if s.cfg.CopyOnSend {
		s.env.Use(sim.CopyCost(requestBytes))
	}
	if s.cfg.ForkPerRequest > 0 {
		s.nic.K.Stats.Inc(sim.CtrForks)
		s.env.Use(s.cfg.ForkPerRequest)
	}
	if s.cfg.SeparateReqAck {
		s.env.Use(s.cfg.PerPacket)
		c.sendToClient(FlagACK, 0, 0)
	}

	body := s.handler(s.env, c)
	c.srvTotal = responseHeader + body
	c.srvAcked = 0
	s.sendFrom(c, 0, true)
	s.armRTO(c)
}

// sendFrom streams the response from byte offset `from`. On the first
// transmission copies go into the retransmission pool (socket
// semantics); on retransmits the pool already holds the bytes — no
// copy, only (for BSD-style stacks) a fresh checksum.
func (s *Stack) sendFrom(c *Conn, from int, first bool) {
	total := c.srvTotal
	for off := from; off < total; {
		seg := total - off
		if seg > MSS {
			seg = MSS
		}
		s.env.Use(s.cfg.PerPacket)
		if first && s.cfg.CopyOnSend {
			s.env.Use(sim.CopyCost(seg))
			s.nic.K.Stats.Add(sim.CtrBytesCopied, int64(seg))
		}
		if s.cfg.ChecksumOnSend {
			s.env.Use(sim.ChecksumCost(seg))
			s.nic.K.Stats.Add(sim.CtrChecksums, int64(seg))
		}
		flags := FlagACK | FlagPSH
		if off+seg >= total && !s.cfg.SeparateFIN {
			flags |= FlagFIN // merged FIN (Cheetah-style)
		}
		c.sendToClient(flags, seg, off)
		off += seg
	}
	if s.cfg.SeparateFIN {
		s.env.Use(s.cfg.PerPacket)
		c.sendToClient(FlagFIN|FlagACK, 0, total)
	}
}

// armRTO schedules the retransmission timer; firing enqueues a marker
// packet the server loop handles with CPU properly charged.
func (s *Stack) armRTO(c *Conn) {
	eng := s.nic.t.eng
	eng.Cancel(c.rto)
	c.rto = eng.AfterArg(RTO, rtoFire, c)
}

// rtoFire is the RTO firing body (package-level so the dominant
// arm/cancel timer churn never allocates). The stack is reached
// through the connection's backend NIC — the same stack armRTO ran on.
func rtoFire(a any) {
	c := a.(*Conn)
	c.mustLive()
	c.rto = sim.Event{}
	s := c.backend.stack
	if s == nil || c.srvDone || s.expired() {
		return
	}
	mp := s.nic.t.newPacket()
	mp.Flags, mp.Conn = flagRetransmit, c
	c.pkts++
	s.inbox = append(s.inbox, mp)
	s.nic.K.Wake(s.env)
}

// retransmit resends the unacknowledged tail (go-back-N) out of the
// retransmission pool.
func (s *Stack) retransmit(c *Conn) {
	if c.srvDone || c.srvAcked >= c.srvTotal {
		return
	}
	s.nic.K.Stats.Inc(sim.CtrRetransmits)
	// Align to the segment boundary at or below the cumulative ACK.
	from := (c.srvAcked / MSS) * MSS
	s.sendFrom(c, from, false)
	s.armRTO(c)
}

// retireConn tears down a fully-acknowledged connection.
func (s *Stack) retireConn(c *Conn) {
	if tr := s.nic.K.Trace; tr != nil {
		tr.Instant(s.nic.K.TracePID, c.lane(), "http", "retire", s.nic.t.eng.Now())
	}
	c.srvDone = true
	s.nic.t.eng.Cancel(c.rto)
	c.rto = sim.Event{}
	if c.hasFilter {
		_ = s.nic.DPF.Remove(c.filterID)
		c.hasFilter = false
	}
}
