package netsim

import (
	"xok/internal/dpf"
	"xok/internal/kernel"
	"xok/internal/sim"
)

// HostID names one node of a Topology.
type HostID int

// sink consumes packets that reach the end of their path: a *NIC (the
// server receive path) or a *Conn (the scripted client endpoint).
// Using an interface instead of a func value keeps xmit calls
// alloc-free — binding a method value allocates, converting a pointer
// to an interface does not.
type sink interface {
	deliverPkt(*Packet)
}

// transit is one segment in flight across one hop: the pooled record
// link.transmit schedules instead of a fresh closure per hop (at
// connection scale the per-hop closures were the fabric's dominant
// allocation).
type transit struct {
	t    *Topology
	path []hop
	i    int
	pkt  *Packet
	to   sink
}

// transitArrive is the arrival event for one hop: forward an inner
// hop or deliver to the sink. Package-level so scheduling it via
// AtArg captures nothing.
func transitArrive(a any) {
	tr := a.(*transit)
	t := tr.t
	if tr.i+1 < len(tr.path) {
		t.forward(tr.path, tr.i+1, tr.pkt, tr.to)
	} else {
		tr.to.deliverPkt(tr.pkt)
	}
	t.freeTransit(tr)
}

// Policy selects how a load balancer spreads new connections over its
// backends.
type Policy int

// The balancing policies.
const (
	// RoundRobin assigns backends cyclically in link-insertion order.
	RoundRobin Policy = iota
	// LeastConnections assigns the backend with the fewest connections
	// currently open through this balancer; ties break toward the
	// lowest backend index, so assignment is deterministic.
	LeastConnections
)

// String names the policy as the cluster report does.
func (p Policy) String() string {
	switch p {
	case RoundRobin:
		return "round-robin"
	case LeastConnections:
		return "least-conn"
	}
	return "policy?"
}

// LinkSpec describes one full-duplex LAN link; every link adds the
// same one-way sim.LinkLatency. The zero value is a stock Ethernet:
// sim.LinkBandwidthBps.
type LinkSpec struct {
	// BandwidthBps is the link speed in bits/second (0 = the default
	// 100-Mbit Ethernet).
	BandwidthBps uint64
}

// link is one full-duplex wire between two hosts. Direction 0 runs
// from the first host given to Topology.Link, direction 1 back; each
// direction serializes frames against its own transmit horizon, with
// an unbounded backlog: the LAN loses nothing.
type link struct {
	bps  uint64
	busy [2]sim.Time
}

// transmit serializes a frame on one direction and schedules its
// arrival record, on the fabric's engine, after the wire time (payload
// plus TCP/IP headers) plus propagation.
func (l *link) transmit(dir int, payload int, tr *transit) {
	eng := tr.t.eng
	start := eng.Now()
	if l.busy[dir] > start {
		start = l.busy[dir]
	}
	tx := sim.WireTimeAt(payload+ipTCPHeader, l.bps)
	l.busy[dir] = start + tx
	eng.AtArg(start+tx+sim.LinkLatency, transitArrive, tr)
}

// hop is one directed traversal of a link.
type hop struct {
	l   *link
	dir int
}

// trunkSet is the parallel links from one host to one adjacent peer,
// with the rotation cursor that spreads successive connections across
// them (the paper's server has three Ethernets; clients round-robin
// over them).
type trunkSet struct {
	peer HostID
	hops []hop
	rr   int
}

// next returns the set's next link in rotation (one call per
// connection gives the per-connection link round-robin).
func (ts *trunkSet) next() hop {
	h := ts.hops[ts.rr%len(ts.hops)]
	ts.rr++
	return h
}

// host is one node: a plain traffic source/sink (clients), a
// machine's network interface (nic set) or a load balancer (lb set).
type host struct {
	id     HostID
	name   string
	nic    *NIC
	lb     *lbState
	trunks []*trunkSet // links out of this host, one set per peer, in first-link order
}

// trunkTo returns the host's trunk set toward peer, nil if none.
func (h *host) trunkTo(peer HostID) *trunkSet {
	for _, ts := range h.trunks {
		if ts.peer == peer {
			return ts
		}
	}
	return nil
}

// lbState is a load balancer's connection table.
type lbState struct {
	policy   Policy
	backends []*trunkSet // trunks to the NIC hosts directly linked, insertion order
	active   []int       // connections currently open per backend
	assigned []int64     // total connections ever assigned per backend
	rr       int
}

// freeze fixes the balancer's backend set at its first connection:
// the trunks to its directly linked NIC hosts, in link-insertion order.
func (l *lbState) freeze(t *Topology, h *host) {
	for _, ts := range h.trunks {
		if t.hosts[ts.peer].nic != nil {
			l.backends = append(l.backends, ts)
		}
	}
	if len(l.backends) == 0 {
		panic("netsim: load balancer has no NIC backends")
	}
	l.active = make([]int, len(l.backends))
	l.assigned = make([]int64, len(l.backends))
}

// pick chooses a backend for a new connection and records it open.
func (l *lbState) pick() int {
	var i int
	switch l.policy {
	case LeastConnections:
		for j := 1; j < len(l.backends); j++ {
			if l.active[j] < l.active[i] {
				i = j
			}
		}
	default: // RoundRobin
		i = l.rr % len(l.backends)
		l.rr++
	}
	l.active[i]++
	l.assigned[i]++
	return i
}

// Topology is a LAN fabric: hosts joined by links, with machines
// (kernels) attached at NIC hosts and optional load-balancer nodes
// spreading connections over a cluster. A connection's path is one
// hop to an adjacent NIC host, or two through an adjacent balancer.
// All hosts share one event engine and therefore one virtual clock.
//
// Everything is deterministic: parallel links rotate per connection
// and balancer policies break ties by index. Like the paper's testbed
// the LAN is lossless: links queue without bound, and every frame put
// on the wire arrives, once and in order.
type Topology struct {
	eng   *sim.Engine
	hosts []*host

	// Drops counts frames a NIC received that no packet filter claimed.
	Drops int64

	// freePkts recycles Packet objects: a saturated run sends hundreds
	// of thousands of segments whose lifetime is a few events.
	freePkts []*Packet
	// freeTransits recycles the per-hop delivery records the same way.
	freeTransits []*transit
	// freeConns recycles connections whose lifetime has ended (see
	// Conn); connsRecycled counts the Conns put there.
	freeConns     []*Conn
	connsRecycled int64
}

// NewTopology builds an empty fabric on a fresh event engine.
func NewTopology() *Topology {
	return NewTopologyOn(sim.NewEngine())
}

// NewTopologyOn builds an empty fabric on an existing engine —
// machines attached later must already run on the same engine.
func NewTopologyOn(eng *sim.Engine) *Topology {
	return &Topology{eng: eng}
}

// Engine returns the fabric's event engine. Machines joining the
// fabric boot with kernel.Config.Eng set to it.
func (t *Topology) Engine() *sim.Engine { return t.eng }

func (t *Topology) addHost(name string) *host {
	h := &host{id: HostID(len(t.hosts)), name: name}
	t.hosts = append(t.hosts, h)
	return h
}

// AddHost adds a plain host: a traffic source/sink with no machine
// behind it (client populations live here — the paper saturates the
// server from client hosts whose CPU is not modelled).
func (t *Topology) AddHost(name string) HostID {
	return t.addHost(name).id
}

// AttachKernel adds a NIC host for an already-booted machine. The
// kernel must run on the fabric's engine (boot it with
// kernel.Config.Eng = t.Engine(), or let machine.Config.Net do it).
func (t *Topology) AttachKernel(name string, k *kernel.Kernel) HostID {
	if k.Eng != t.eng {
		panic("netsim: AttachKernel: kernel is not on the topology's engine")
	}
	h := t.addHost(name)
	h.nic = &NIC{t: t, K: k, DPF: dpf.NewEngine()}
	return h.id
}

// LoadBalancer adds a switch/load-balancer node. Its backends are the
// NIC hosts directly linked to it (in link-insertion order), frozen
// at the first connection; new connections opened at the balancer are
// spread over them by the policy, and their packets traverse it as an
// ordinary forwarding hop.
func (t *Topology) LoadBalancer(policy Policy) HostID {
	h := t.addHost("lb")
	h.lb = &lbState{policy: policy}
	return h.id
}

// NIC returns the NIC at a host created with AttachKernel.
func (t *Topology) NIC(id HostID) *NIC {
	h := t.hosts[id]
	if h.nic == nil {
		panic("netsim: host " + h.name + " has no NIC")
	}
	return h.nic
}

// Link joins two hosts with one full-duplex link. Linking the same
// pair again adds a parallel trunk; connections rotate across trunks.
func (t *Topology) Link(a, b HostID, spec LinkSpec) {
	if spec.BandwidthBps == 0 {
		spec.BandwidthBps = sim.LinkBandwidthBps
	}
	l := &link{bps: spec.BandwidthBps}
	t.addTrunk(a, b, hop{l: l, dir: 0})
	t.addTrunk(b, a, hop{l: l, dir: 1})
}

// addTrunk adds one directed hop to from's trunk set toward to.
func (t *Topology) addTrunk(from, to HostID, h hop) {
	fh := t.hosts[from]
	ts := fh.trunkTo(to)
	if ts == nil {
		ts = &trunkSet{peer: to}
		fh.trunks = append(fh.trunks, ts)
	}
	ts.hops = append(ts.hops, h)
}

// Assignments reports how many connections a balancer has assigned to
// each backend so far, in backend order (fairness tests read this).
func (t *Topology) Assignments(lb HostID) []int64 {
	h := t.hosts[lb]
	if h.lb == nil {
		panic("netsim: host is not a load balancer")
	}
	return append([]int64(nil), h.lb.assigned...)
}

// hopTo returns the next of the parallel links from one host to an
// adjacent one; hosts with no link between them panic, naming both.
func (t *Topology) hopTo(from, to HostID) hop {
	ts := t.hosts[from].trunkTo(to)
	if ts == nil {
		panic("netsim: no link from " + t.hosts[from].name + " to " + t.hosts[to].name)
	}
	return ts.next()
}

// appendReverse appends fwd's links walked the other way onto dst.
func appendReverse(dst, fwd []hop) []hop {
	for i := len(fwd) - 1; i >= 0; i-- {
		dst = append(dst, hop{l: fwd[i].l, dir: 1 - fwd[i].dir})
	}
	return dst
}

// newPacket returns a zeroed Packet from the fabric's freelist.
func (t *Topology) newPacket() *Packet {
	if k := len(t.freePkts); k > 0 {
		p := t.freePkts[k-1]
		t.freePkts = t.freePkts[:k-1]
		*p = Packet{}
		return p
	}
	return &Packet{}
}

// release frees a delivered (or dropped) packet; the last live packet
// of a retired connection frees the Conn.
func (t *Topology) release(p *Packet) {
	t.freePkts = append(t.freePkts, p)
	if c := p.Conn; c != nil {
		c.pkts--
		if c.pkts == 0 && c.retired() {
			*c = Conn{freed: true}
			t.freeConns = append(t.freeConns, c)
			t.connsRecycled++
		}
	}
}

// newConn returns a zeroed Conn from the fabric's freelist.
func (t *Topology) newConn() *Conn {
	if k := len(t.freeConns); k > 0 {
		c := t.freeConns[k-1]
		t.freeConns = t.freeConns[:k-1]
		c.freed = false
		return c
	}
	return &Conn{}
}

// newTransit returns a zeroed delivery record from the fabric's
// freelist.
func (t *Topology) newTransit() *transit {
	if k := len(t.freeTransits); k > 0 {
		tr := t.freeTransits[k-1]
		t.freeTransits = t.freeTransits[:k-1]
		return tr
	}
	return &transit{}
}

// freeTransit recycles a finished delivery record.
func (t *Topology) freeTransit(tr *transit) {
	*tr = transit{}
	t.freeTransits = append(t.freeTransits, tr)
}

// xmit puts one segment on the wire along a path of hops. It arrives
// exactly once: the sink it reaches owns it from then on and releases
// it. From here until that release, the packet counts toward its
// Conn's live packets.
func (t *Topology) xmit(path []hop, pkt *Packet, to sink) {
	if c := pkt.Conn; c != nil {
		c.pkts++
	}
	t.forward(path, 0, pkt, to)
}

// forward sends the segment across hop i; its transit record recurses
// to i+1 on arrival.
func (t *Topology) forward(path []hop, i int, pkt *Packet, to sink) {
	h := path[i]
	tr := t.newTransit()
	tr.t, tr.path, tr.i = t, path, i
	tr.pkt, tr.to = pkt, to
	h.l.transmit(h.dir, pkt.Payload, tr)
}

// openConn builds a connection from a client host to a server: either
// directly to an adjacent NIC host, or to an adjacent load balancer,
// which picks a backend by its policy at connection-open time (an L4
// balancer's connection table) and forwards every packet as an
// ordinary hop. Both paths fit the connection's inline buffer.
func (t *Topology) openConn(from, target HostID, port uint32, docSize int, deadline sim.Time) *Conn {
	c := t.newConn()
	c.t, c.clientPort = t, port
	c.expect, c.reqDocLen = responseHeader+docSize, docSize
	c.started, c.deadline = t.eng.Now(), deadline
	c.pathBuf[0] = t.hopTo(from, target)
	hops := 1
	dst := t.hosts[target]
	if lb := dst.lb; lb != nil {
		if lb.backends == nil {
			lb.freeze(t, dst)
		}
		idx := lb.pick()
		c.lbRef, c.lbIdx, c.lbHeld = lb, idx, true
		ts := lb.backends[idx]
		c.pathBuf[1] = ts.next()
		hops = 2
		dst = t.hosts[ts.peer]
	}
	if dst.nic == nil {
		panic("netsim: connection target " + dst.name + " has no NIC")
	}
	c.backend = dst.nic
	c.fwd = c.pathBuf[:hops:hops]
	c.rev = appendReverse(c.pathBuf[pathHalf:pathHalf:2*pathHalf], c.fwd)
	// Default trace sink: the backend machine's tracer (pools may
	// override with their own).
	c.sink = c.backend.K.Trace
	c.sinkPID = c.backend.K.TracePID
	return c
}

// Attachment joins a machine to a fabric: set machine.Config.Net to
// one and machine.New boots the kernel on the topology's engine and
// attaches a NIC host. Host and NIC are outputs, filled by New.
type Attachment struct {
	// Topology is the fabric to join.
	Topology *Topology
	// Name labels the NIC host (default: the machine's name).
	Name string

	// Host is the machine's NIC host, filled by machine.New.
	Host HostID
	// NIC is the attached interface, filled by machine.New.
	NIC *NIC
}
