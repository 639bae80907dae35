package netsim

import (
	"xok/internal/dpf"
	"xok/internal/fault"
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

// transit is one copy of one segment in flight across one hop: the
// pooled record link.transmit schedules instead of a fresh closure per
// hop (at connection scale the per-hop closures were the fabric's
// dominant allocation). The fault decisions are drawn at send time in
// forward — exactly where the closure captured them before.
type transit struct {
	t     *Topology
	path  []hop
	i     int
	pkt   *Packet
	to    sink
	lost  bool
	delay sim.Time
}

// transitArrive is the arrival event for one hop: drop a lost copy,
// forward an inner hop, apply a reorder delay on the last hop, or
// deliver to the sink. Package-level so scheduling it via AtArg /
// AfterArg captures nothing.
func transitArrive(a any) {
	tr := a.(*transit)
	t := tr.t
	switch {
	case tr.lost:
		t.release(tr.pkt)
	case tr.i+1 < len(tr.path):
		t.forward(tr.path, tr.i+1, tr.pkt, tr.to)
	case tr.delay > 0:
		d := tr.delay
		tr.delay = 0
		t.eng.AfterArg(d, transitArrive, tr)
		return // still in flight; the delayed firing frees it
	default:
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

// LinkSpec describes one full-duplex link. The zero value is a stock
// Ethernet: sim.LinkBandwidthBps, sim.LinkLatency, unbounded queue,
// lossless.
type LinkSpec struct {
	// BandwidthBps is the link speed in bits/second (0 = the default
	// 100-Mbit Ethernet).
	BandwidthBps uint64
	// Latency is the one-way propagation+switch delay (0 = the
	// default sim.LinkLatency).
	Latency sim.Time
	// Queue bounds the per-direction transmit backlog, in full-size
	// frames; a frame arriving at a link whose backlog exceeds it is
	// tail-dropped (counted in Topology.Drops). 0 = unbounded, the
	// legacy behavior.
	Queue int
	// LossRate drops roughly one in LossRate frames on this link
	// only, from a per-link deterministic stream (0 = lossless). The
	// fault plan's loss channel applies on top.
	LossRate int
}

// link is one full-duplex wire between two hosts. Direction 0 is
// a-to-b, direction 1 is b-to-a; each direction serializes frames
// against its own transmit horizon.
type link struct {
	a, b    HostID
	bps     uint64
	latency sim.Time
	queue   int
	loss    int
	lossRNG *sim.RNG
	busy    [2]sim.Time
}

// wire is the serialization time of payload bytes plus TCP/IP headers
// on this link.
func (l *link) wire(payload int) sim.Time {
	return sim.WireTimeAt(payload+ipTCPHeader, l.bps)
}

// full reports whether the direction's backlog at time now exceeds
// the queue bound: the untransmitted horizon is longer than Queue
// full-size frames' worth of wire time.
func (l *link) full(dir int, now sim.Time) bool {
	if l.queue <= 0 {
		return false
	}
	return l.busy[dir]-now > sim.Time(l.queue)*l.wire(MSS)
}

// transmit serializes a frame on one direction and schedules its
// arrival record, on the fabric's engine, after the wire time plus
// propagation.
func (l *link) transmit(dir int, payload int, tr *transit) {
	eng := tr.t.eng
	start := eng.Now()
	if l.busy[dir] > start {
		start = l.busy[dir]
	}
	tx := l.wire(payload)
	l.busy[dir] = start + tx
	eng.AtArg(start+tx+l.latency, transitArrive, tr)
}

// hop is one directed traversal of a link.
type hop struct {
	l   *link
	dir int
}

type hostKind uint8

const (
	kindHost hostKind = iota // plain traffic source/sink (clients)
	kindNIC                  // a machine's network interface
	kindLB                   // load balancer / switch
)

type host struct {
	id   HostID
	name string
	kind hostKind
	nic  *NIC
	lb   *lbState
	adj  []adjEntry // links out of this host, insertion order
}

type adjEntry struct {
	peer HostID
	l    *link
}

// lbState is a load balancer's connection table.
type lbState struct {
	policy   Policy
	backends []HostID // NIC hosts directly linked, insertion order
	active   []int    // connections currently open per backend
	assigned []int64  // total connections ever assigned per backend
	rr       int
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

type pairKey struct{ a, b HostID }

// trunkSet is the parallel links between one ordered host pair, with
// the rotation cursor that spreads successive connections across them
// (the paper's server has three Ethernets; clients round-robin over
// them).
type trunkSet struct {
	hops []hop
	rr   int
}

// Topology is a network fabric: hosts joined by links, with machines
// (kernels) attached at NIC hosts and optional load-balancer nodes
// spreading connections over a cluster. All hosts share one event
// engine and therefore one virtual clock.
//
// Everything is deterministic: routing is BFS over hosts in insertion
// order, parallel links rotate per connection, balancer policies
// break ties by index, and every loss/duplication decision comes from
// a seeded stream.
type Topology struct {
	eng   *sim.Engine
	hosts []*host
	links []*link

	// Faults is the fabric's deterministic fault plan (nil = none):
	// segment loss, duplication and reordering channels.
	Faults *fault.Plan

	// Drops counts frames tail-dropped at a full link queue.
	Drops int64

	paths  map[pairKey][]HostID
	trunks map[pairKey]*trunkSet

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
	return &Topology{
		eng:    eng,
		paths:  make(map[pairKey][]HostID),
		trunks: make(map[pairKey]*trunkSet),
	}
}

// Engine returns the fabric's event engine. Machines joining the
// fabric boot with kernel.Config.Eng set to it.
func (t *Topology) Engine() *sim.Engine { return t.eng }

// Now returns the fabric's virtual time.
func (t *Topology) Now() sim.Time { return t.eng.Now() }

func (t *Topology) addHost(name string, kind hostKind) *host {
	h := &host{id: HostID(len(t.hosts)), name: name, kind: kind}
	t.hosts = append(t.hosts, h)
	return h
}

// AddHost adds a plain host: a traffic source/sink with no machine
// behind it (client populations live here — the paper saturates the
// server from client hosts whose CPU is not modelled).
func (t *Topology) AddHost(name string) HostID {
	return t.addHost(name, kindHost).id
}

// AttachKernel adds a NIC host for an already-booted machine. The
// kernel must run on the fabric's engine (boot it with
// kernel.Config.Eng = t.Engine(), or let machine.Config.Net do it).
func (t *Topology) AttachKernel(name string, k *kernel.Kernel) HostID {
	if k.Eng != t.eng {
		panic("netsim: AttachKernel: kernel is not on the topology's engine")
	}
	h := t.addHost(name, kindNIC)
	h.nic = &NIC{t: t, host: h, K: k, DPF: dpf.NewEngine()}
	return h.id
}

// LoadBalancer adds a switch/load-balancer node. Its backends are the
// NIC hosts directly linked to it (in link-insertion order), frozen
// at the first connection; new connections opened at the balancer are
// spread over them by the policy, and their packets traverse it as an
// ordinary forwarding hop.
func (t *Topology) LoadBalancer(policy Policy) HostID {
	h := t.addHost("lb", kindLB)
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
	if spec.Latency == 0 {
		spec.Latency = sim.LinkLatency
	}
	l := &link{
		a: a, b: b,
		bps: spec.BandwidthBps, latency: spec.Latency,
		queue: spec.Queue, loss: spec.LossRate,
	}
	if l.loss > 0 {
		// Per-link stream, seeded by position so adding links never
		// perturbs another link's decisions.
		l.lossRNG = sim.NewRNG(0x11bead ^ uint64(len(t.links)+1)*0x9e3779b97f4a7c15)
	}
	t.links = append(t.links, l)
	t.hosts[a].adj = append(t.hosts[a].adj, adjEntry{peer: b, l: l})
	t.hosts[b].adj = append(t.hosts[b].adj, adjEntry{peer: a, l: l})
	// Routes and trunk sets may be stale now; recompute lazily.
	clear(t.paths)
	clear(t.trunks)
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

// hostPath returns the host sequence from -> to (inclusive), cached.
// BFS in host/link insertion order makes it deterministic; equal-cost
// choices resolve to the earliest-added route.
func (t *Topology) hostPath(from, to HostID) []HostID {
	key := pairKey{from, to}
	if p, ok := t.paths[key]; ok {
		return p
	}
	parent := make([]HostID, len(t.hosts))
	for i := range parent {
		parent[i] = -1
	}
	parent[from] = from
	queue := []HostID{from}
	for len(queue) > 0 && parent[to] == -1 {
		h := queue[0]
		queue = queue[1:]
		for _, ae := range t.hosts[h].adj {
			if parent[ae.peer] == -1 {
				parent[ae.peer] = h
				queue = append(queue, ae.peer)
			}
		}
	}
	if parent[to] == -1 {
		panic("netsim: no path from " + t.hosts[from].name + " to " + t.hosts[to].name)
	}
	var rev []HostID
	for h := to; h != from; h = parent[h] {
		rev = append(rev, h)
	}
	rev = append(rev, from)
	path := make([]HostID, 0, len(rev))
	for i := len(rev) - 1; i >= 0; i-- {
		path = append(path, rev[i])
	}
	t.paths[key] = path
	return path
}

// trunkFor returns the directed trunk set between adjacent hosts.
func (t *Topology) trunkFor(a, b HostID) *trunkSet {
	key := pairKey{a, b}
	if ts, ok := t.trunks[key]; ok {
		return ts
	}
	ts := &trunkSet{}
	for _, ae := range t.hosts[a].adj {
		if ae.peer != b {
			continue
		}
		dir := 0
		if ae.l.a != a {
			dir = 1
		}
		ts.hops = append(ts.hops, hop{l: ae.l, dir: dir})
	}
	if len(ts.hops) == 0 {
		panic("netsim: hosts not adjacent")
	}
	t.trunks[key] = ts
	return ts
}

// appendPath appends the hop sequence from -> to onto dst, rotating
// each pair's parallel trunks one step (one call per connection gives
// the legacy per-connection link round-robin).
func (t *Topology) appendPath(dst []hop, from, to HostID) []hop {
	hp := t.hostPath(from, to)
	for i := 0; i+1 < len(hp); i++ {
		ts := t.trunkFor(hp[i], hp[i+1])
		dst = append(dst, ts.hops[ts.rr%len(ts.hops)])
		ts.rr++
	}
	return dst
}

// appendReverse appends fwd's links walked the other way onto dst.
func appendReverse(dst, fwd []hop) []hop {
	for i := len(fwd) - 1; i >= 0; i-- {
		dst = append(dst, hop{l: fwd[i].l, dir: 1 - fwd[i].dir})
	}
	return dst
}

// pathRTT is the static round-trip estimate of a path: twice the
// propagation plus one full-size frame's serialization per hop each
// way. Connections seed their RTT estimator with it.
func pathRTT(path []hop) sim.Time {
	var oneWay sim.Time
	for _, h := range path {
		oneWay += h.l.latency + h.l.wire(MSS)
	}
	return 2 * oneWay
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

// release drops one pending delivery; the last one frees the packet,
// and the last live packet of a retired connection frees the Conn.
func (t *Topology) release(p *Packet) {
	p.refs--
	if p.refs != 0 {
		return
	}
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

// xmit puts one segment on the wire along a path of hops, applying
// the fault decisions: loss (per-link LossRate or the fault plan),
// duplication and reordering (fault plan only, the latter on the
// final hop so successors can overtake). A lost segment still
// consumes its wire time — the frame went out, it just never arrives;
// a tail-dropped one (full queue) consumes nothing. A duplicated
// segment is sent twice back to back. Each copy carries one
// reference; a lost or dropped copy releases it, a delivered copy
// passes it to the sink, which owns it from then on. From here until
// its last reference goes, the packet counts toward its Conn's live
// packets.
func (t *Topology) xmit(path []hop, pkt *Packet, to sink) {
	copies := 1
	if t.Faults.DupSegment() {
		copies = 2
	}
	pkt.refs = copies
	if c := pkt.Conn; c != nil {
		c.pkts++
	}
	for i := 0; i < copies; i++ {
		t.forward(path, 0, pkt, to)
	}
}

// forward sends one copy across hop i; its transit record recurses to
// i+1 on arrival. Fault decisions draw in a fixed order (link loss,
// plan loss, plan reorder) at every hop, at send time.
func (t *Topology) forward(path []hop, i int, pkt *Packet, to sink) {
	h := path[i]
	last := i == len(path)-1
	lost := h.l.loss > 0 && h.l.lossRNG.Intn(h.l.loss) == 0
	if t.Faults.DropSegment() {
		lost = true
	}
	var delay sim.Time
	if last && t.Faults.ReorderSegment() {
		delay = 2 * sim.WireTime(sim.EthernetMTU+ipTCPHeader)
	}
	if h.l.full(h.dir, t.eng.Now()) {
		t.Drops++
		t.release(pkt)
		return
	}
	tr := t.newTransit()
	tr.t, tr.path, tr.i = t, path, i
	tr.pkt, tr.to, tr.lost, tr.delay = pkt, to, lost, delay
	h.l.transmit(h.dir, pkt.Payload, tr)
}

// openConn builds a connection from a client host to a server: either
// directly to a NIC host, or to a load balancer, which picks a
// backend by its policy at connection-open time (an L4 balancer's
// connection table) and forwards every packet as an ordinary hop.
func (t *Topology) openConn(from, target HostID, port uint32, docSize int, deadline sim.Time) *Conn {
	c := t.newConn()
	c.t, c.clientPort = t, port
	c.expect, c.reqDocLen = responseHeader+docSize, docSize
	c.started, c.deadline = t.eng.Now(), deadline
	// Paths build into the connection's inline buffer (half each way);
	// a route deeper than pathHalf hops spills to the heap. The cluster
	// fabric is two hops (client -> balancer -> server).
	fwd := c.pathBuf[:0:pathHalf]
	dst := target
	if th := t.hosts[target]; th.kind == kindLB {
		lb := th.lb
		if lb.backends == nil {
			// Freeze the backend set: NIC hosts directly linked, in
			// link-insertion order.
			seen := make(map[HostID]bool)
			for _, ae := range th.adj {
				if t.hosts[ae.peer].kind == kindNIC && !seen[ae.peer] {
					seen[ae.peer] = true
					lb.backends = append(lb.backends, ae.peer)
				}
			}
			if len(lb.backends) == 0 {
				panic("netsim: load balancer has no NIC backends")
			}
			lb.active = make([]int, len(lb.backends))
			lb.assigned = make([]int64, len(lb.backends))
		}
		idx := lb.pick()
		c.lbRef, c.lbIdx, c.lbHeld = lb, idx, true
		dst = lb.backends[idx]
		fwd = t.appendPath(fwd, from, target)
		fwd = t.appendPath(fwd, target, dst)
	} else {
		fwd = t.appendPath(fwd, from, target)
	}
	c.fwd = fwd
	if t.hosts[dst].nic == nil {
		panic("netsim: connection target " + t.hosts[dst].name + " has no NIC")
	}
	c.backend = t.hosts[dst].nic
	if len(fwd) <= pathHalf {
		c.rev = appendReverse(c.pathBuf[pathHalf:pathHalf:2*pathHalf], fwd)
	} else {
		c.rev = appendReverse(make([]hop, 0, len(fwd)), fwd)
	}
	c.staticRTT = pathRTT(c.fwd)
	c.rttEst = c.staticRTT
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
