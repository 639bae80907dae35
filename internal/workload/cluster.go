package workload

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"io"

	"xok/internal/cap"
	"xok/internal/cffs"
	"xok/internal/httpd"
	"xok/internal/kernel"
	"xok/internal/machine"
	"xok/internal/netsim"
	"xok/internal/sim"
	"xok/internal/trace"
)

// ClusterConfig describes one cell of the cluster experiment: N
// machine.New-built servers behind a load balancer, driven by an
// open-loop arrival process (the ROADMAP's "millions of users"
// setting — offered load does not slow down when the servers do).
type ClusterConfig struct {
	// Servers is the backend machine count (default 1).
	Servers int
	// Conns is the total connection arrivals (default 2000).
	Conns int
	// Rate is the offered arrival rate per virtual second (default
	// 12000 — past a single server's capacity, so scaling shows).
	Rate float64
	// Policy spreads connections over the backends.
	Policy netsim.Policy
	// Seed drives arrival spacing and the class mix (default 1).
	Seed uint64
	// Personality is the server OS (default Xok/ExOS, serving with
	// the Socket/Xok stack profile; BSD personalities serve with
	// Socket/BSD).
	Personality machine.Personality
	// Trace, when non-nil, additionally receives every machine's
	// spans plus the request-latency series. It must not be shared
	// with a concurrently running cell (core.Bench passes a fresh
	// tracer per leg and merges in order).
	Trace *trace.Tracer
}

func (cfg ClusterConfig) withDefaults() ClusterConfig {
	if cfg.Servers == 0 {
		cfg.Servers = 1
	}
	if cfg.Conns == 0 {
		cfg.Conns = 2000
	}
	if cfg.Rate == 0 {
		cfg.Rate = 12000
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	return cfg
}

// ClusterClasses is the request mix: mostly small documents with a
// heavier tail class, so the per-class latency series separate.
func ClusterClasses() []netsim.RequestClass {
	return []netsim.RequestClass{
		{Name: "small", DocSize: 512, Weight: 3},
		{Name: "large", DocSize: 8192, Weight: 1},
	}
}

// ClusterClass is one request class's outcome.
type ClusterClass struct {
	Name    string
	DocSize int
	Done    int
	Bytes   int64
	P50     sim.Time
	P99     sim.Time
}

// ClusterResult is one measured cell.
type ClusterResult struct {
	Servers   int
	Policy    netsim.Policy
	Conns     int
	Rate      float64
	Completed int
	Bytes     int64

	// Makespan is first arrival to last completion; ReqPerSec and
	// MBytesPerS are measured over it.
	Makespan   sim.Time
	ReqPerSec  float64
	MBytesPerS float64

	// Request latency quantiles, from the internal/trace histogram.
	P50, P90, P99, Max sim.Time

	Classes []ClusterClass

	// Assignments is connections per backend, in backend order.
	Assignments []int64
	// Retransmits sums the server machines' go-back-N retransmits;
	// Resends sums the clients' timer re-sends (SYN, request or ACK),
	// charged to the backend each connection went to; Drops counts
	// packets that reached a server NIC and no filter claimed.
	Retransmits int64
	Resends     int64
	Drops       int64

	// EngineEvents is the cell engine's dispatched-event count
	// (sim.CtrEngineEvents; the denominator-free half of the
	// events-per-host-second throughput metric). It is not part of the
	// report or the digest.
	EngineEvents int64

	// Digest fingerprints the cell's latency series (and, when the
	// cell was traced, everything else on the tracer): identical
	// runs produce identical digests at any -parallel setting.
	Digest uint64
}

// clusterProfile maps the server personality onto a Figure-3 stack
// cost profile.
func clusterProfile(p machine.Personality) netsim.StackConfig {
	kind := httpd.SocketBSD
	if p == machine.XokExOS || p == machine.XokUnprotected {
		kind = httpd.SocketXok
	}
	return kind.StackProfile()
}

// stageClusterDocs creates one document per request class on the
// machine.
func stageClusterDocs(m machine.Machine, classes []netsim.RequestClass) error {
	fs := m.FS
	var stageErr error
	m.K.Spawn("stage", func(e *kernel.Env) {
		e.Creds = cap.UnixCreds(0)
		if err := fs.Mkdir(e, "/docs", 0, 0, 7); err != nil {
			stageErr = err
			return
		}
		for _, cl := range classes {
			ref, err := fs.Create(e, "/docs/"+cl.Name, 0, 0, 6)
			if err != nil {
				stageErr = err
				return
			}
			if cl.DocSize > 0 {
				if _, err := fs.WriteAt(e, ref, 0, make([]byte, cl.DocSize)); err != nil {
					stageErr = err
					return
				}
			}
		}
		stageErr = fs.Sync(e)
	})
	m.Run()
	return stageErr
}

// clusterHandler serves the staged document for the connection's
// request class: parse, lookup, read into a user buffer. The document
// paths and the read buffer are hoisted out of the per-request path —
// at 100k connections a fresh path string and buffer per request is
// real host-side garbage (the simulated costs are identical either
// way: Use/ReadAt charges don't depend on buffer identity).
func clusterHandler(fs *cffs.FS, classes []netsim.RequestClass) netsim.Handler {
	paths := make([]string, len(classes))
	for i, cl := range classes {
		paths[i] = "/docs/" + cl.Name
	}
	var buf []byte
	return func(e *kernel.Env, c *netsim.Conn) int {
		e.Use(30 * sim.Microsecond) // parse request, build header
		ref, in, err := fs.Lookup(e, paths[c.Class()])
		if err != nil {
			return 0
		}
		if n := int(in.Size); n > 0 {
			if len(buf) < n {
				buf = make([]byte, n)
			}
			if _, err := fs.ReadAt(e, ref, 0, buf[:n]); err != nil {
				return 0
			}
		}
		return int(in.Size)
	}
}

// clusterEpoch is the virtual instant load starts. The cell's engine
// is run to quiescence after staging and then advanced to this fixed
// epoch before the open-loop arrivals, so load starts at a fixed
// instant whatever staging costs.
const clusterEpoch = 1000 * sim.Millisecond

// Cluster runs one cell: builds the fabric (clients — balancer — N
// server machines), boots and stages every server, then drives the
// open-loop arrivals to completion, all on one event engine.
// Deterministic end to end: the engine orders every event, arrivals
// and the class mix come from the seeded stream, and the balancer's
// choices are policy-deterministic.
func Cluster(cfg ClusterConfig) (ClusterResult, error) {
	cfg = cfg.withDefaults()
	classes := ClusterClasses()

	topo := netsim.NewTopology()
	clients := topo.AddHost("clients")
	lb := topo.LoadBalancer(cfg.Policy)
	// Fat front link: the client aggregate must not be the bottleneck
	// (the per-server Ethernets and CPUs are what's under test).
	topo.Link(clients, lb, netsim.LinkSpec{BandwidthBps: 1_000_000_000})

	// The latency sink: the cell's tracer when the caller wants full
	// tracing, else a private histogram-only tracer so quantiles and
	// the digest exist either way (span recording off — at connection
	// scale the span buffer would dominate the untraced run).
	latTr := cfg.Trace
	if latTr == nil {
		latTr = trace.NewHistOnly()
	}
	pid := latTr.AddProcess(fmt.Sprintf("cluster-%d-%s", cfg.Servers, cfg.Policy))

	machines := make([]machine.Machine, 0, cfg.Servers)
	defer func() {
		for _, m := range machines {
			m.Close()
		}
	}()
	profile := clusterProfile(cfg.Personality)
	for i := 0; i < cfg.Servers; i++ {
		att := &netsim.Attachment{Topology: topo, Name: fmt.Sprintf("srv%d", i)}
		m, err := machine.New(machine.Config{
			Personality: cfg.Personality,
			// Small machines: the cluster stresses the network path,
			// not the disk, and N of them boot per cell.
			DiskBlocks: 1 << 16,
			MemPages:   2048,
			Trace:      cfg.Trace,
			Net:        att,
		})
		if err != nil {
			return ClusterResult{}, fmt.Errorf("cluster: server %d: %w", i, err)
		}
		machines = append(machines, m)
		topo.Link(lb, att.Host, netsim.LinkSpec{})
		if err := stageClusterDocs(m, classes); err != nil {
			return ClusterResult{}, fmt.Errorf("cluster: stage server %d: %w", i, err)
		}
		handler := clusterHandler(m.FS, classes)
		nic := att.NIC
		m.K.Spawn(fmt.Sprintf("httpd%d", i), func(e *kernel.Env) {
			e.Creds = cap.UnixCreds(0)
			nic.Serve(e, profile, handler, 0) // serve forever
		})
	}
	// Settle every server into its listen state, then advance the clock
	// to the load epoch.
	eng := topo.Engine()
	eng.Run()
	if eng.Now() > clusterEpoch {
		return ClusterResult{}, fmt.Errorf("cluster: staging ran to %v, past the load epoch %v", eng.Now(), clusterEpoch)
	}
	eng.RunUntil(clusterEpoch)

	pool := topo.OpenLoop(netsim.OpenLoopConfig{
		From: clients, Target: lb,
		Conns: cfg.Conns, Rate: cfg.Rate,
		Seed:    cfg.Seed,
		Classes: classes,
		Trace:   latTr, TracePID: pid,
	})
	eng.Run()

	res := ClusterResult{
		Servers: cfg.Servers, Policy: cfg.Policy,
		Conns: cfg.Conns, Rate: cfg.Rate,
		Completed: pool.Completed, Bytes: pool.Bytes,
		Makespan:    pool.Makespan(),
		Assignments: topo.Assignments(lb),
		Drops:       topo.Drops,
	}
	if secs := res.Makespan.Seconds(); secs > 0 {
		res.ReqPerSec = float64(res.Completed) / secs
		res.MBytesPerS = float64(res.Bytes) / secs / 1e6
	}
	if h := latTr.Hist(pid, "http.request"); h != nil {
		res.P50 = h.Quantile(0.50)
		res.P90 = h.Quantile(0.90)
		res.P99 = h.Quantile(0.99)
		res.Max = h.Max()
	}
	for i, cl := range classes {
		cc := ClusterClass{Name: cl.Name, DocSize: cl.DocSize,
			Done: pool.ClassDone[i], Bytes: pool.ClassBytes[i]}
		if h := latTr.Hist(pid, "http."+cl.Name); h != nil {
			cc.P50 = h.Quantile(0.50)
			cc.P99 = h.Quantile(0.99)
		}
		res.Classes = append(res.Classes, cc)
	}
	for _, m := range machines {
		res.Retransmits += m.Stats().Get(sim.CtrRetransmits)
		res.Resends += m.Stats().Get(sim.CtrResends)
	}
	res.EngineEvents = eng.Dispatched()
	if len(machines) > 0 {
		machines[0].Stats().Add(sim.CtrEngineEvents, res.EngineEvents)
	}
	res.Digest = latTr.Digest()
	return res, nil
}

// baselineCellCeiling is the largest connection count at which the
// sweep still runs its 1-server baseline cell. A single server
// sustains ~1.2k req/s at the standard mix, so past this scale the
// baseline is pure overload backlog — every arrival queues behind
// ~all the others, armed RTOs churn retransmissions, and the cell
// measures nothing but its own congestion while dominating the
// sweep's wall-clock. The cluster cells stay meaningful at any size.
const baselineCellCeiling = 20000

// ClusterCells is the standard sweep at a fixed offered load: one
// server as the baseline, then the full cluster under both balancing
// policies. Beyond baselineCellCeiling connections the baseline cell
// is omitted (see above); pass servers=1 to force a single-server
// run at any scale.
func ClusterCells(servers, conns int, rate float64) []ClusterConfig {
	base := ClusterConfig{Servers: 1, Conns: conns, Rate: rate, Policy: netsim.RoundRobin}
	if servers <= 1 {
		lc := base
		lc.Policy = netsim.LeastConnections
		return []ClusterConfig{base, lc}
	}
	rr := base
	rr.Servers = servers
	lc := rr
	lc.Policy = netsim.LeastConnections
	if conns > baselineCellCeiling {
		return []ClusterConfig{rr, lc}
	}
	return []ClusterConfig{base, rr, lc}
}

// ms renders a sim.Time in milliseconds for the report.
func ms(t sim.Time) float64 { return t.Seconds() * 1e3 }

// WriteClusterReport renders the cells the way xok-bench prints them
// (the parallel-determinism test renders into a buffer and compares
// bytes across worker counts).
func WriteClusterReport(w io.Writer, rs []ClusterResult) {
	if len(rs) == 0 {
		return
	}
	fmt.Fprintf(w, "open-loop load: %d conns at %.0f/s (Poisson), mix", rs[0].Conns, rs[0].Rate)
	for _, cl := range ClusterClasses() {
		fmt.Fprintf(w, " %s=%dB(w%d)", cl.Name, cl.DocSize, cl.Weight)
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "%7s  %-11s %6s %9s %7s %9s %9s %9s %9s %5s %7s %6s\n",
		"servers", "policy", "done", "req/s", "MB/s",
		"p50(ms)", "p90(ms)", "p99(ms)", "max(ms)", "rtx", "resends", "drops")
	for _, r := range rs {
		fmt.Fprintf(w, "%7d  %-11s %6d %9.0f %7.2f %9.2f %9.2f %9.2f %9.2f %5d %7d %6d\n",
			r.Servers, r.Policy, r.Completed, r.ReqPerSec, r.MBytesPerS,
			ms(r.P50), ms(r.P90), ms(r.P99), ms(r.Max), r.Retransmits, r.Resends, r.Drops)
	}
	last := rs[len(rs)-1]
	for _, cc := range last.Classes {
		fmt.Fprintf(w, "class %-6s (%d servers, %s): done=%d  p50=%.2fms  p99=%.2fms\n",
			cc.Name, last.Servers, last.Policy, cc.Done, ms(cc.P50), ms(cc.P99))
	}
	fmt.Fprintf(w, "balancer spread (%s): %v\n", last.Policy, last.Assignments)
	if base, scaled := rs[0], bestCell(rs); scaled.Servers > base.Servers && base.ReqPerSec > 0 {
		fmt.Fprintf(w, "scaling: %d-server/%d-server throughput = %.2fx\n",
			scaled.Servers, base.Servers, scaled.ReqPerSec/base.ReqPerSec)
	}
	fmt.Fprintf(w, "latency digest: %#x\n", ClusterDigest(rs))
}

// bestCell is the round-robin cell with the most servers (the scaling
// numerator).
func bestCell(rs []ClusterResult) ClusterResult {
	best := rs[0]
	for _, r := range rs {
		if r.Policy == netsim.RoundRobin && r.Servers > best.Servers {
			best = r
		}
	}
	return best
}

// ClusterDigest folds the cells' latency digests into one
// fingerprint, in cell order.
func ClusterDigest(rs []ClusterResult) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for _, r := range rs {
		binary.LittleEndian.PutUint64(buf[:], r.Digest)
		h.Write(buf[:])
	}
	return h.Sum64()
}
