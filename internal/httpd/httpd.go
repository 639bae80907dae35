// Package httpd implements the five HTTP/1.0 servers of Figure 3 and
// the harness that measures their document throughput:
//
//	NCSA/BSD    — NCSA 1.4.2 on OpenBSD: forks a handler per request.
//	Harvest/BSD — the Harvest proxy cache on OpenBSD: single process,
//	              in-memory object cache (it "stores cached pages in
//	              multiple directories to achieve fast name lookup").
//	Socket/BSD  — the paper's own server over OpenBSD TCP sockets.
//	Socket/Xok  — the same server over the XIO-based socket interface
//	              on Xok ("better by 80-100%").
//	Cheetah     — the Cheetah server: merged file cache/retransmission
//	              pool with precomputed checksums, knowledge-based
//	              packet merging, and HTML-based grouping.
package httpd

import (
	"fmt"

	"xok/internal/cap"
	"xok/internal/cffs"
	"xok/internal/kernel"
	"xok/internal/machine"
	"xok/internal/netsim"
	"xok/internal/sim"
	"xok/internal/trace"
	"xok/internal/xio"
)

// Kind selects a server configuration.
type Kind int

// The five servers, in Figure 3's legend order.
const (
	NCSABSd Kind = iota
	HarvestBSD
	SocketBSD
	SocketXok
	Cheetah
)

// String names the server as the figure does.
func (k Kind) String() string {
	switch k {
	case NCSABSd:
		return "NCSA/BSD"
	case HarvestBSD:
		return "Harvest/BSD"
	case SocketBSD:
		return "Socket/BSD"
	case SocketXok:
		return "Socket/Xok"
	case Cheetah:
		return "Cheetah"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Kinds lists all five servers.
func Kinds() []Kind {
	return []Kind{NCSABSd, HarvestBSD, SocketBSD, SocketXok, Cheetah}
}

// StackProfile is the server's protocol cost profile (Section 7.3
// calibration; see EXPERIMENTS.md). Exported so other harnesses (the
// cluster experiment) can serve with the same calibrated stacks.
func (k Kind) StackProfile() netsim.StackConfig {
	switch k {
	case NCSABSd:
		return netsim.StackConfig{
			Name: k.String(), PerConn: 500 * sim.Microsecond,
			PerPacket: 120 * sim.Microsecond, AckCost: 30 * sim.Microsecond,
			CopyOnSend: true, ChecksumOnSend: true,
			SeparateReqAck: true, SeparateFIN: true,
			ForkPerRequest: sim.CostForkBSD + sim.CostExec,
		}
	case HarvestBSD, SocketBSD:
		return netsim.StackConfig{
			Name: k.String(), PerConn: 500 * sim.Microsecond,
			PerPacket: 120 * sim.Microsecond, AckCost: 30 * sim.Microsecond,
			CopyOnSend: true, ChecksumOnSend: true,
			SeparateReqAck: true, SeparateFIN: true,
		}
	case SocketXok:
		return netsim.StackConfig{
			Name: k.String(), PerConn: 200 * sim.Microsecond,
			PerPacket: 85 * sim.Microsecond, AckCost: 15 * sim.Microsecond,
			CopyOnSend: true, ChecksumOnSend: true,
			SeparateReqAck: true, SeparateFIN: true,
		}
	case Cheetah:
		return netsim.StackConfig{
			Name: k.String(), PerConn: 50 * sim.Microsecond,
			PerPacket: 12 * sim.Microsecond, AckCost: 8 * sim.Microsecond,
			// Merged file cache/retransmission pool: no copies, no
			// send-time checksums; packet merging: no separate
			// control packets.
		}
	}
	panic("httpd: unknown kind")
}

// onXok reports whether the server runs on the exokernel.
func (k Kind) onXok() bool { return k == SocketXok || k == Cheetah }

// Result is one measured cell of Figure 3.
type Result struct {
	Server     string
	DocSize    int
	Requests   int
	ReqPerSec  float64
	MBytesPerS float64
	CPUIdle    float64 // fraction of server CPU left idle
	MeanLat    sim.Time
}

const nDocs = 16

// Opts bundles the measurement knobs so call sites stop threading
// them positionally (Clients defaults to 24, Duration to 300 virtual
// ms).
type Opts struct {
	// Clients is the closed-loop client count.
	Clients int
	// Duration is the measured virtual time window.
	Duration sim.Time
	// Trace, when non-nil, receives the machine's spans and
	// histograms; it must not be shared with a machine running
	// concurrently (internal/parallel callers pass a fresh tracer per
	// leg and merge afterwards).
	Trace *trace.Tracer
}

func (o Opts) withDefaults() Opts {
	if o.Clients == 0 {
		o.Clients = 24
	}
	if o.Duration == 0 {
		o.Duration = 300 * sim.Millisecond
	}
	return o
}

// Measure runs one server at one document size with o.Clients
// closed-loop clients for o.Duration of virtual time.
func Measure(kind Kind, docSize int, o Opts) (Result, error) {
	o = o.withDefaults()
	p := machine.OpenBSD
	if kind.onXok() {
		p = machine.XokExOS
	}
	m := machine.MustNew(machine.Config{Personality: p, Trace: o.Trace})
	defer m.Close()
	k, fs := m.K, m.FS

	// Stage the document tree. NCSA-style servers resolve a deeper
	// path per request; Harvest and Cheetah keep flat object stores
	// (Harvest spreads objects over directories purely for lookup
	// speed).
	var stageErr error
	k.Spawn("stage", func(e *kernel.Env) {
		e.Creds = cap.UnixCreds(0)
		if err := fs.Mkdir(e, "/docs", 0, 0, 7); err != nil {
			stageErr = err
			return
		}
		for i := 0; i < nDocs; i++ {
			ref, err := fs.Create(e, docPath(i), 0, 0, 6)
			if err != nil {
				stageErr = err
				return
			}
			if docSize > 0 {
				if _, err := fs.WriteAt(e, ref, 0, make([]byte, docSize)); err != nil {
					stageErr = err
					return
				}
			}
		}
		stageErr = fs.Sync(e)
	})
	k.Run()
	if stageErr != nil {
		return Result{}, fmt.Errorf("httpd stage: %w", stageErr)
	}

	// The paper's testbed as a Topology: one client host wired to the
	// server machine by sim.NumLinks Ethernets.
	topo := netsim.NewTopologyOn(k.Eng)
	clientHost := topo.AddHost("clients")
	srvHost := topo.AttachKernel("server", k)
	for i := 0; i < sim.NumLinks; i++ {
		topo.Link(clientHost, srvHost, netsim.LinkSpec{})
	}
	stop := k.Now() + o.Duration
	pool := topo.NewClientPool(clientHost, srvHost, o.Clients, docSize, stop)

	handler := makeHandler(kind, fs)
	var serverEnv *kernel.Env
	serverEnv = k.Spawn("httpd-"+kind.String(), func(e *kernel.Env) {
		e.Creds = cap.UnixCreds(0)
		topo.NIC(srvHost).Serve(e, kind.StackProfile(), handler, stop)
	})
	k.RunUntil(stop)
	elapsed := o.Duration

	res := Result{
		Server:   kind.String(),
		DocSize:  docSize,
		Requests: pool.Completed,
		MeanLat:  pool.MeanLatency(),
	}
	secs := elapsed.Seconds()
	res.ReqPerSec = float64(pool.Completed) / secs
	res.MBytesPerS = float64(pool.Bytes) / secs / 1e6
	busy := serverEnv.CPUUsed().Seconds()
	res.CPUIdle = 1 - busy/secs
	if res.CPUIdle < 0 {
		res.CPUIdle = 0
	}
	return res, nil
}

func docPath(i int) string {
	return fmt.Sprintf("/docs/d%02d", i)
}

// makeHandler builds the per-request file path for each server type.
func makeHandler(kind Kind, fs *cffs.FS) netsim.Handler {
	switch kind {
	case Cheetah:
		cache := xio.NewCache(fs)
		next := 0
		return func(e *kernel.Env, c *netsim.Conn) int {
			e.Use(25 * sim.Microsecond) // parse request, build header
			i := next % nDocs
			next++
			en, err := cache.Lookup(e, docPath(i))
			if err != nil {
				return 0
			}
			return en.Size
		}
	case HarvestBSD:
		// In-memory object cache: cheap lookups after first touch, but
		// the send path still copies (BSD sockets).
		type obj struct{ size int }
		cache := make(map[int]obj)
		next := 0
		return func(e *kernel.Env, c *netsim.Conn) int {
			e.Use(40 * sim.Microsecond) // parse + cache hash
			i := next % nDocs
			next++
			if o, ok := cache[i]; ok {
				return o.size
			}
			ref, in, err := fs.Lookup(e, docPath(i))
			if err != nil {
				return 0
			}
			if in.Size > 0 {
				buf := make([]byte, in.Size)
				if _, err := fs.ReadAt(e, ref, 0, buf); err != nil {
					return 0
				}
			}
			cache[i] = obj{size: int(in.Size)}
			return int(in.Size)
		}
	default: // NCSA, Socket/BSD, Socket/Xok: open + read per request
		next := 0
		return func(e *kernel.Env, c *netsim.Conn) int {
			e.Use(30 * sim.Microsecond) // parse request, build header
			i := next % nDocs
			next++
			ref, in, err := fs.Lookup(e, docPath(i))
			if err != nil {
				return 0
			}
			if in.Size > 0 {
				// Read into a user buffer: the FS copy the socket
				// path then copies again.
				buf := make([]byte, in.Size)
				if _, err := fs.ReadAt(e, ref, 0, buf); err != nil {
					return 0
				}
			}
			return int(in.Size)
		}
	}
}

// Figure3Sizes are the x-axis document sizes.
var Figure3Sizes = []int{0, 100, 1024, 10240, 102400}
