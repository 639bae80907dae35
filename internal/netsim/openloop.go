package netsim

import (
	"math"

	"xok/internal/sim"
	"xok/internal/trace"
)

// Arrival selects the open-loop arrival process.
type Arrival int

// The arrival processes.
const (
	// ArrivalPoisson spaces arrivals exponentially around the mean
	// rate (memoryless offered load, the default).
	ArrivalPoisson Arrival = iota
	// ArrivalUniform spaces arrivals exactly 1/rate apart.
	ArrivalUniform
)

// RequestClass is one stratum of an open-loop workload mix: a name
// (its latency series appears as "http.<Name>"), a document size, and
// a selection weight.
type RequestClass struct {
	Name    string
	DocSize int
	Weight  int
}

// OpenLoopConfig describes an open-loop client population: Conns
// connection arrivals at Rate per virtual second, launched from host
// From against Target (a NIC host or a load balancer), regardless of
// how fast completions come back — unlike the closed-loop ClientPool,
// a slow server here grows its backlog instead of throttling the
// offered load.
type OpenLoopConfig struct {
	From   HostID
	Target HostID

	// Conns is the total number of connection arrivals.
	Conns int
	// Rate is the mean arrival rate per virtual second.
	Rate float64
	// Arrival picks the spacing process (default Poisson).
	Arrival Arrival
	// Seed drives arrival spacing and class selection (0 = 1).
	Seed uint64

	// Classes is the request mix (nil = one 1-KB "doc" class).
	Classes []RequestClass

	// Deadline bounds each connection's client-side retries, relative
	// to its launch (0 = retry forever; the run ends when every
	// connection completes).
	Deadline sim.Time

	// Trace receives every connection's spans and latency samples
	// ("http.request" plus one "http.<class>" series per class) under
	// TracePID. Nil falls back to each backend machine's own tracer.
	Trace    *trace.Tracer
	TracePID int64
}

// OpenPool is a running open-loop population and its outcome
// counters. Throughput is measured on the makespan: completions over
// (LastDone - Started).
type OpenPool struct {
	t   *Topology
	cfg OpenLoopConfig

	// Started is when the arrivals were scheduled.
	Started sim.Time
	// Issued counts launched connections, Completed finished ones.
	Issued    int
	Completed int
	// Bytes is the document payload delivered.
	Bytes int64
	// LastDone is the completion time of the latest finisher.
	LastDone sim.Time
	// LatMax is the worst request latency.
	LatMax sim.Time

	// ClassDone/ClassBytes break completions down per request class.
	ClassDone  []int
	ClassBytes []int64

	// arrivals holds every pre-drawn arrival; each is scheduled via
	// AtArg with a pointer into this slice, so a million-connection
	// launch plan costs one allocation, not one closure per arrival.
	arrivals []arrival
	// series holds the precomputed "http.<class>" histogram names.
	series []string
}

// arrival is one pre-drawn connection arrival.
type arrival struct {
	p    *OpenPool
	port uint32
	ci   int32
}

// launchArrival opens the arrival's connection (the scheduled event's
// body; package-level for alloc-free scheduling).
func launchArrival(a any) {
	ar := a.(*arrival)
	ar.p.launch(ar.port, int(ar.ci))
}

// defaultClasses is the single-class fallback mix.
var defaultClasses = []RequestClass{{Name: "doc", DocSize: 1024, Weight: 1}}

// OpenLoop schedules an open-loop client population on the fabric.
// All arrival times and class choices are drawn up front from the
// seeded stream, so the offered load is identical no matter how the
// cluster behind Target responds.
func (t *Topology) OpenLoop(cfg OpenLoopConfig) *OpenPool {
	if cfg.Rate <= 0 {
		cfg.Rate = 1000
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if len(cfg.Classes) == 0 {
		cfg.Classes = defaultClasses
	}
	p := &OpenPool{
		t: t, cfg: cfg, Started: t.eng.Now(),
		ClassDone:  make([]int, len(cfg.Classes)),
		ClassBytes: make([]int64, len(cfg.Classes)),
		arrivals:   make([]arrival, cfg.Conns),
		series:     make([]string, len(cfg.Classes)),
	}
	for i, cl := range cfg.Classes {
		p.series[i] = "http." + cl.Name
	}
	totalW := 0
	for _, cl := range cfg.Classes {
		totalW += cl.Weight
	}
	rng := sim.NewRNG(cfg.Seed)
	perArrival := float64(sim.CPUHz) / cfg.Rate // mean gap in cycles
	at := p.Started
	port := uint32(10000)
	for i := 0; i < cfg.Conns; i++ {
		switch cfg.Arrival {
		case ArrivalUniform:
			at += sim.Time(perArrival)
		default:
			u := rng.Float64()
			for u == 0 {
				u = rng.Float64()
			}
			at += sim.Time(-math.Log(u) * perArrival)
		}
		ci := 0
		if totalW > 1 {
			w := rng.Intn(totalW)
			for w >= cfg.Classes[ci].Weight {
				w -= cfg.Classes[ci].Weight
				ci++
			}
		}
		p.arrivals[i] = arrival{p: p, port: port, ci: int32(ci)}
		port++
		t.eng.AtArg(at, launchArrival, &p.arrivals[i])
	}
	return p
}

// launch opens one connection (the arrival instant).
func (p *OpenPool) launch(port uint32, ci int) {
	cl := p.cfg.Classes[ci]
	var deadline sim.Time
	if p.cfg.Deadline > 0 {
		deadline = p.t.eng.Now() + p.cfg.Deadline
	}
	c := p.t.openConn(p.cfg.From, p.cfg.Target, port, cl.DocSize, deadline)
	c.class, c.classSeries = ci, p.series[ci]
	if p.cfg.Trace != nil {
		c.sink, c.sinkPID = p.cfg.Trace, p.cfg.TracePID
	}
	p.Issued++
	c.owner = p
	c.sendSyn()
	c.armTimer()
}

// connDone books one completed open-loop connection.
func (p *OpenPool) connDone(c *Conn, lat sim.Time) {
	p.Completed++
	p.Bytes += int64(c.reqDocLen)
	p.ClassDone[c.class]++
	p.ClassBytes[c.class] += int64(c.reqDocLen)
	p.LastDone = p.t.eng.Now()
	if lat > p.LatMax {
		p.LatMax = lat
	}
}

// Makespan is the offered-to-drained duration: first arrival
// scheduling to last completion.
func (p *OpenPool) Makespan() sim.Time {
	if p.LastDone <= p.Started {
		return 0
	}
	return p.LastDone - p.Started
}
