package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"sort"
	"time"

	"xok/internal/difftest"
	"xok/internal/machine"
	"xok/internal/netsim"
	"xok/internal/sim"
	"xok/internal/trace"
	"xok/internal/workload"
)

// size scales the workloads. fullSize is the benchmark; the tests use a
// smaller one.
type size struct {
	ioSystems    int // leading systems of Figure 2's four
	clusterConns int // connections offered to the cluster cell
	diffPrograms int // generated difftest programs
	diffSteps    int // syscalls per program
}

var fullSize = size{ioSystems: 4, clusterConns: 50000, diffPrograms: 200, diffSteps: 60}

// The cluster cell: four Xok/ExOS servers behind a least-connections
// balancer, offered Poisson arrivals just below their aggregate
// capacity (about 4.6k requests/s for four servers), so the backlog
// stays bounded.
const (
	clusterServers = 4
	clusterRate    = 4000
)

// paperFigure2 holds the paper's Figure 2 totals, in seconds, in the
// order of workload.SystemConfigs: Xok/ExOS, OpenBSD/C-FFS, OpenBSD,
// FreeBSD.
var paperFigure2 = []float64{41, 51, 60, 59}

// unvalidatedErrPct is the paper_err_pct of a workload the repository
// holds no reference result for: the model is unvalidated there.
const unvalidatedErrPct = 100

// A workload's set-up and its run are measured in separate processes,
// so that the run's peak memory is its own.
type workloadSpec struct {
	setups int // set-ups per timed batch
	// setup boots the machines the run needs, standalone, and closes
	// them again, recording a span per public call under parent.
	setup func(l *spanLog, parent int, sz size) error
	// run makes the workload's public calls through rep.call.
	run func(r *rep, parent int, sz size) error
}

// Set-up counts make one timed batch take about 0.08 s of host time.
var workloads = map[string]workloadSpec{
	"iointensive": {setups: 5, setup: setupIOIntensive, run: runIOIntensive},
	"cluster":     {setups: 60, setup: setupCluster, run: runCluster},
	"difftest":    {setups: 40, setup: setupDifftest, run: runDifftest},
}

// setupBatches is how many batches a set-up process times.
const setupBatches = 6

// measureSetup times the set-up: one untimed warm-up set-up, then
// setupBatches batches of w.setups identical set-ups each, every batch
// reported as the mean per set-up.
func (w workloadSpec) measureSetup(r *rep, sz size) error {
	if err := w.setup(&spanLog{}, 0, sz); err != nil {
		return fmt.Errorf("warm-up set-up: %w", err)
	}
	for b := 0; b < setupBatches; b++ {
		total, err := r.spans.timed(spanSetup, 0, func(id int) error {
			for i := 0; i < w.setups; i++ {
				if err := w.setup(&r.spans, id, sz); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		r.setupCPU = append(r.setupCPU, total/time.Duration(w.setups))
	}
	r.layers["machine.boot_s"] = r.spans.meanCPU(spanBoot)
	r.layers["machine.snapshot_s"] = r.spans.meanCPU(spanSnapshot)
	return nil
}

// measureRun makes the workload's calls and reports what they did.
func (w workloadSpec) measureRun(r *rep, sz size) error {
	if r.traced {
		for l := range hostLayers {
			r.layers["host."+l+"_s"] = 0
		}
		r.layers["host.other_s"] = 0
	}
	id := r.spans.begin(spanRun, 0)
	err := w.run(r, id, sz)
	r.spans.end(id)
	if err != nil {
		return err
	}
	r.meterLayers()
	return nil
}

// call makes one public workload call inside a span, after a forced GC,
// adding its host time to the run and its activity to the meters. In a
// traced repetition the call runs under the CPU profiler.
func (r *rep) call(name string, parent int, fn func() error) error {
	runtime.GC()
	mark := markMeters()
	id := r.spans.begin(name, parent)
	var err error
	if r.traced {
		var layers map[string]float64
		if layers, err = profiled(fn); err == nil {
			for l, s := range layers {
				r.addHost(l, s)
			}
		}
	} else {
		err = fn()
	}
	cpu, wall := r.spans.end(id)
	r.runCPU += cpu
	r.runWall += wall
	r.meter.add(mark)
	return err
}

// boot is machine.New inside a span.
func boot(l *spanLog, parent int, cfg machine.Config) (machine.Machine, error) {
	id := l.begin(spanBoot, parent)
	m, err := machine.New(cfg)
	l.end(id)
	return m, err
}

// ---- iointensive: Figure 2's lcc install on four systems.

func setupIOIntensive(l *spanLog, parent int, sz size) error {
	for _, cfg := range workload.SystemConfigs()[:sz.ioSystems] {
		m, err := boot(l, parent, cfg)
		if err != nil {
			return err
		}
		m.Close()
	}
	return nil
}

// runIOIntensive boots, runs and closes each system in turn. The seed
// only permutes the order the systems run in; the lcc tree is the
// paper's, so every seed simulates the same thing.
func runIOIntensive(r *rep, parent int, sz size) error {
	cfgs := workload.SystemConfigs()[:sz.ioSystems]
	results := make([]workload.IOResult, len(cfgs))
	stats := make([]map[string]int64, len(cfgs))
	hists := map[string]float64{}
	for _, i := range sim.NewRNG(r.seed).Perm(len(cfgs)) {
		cfg := cfgs[i]
		if r.traced {
			cfg.Trace = trace.NewHistOnly()
		}
		m, err := boot(&r.spans, parent, cfg)
		if err != nil {
			return err
		}
		before := counters(m.Stats())
		var res workload.IOResult
		r.attempted += len(workload.IOStepNames)
		err = r.call("workload.IOIntensive", parent, func() error {
			var err error
			res, err = workload.IOIntensive(m)
			return err
		})
		if err != nil {
			r.fail(len(workload.IOStepNames)-len(res.Steps), err)
		}
		stats[i] = delta(before, counters(m.Stats()))
		if r.traced {
			maxHists(hists, cfg.Trace, m.Kern().TracePID)
		}
		m.Close()
		results[i] = res
	}

	var errSum float64
	total := map[string]int64{}
	for i, res := range results {
		if len(res.Steps) != len(workload.IOStepNames) {
			continue // counted as failed above
		}
		line := fmt.Sprintf("io.%s total=%d steps=", res.System, res.Total)
		for _, s := range res.Steps {
			line += fmt.Sprintf("%d,", s.Elapsed)
		}
		r.fp = append(r.fp, line+fmt.Sprintf(" syscalls=%d prot_calls=%d", res.Syscalls, res.ProtCalls))
		r.fp = append(r.fp, statLines("io."+res.System, stats[i])...)
		errSum += math.Abs(res.Total.Seconds()-paperFigure2[i]) / paperFigure2[i]
		for k, v := range stats[i] {
			total[k] += v
		}
	}
	r.paperErr = 100 * errSum / float64(len(results))
	r.statLayers(total)
	r.histLayers(hists)
	return nil
}

// ---- cluster: one 4-server least-connections cell.

func clusterServer(topo *netsim.Topology, i int) machine.Config {
	// The cell's server machines, as workload.Cluster boots them.
	return machine.Config{
		Personality: machine.XokExOS,
		DiskBlocks:  1 << 16,
		MemPages:    2048,
		Net:         &netsim.Attachment{Topology: topo, Name: fmt.Sprintf("srv%d", i)},
	}
}

func setupCluster(l *spanLog, parent int, _ size) error {
	topo := netsim.NewTopology()
	for i := 0; i < clusterServers; i++ {
		m, err := boot(l, parent, clusterServer(topo, i))
		if err != nil {
			return err
		}
		m.Close()
	}
	return nil
}

// runCluster drives the cell. workload.Cluster boots its servers
// inside the call, so run_s includes those boots (about 2% of it).
func runCluster(r *rep, parent int, sz size) error {
	cfg := workload.ClusterConfig{
		Servers: clusterServers, Conns: sz.clusterConns, Rate: clusterRate,
		Policy: netsim.LeastConnections, Seed: r.seed + 1, // Cluster reads Seed 0 as 1
	}
	if r.traced {
		cfg.Trace = trace.NewHistOnly()
	}
	var res workload.ClusterResult
	r.paperErr = unvalidatedErrPct
	r.attempted += cfg.Conns
	err := r.call("workload.Cluster", parent, func() error {
		var err error
		res, err = workload.Cluster(cfg)
		return err
	})
	var assigned int64
	for _, a := range res.Assignments {
		assigned += a
	}
	switch {
	case err != nil:
		r.fail(cfg.Conns, err)
	case res.Completed != cfg.Conns:
		r.fail(cfg.Conns-res.Completed, fmt.Errorf("cluster: %d of %d connections completed", res.Completed, cfg.Conns))
	case assigned != int64(cfg.Conns):
		r.fail(cfg.Conns, fmt.Errorf("cluster: balancer assigned %d of %d connections", assigned, cfg.Conns))
	}
	r.fp = append(r.fp,
		fmt.Sprintf("cluster completed=%d bytes=%d makespan=%d", res.Completed, res.Bytes, res.Makespan),
		fmt.Sprintf("cluster p50=%d p90=%d p99=%d max=%d", res.P50, res.P90, res.P99, res.Max),
		fmt.Sprintf("cluster assignments=%v retransmits=%d drops=%d engine_events=%d", res.Assignments, res.Retransmits, res.Drops, res.EngineEvents),
		fmt.Sprintf("cluster latency_digest=%#x", res.Digest))
	for _, c := range res.Classes {
		r.fp = append(r.fp, fmt.Sprintf("cluster class=%s done=%d bytes=%d p50=%d p99=%d", c.Name, c.Done, c.Bytes, c.P50, c.P99))
	}

	// The servers' sim.Stats die with them inside the call.
	r.statLayers(nil)
	hists := map[string]float64{}
	if r.traced {
		// Every server registers on the tracer under its kernel's name,
		// and histograms are keyed by that name, so one process
		// registered under the same name reads the servers' merged
		// histograms.
		name, err := serverKernelName()
		if err != nil {
			return err
		}
		maxHists(hists, cfg.Trace, cfg.Trace.AddProcess(name))
	}
	r.histLayers(hists)
	r.layers["netsim.req_p50_vms"] = res.P50.Millis()
	r.layers["netsim.req_p99_vms"] = res.P99.Millis()
	r.layers["netsim.retransmits"] = float64(res.Retransmits)
	r.layers["netsim.drops"] = float64(res.Drops)
	return nil
}

// serverKernelName is the trace process name of a cluster server.
func serverKernelName() (string, error) {
	m, err := machine.New(clusterServer(netsim.NewTopology(), 0))
	if err != nil {
		return "", err
	}
	defer m.Close()
	return m.Kern().Config().Name, nil
}

// ---- difftest: xok-bench's differential fuzzing campaign.

// difftest.Generate seeds its generator with the program's seed as is,
// and program s+1 draws program s's random stream shifted by one, so
// neighbouring programs are alike. One 200-program campaign per
// benchmark seed spread the simulated events of seeds 201-210 by 17.7%
// (quartile spread over median), and that spread would show in run_s
// across seeds. The campaign therefore runs as sub-campaigns of
// diffBlock consecutive programs at scattered seeds, which spread by
// 4.2%. Each sub-campaign boots and snapshots the five personalities
// again (about 5% of run_s).
const diffBlock = 5

func difftestOptions(base uint64, sz size) difftest.Options {
	return difftest.Options{Seeds: diffBlock, Steps: sz.diffSteps, BaseSeed: base, Snapshot: true}.Defaults()
}

// diffBases returns the first program seed of each sub-campaign.
func diffBases(seed uint64, sz size) []uint64 {
	bases := make([]uint64, sz.diffPrograms/diffBlock)
	for i := range bases {
		// splitmix64 of (seed, i), kept clear of overflow past the block.
		z := seed*0x9e3779b97f4a7c15 + uint64(i+1)*0xbf58476d1ce4e5b9
		z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
		z = (z ^ z>>27) * 0x94d049bb133111eb
		bases[i] = (z^z>>31)>>1 + 1
	}
	return bases
}

// setupDifftest boots each personality at the campaign's machine size
// and snapshots it, as each sub-campaign does before forking programs.
func setupDifftest(l *spanLog, parent int, sz size) error {
	o := difftestOptions(1, sz)
	for _, p := range o.Personalities {
		m, err := boot(l, parent, machine.Config{Personality: p, DiskBlocks: o.DiskBlocks, MemPages: o.MemPages})
		if err != nil {
			return err
		}
		id := l.begin(spanSnapshot, parent)
		sn, err := m.Snapshot()
		l.end(id)
		m.Close()
		if err != nil {
			return err
		}
		sn.Release()
	}
	return nil
}

// runDifftest runs the sub-campaigns. difftest.Fuzz stops at the first
// divergence, so after one a sub-campaign resumes at the next program,
// and every program is run and counted.
func runDifftest(r *rep, parent int, sz size) error {
	bases := diffBases(r.seed, sz)
	r.paperErr = unvalidatedErrPct
	r.attempted += len(bases) * diffBlock
	ran := 0
	var divergences []string
	err := r.call("difftest.Fuzz", parent, func() error {
		for _, base := range bases {
			o := difftestOptions(base, sz)
			end := base + diffBlock
			for o.BaseSeed < end {
				o.Seeds = int(end - o.BaseSeed)
				div, err := difftest.Fuzz(o)
				if err != nil {
					return err
				}
				if div == nil {
					break
				}
				divergences = append(divergences, div.Error())
				o.BaseSeed = div.Seed + 1
			}
			ran += diffBlock
		}
		return nil
	})
	if err != nil {
		r.fail(r.attempted-ran, err)
	}
	for _, d := range divergences {
		r.fail(1, fmt.Errorf("difftest: %s", d))
	}
	r.fp = append(r.fp, fmt.Sprintf("difftest programs=%d steps=%d first_seeds=%v divergences=%q",
		len(bases)*diffBlock, sz.diffSteps, bases[:min(3, len(bases))], divergences))
	// The campaign's machines are internal to difftest.Fuzz, and it
	// accepts no tracer.
	r.statLayers(nil)
	r.histLayers(nil)
	return nil
}

// ---- shared helpers

// fail counts n failed operations and records why.
func (r *rep) fail(n int, err error) {
	r.failed += n
	r.errors = append(r.errors, err.Error())
}

func (r *rep) addHost(layer string, s float64) {
	key := "host." + layer + "_s"
	if !hostLayers[layer] {
		key = "host.other_s"
	}
	r.layers[key] += s
}

// hostLayers are the packages reported by name; other xok/internal
// packages are summed into host.other_s.
var hostLayers = map[string]bool{
	"sim": true, "kernel": true, "netsim": true, "dpf": true, "xn": true,
	"udf": true, "cffs": true, "disk": true, "mem": true, "exos": true,
	"bsdos": true, "machine": true, "difftest": true, "apps": true,
	"trace": true, runtimeLayer: true,
}

// meterLayers reports the run's event, virtual-time, and Go-runtime
// activity, and adds the events and virtual time to the fingerprint.
func (r *rep) meterLayers() {
	m := r.meter
	r.fp = append(r.fp, fmt.Sprintf("sim events=%d cycles=%d", m.events, m.cycles))
	run := r.runCPU.Seconds()
	r.layers["sim.events"] = float64(m.events)
	r.layers["sim.vsec"] = m.cycles.Seconds()
	r.layers["sim.ns_per_event"] = ratio(run*1e9, float64(m.events))
	r.layers["sim.vsec_per_s"] = ratio(m.cycles.Seconds(), run)
	r.layers["gc.alloc_mb"] = m.allocMB
	r.layers["gc.mallocs"] = float64(m.mallocs)
	r.layers["gc.cycles"] = float64(m.gcCycles)
	r.layers["gc.cpu_frac"] = ratio(m.gcCPU, m.totalCPU)
	if r.traced {
		var total float64
		for l := range hostLayers {
			total += r.layers["host."+l+"_s"]
		}
		total += r.layers["host.other_s"]
		r.layers["host.profile_s"] = total
		r.layers["host.repo_frac"] = ratio(total-r.layers["host."+runtimeLayer+"_s"], total)
	}
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return notObserved
	}
	return a / b
}

// statMetrics maps per-layer metrics to sim.Stats counters.
var statMetrics = map[string]string{
	"kernel.syscalls":     sim.CtrSyscalls,
	"kernel.ctx_switches": sim.CtrCtxSwitches,
	"exos.libcalls":       sim.CtrLibCalls,
	"exos.prot_calls":     sim.CtrProtCalls,
	"udf.steps":           sim.CtrUDFSteps,
	"xn.registry_ops":     sim.CtrRegistryOps,
	"disk.reads":          sim.CtrDiskReads,
	"disk.writes":         sim.CtrDiskWrites,
	"disk.seeks":          sim.CtrDiskSeeks,
	"netsim.retransmits":  sim.CtrRetransmits,
}

// statLayers reports summed sim.Stats deltas; nil means the workload's
// entry point does not expose its machines' counters.
func (r *rep) statLayers(c map[string]int64) {
	for name, ctr := range statMetrics {
		if c == nil {
			r.layers[name] = notObserved
		} else {
			r.layers[name] = float64(c[ctr])
		}
	}
	// Drops are counted by the fabric, which only the cluster has.
	r.layers["netsim.drops"] = notObserved
	// Nothing in the program increments sim.CtrCOWFaults, and the only
	// workload that forks, difftest, keeps its disks' CowCopies internal.
	r.layers["mem.cow_faults"] = notObserved
	r.layers["xn.cache_hit_ratio"] = notObserved
	if hits, misses := c[sim.CtrCacheHits], c[sim.CtrCacheMisses]; hits+misses > 0 {
		r.layers["xn.cache_hit_ratio"] = float64(hits) / float64(hits+misses)
	}
}

// histMetrics maps per-layer metrics to a trace histogram, a quantile
// and a unit (virtual microseconds or milliseconds).
var histMetrics = map[string]struct {
	hist string
	q    float64
	unit func(sim.Time) float64
}{
	"kernel.syscall_p99_vus": {"kernel.syscall", 0.99, sim.Time.Micros},
	"disk.queue_p99_vms":     {"disk.queue", 0.99, sim.Time.Millis},
	"disk.service_p50_vms":   {"disk.service", 0.50, sim.Time.Millis},
	"xn.udf_p99_vus":         {"xn.udf", 0.99, sim.Time.Micros},
	"cffs.syncwrite_p99_vms": {"cffs.syncwrite", 0.99, sim.Time.Millis},
	"netsim.req_p50_vms":     {"http.request", 0.50, sim.Time.Millis},
	"netsim.req_p99_vms":     {"http.request", 0.99, sim.Time.Millis},
}

// maxHists folds one trace process's histograms into acc, keeping per
// metric the largest value over the processes folded so far.
func maxHists(acc map[string]float64, tr *trace.Tracer, pid int64) {
	for name, hm := range histMetrics {
		h := tr.Hist(pid, hm.hist)
		if h == nil || h.Count() == 0 {
			continue
		}
		if v, cur := hm.unit(h.Quantile(hm.q)), acc[name]; v > cur || cur == 0 {
			acc[name] = v
		}
	}
}

// histLayers reports the folded histograms; metrics with no samples
// (or no tracer) are notObserved.
func (r *rep) histLayers(acc map[string]float64) {
	for name := range histMetrics {
		v, ok := acc[name]
		if !ok {
			v = notObserved
		}
		r.layers[name] = v
	}
}

func counters(s *sim.Stats) map[string]int64 {
	c := map[string]int64{}
	for _, n := range s.Names() {
		c[n] = s.Get(n)
	}
	return c
}

func delta(before, after map[string]int64) map[string]int64 {
	d := map[string]int64{}
	for n, v := range after {
		if v != before[n] {
			d[n] = v - before[n]
		}
	}
	return d
}

// statLines renders a counter delta as sorted fingerprint lines.
func statLines(prefix string, c map[string]int64) []string {
	var lines []string
	for _, n := range sortedKeys(c) {
		lines = append(lines, fmt.Sprintf("%s stat.%s=%d", prefix, n, c[n]))
	}
	return lines
}

func sortedKeys(c map[string]int64) []string {
	keys := make([]string, 0, len(c))
	for n := range c {
		keys = append(keys, n)
	}
	sort.Strings(keys)
	return keys
}

// fingerprint hashes the fingerprint lines (FNV-1a, 64 bits).
func fingerprint(lines []string) string {
	h := fnv.New64a()
	for _, l := range lines {
		h.Write([]byte(l))
		h.Write([]byte{'\n'})
	}
	return fmt.Sprintf("%016x", h.Sum64())
}
