package workload

import (
	"errors"
	"fmt"
	"sort"

	"xok/internal/apps"
	"xok/internal/cffs"
	"xok/internal/disk"
	"xok/internal/fault"
	"xok/internal/machine"
	"xok/internal/parallel"
	"xok/internal/sim"
	"xok/internal/unix"
)

// Crash-point enumeration (Section 4.4): the paper's recovery story is
// that XN's on-disk structures are consistent enough after ANY crash
// that a reachability scan rebuilds the free map and C-FFS needs no
// ordered cleanup. The harness tests that claim systematically instead
// of at one arbitrary instant: a probe run of the MAB file workload
// records every synchronous-write completion and leaves a machine
// snapshot at every workload segment boundary; then, once per sampled
// boundary, a trial forks from the snapshot nearest below it, power is
// cut one cycle BEFORE the write completes (so the fault plan can tear
// the in-flight transfer), and the surviving image must remount, pass
// fsck, and satisfy XN's ownership invariants. Because every fault
// decision comes from the plan's seeded streams, two sweeps with the
// same plan produce bit-identical outcome digests.

// CrashConfig parameterizes a crash-enumeration sweep.
type CrashConfig struct {
	// Plan is the fault plan template applied to every run (cloned per
	// machine so consumed stream state never leaks between runs). Nil
	// defaults to seed 1 with torn writes armed.
	Plan *fault.Plan

	// MaxPoints caps the number of crash points (0 = 48). Boundaries
	// beyond the cap are stride-sampled evenly across the workload.
	MaxPoints int

	// DiskBlocks sizes the volume (0 = 32768 blocks = 128 MB — small
	// keeps the per-point remounts fast).
	DiskBlocks int64

	// Parallel bounds the worker pool for the per-point trials; <= 1
	// runs them serially. Every trial forks its own machine, plan
	// included, so trials are independent; results keep boundary
	// order, and the outcome digest is identical at any worker count.
	Parallel int
}

// CrashPoint is one enumerated crash trial.
type CrashPoint struct {
	At         sim.Time // instant power was cut
	Violations []string // recovery audit findings (empty = clean)
}

// CrashResult summarizes a sweep.
type CrashResult struct {
	System     string
	Boundaries int          // write-completion boundaries observed
	Points     []CrashPoint // one per sampled crash instant
	Digest     uint64       // FNV-1a over every per-point outcome
}

// Violations counts crash points that failed the recovery audit.
func (r CrashResult) Violations() int {
	n := 0
	for _, pt := range r.Points {
		if len(pt.Violations) > 0 {
			n++
		}
	}
	return n
}

// crashSegments is the MAB file activity cut into quiescent segments
// (one process each, machine drained between): staging, the five
// phases, and a final sync. Power can be cut at any instant — the
// crash trial starts at the segment containing the crash point, then
// cuts power mid-segment. Segment boundaries are where the probe
// snapshots: goroutine stacks cannot be captured, so a snapshot needs
// a drained machine.
func crashSegments(spec apps.TreeSpec) []mabSegment {
	return append(mabSegmentList(spec), mabSegment{
		name: "crash-sync",
		body: func(p unix.Proc) error { return p.Sync() },
	})
}

// CrashEnumerate runs the sweep on a Xok/ExOS machine.
func CrashEnumerate(cfg CrashConfig) (CrashResult, error) {
	return crashEnumerate(cfg, false, auditCrash)
}

// auditCrash is the sweep's recovery audit of one crash image.
func auditCrash(ci *disk.CrashImage, diskBlocks int64) []string {
	return cffs.AuditImage(ci, diskBlocks, "cffs", cffs.DefaultConfig())
}

// crashEnumerate is CrashEnumerate with the per-point audit given.
// fromBoot starts every trial by booting and replaying the workload up
// to its crash segment instead of forking: replay equivalence makes
// the sweep identical either way, and the tests keep it as the
// reference the forks are compared against.
func crashEnumerate(cfg CrashConfig, fromBoot bool, audit func(ci *disk.CrashImage, diskBlocks int64) []string) (CrashResult, error) {
	plan := cfg.Plan
	if plan == nil {
		plan = &fault.Plan{Seed: 1, TornWrites: true}
	}
	if cfg.MaxPoints == 0 {
		cfg.MaxPoints = 48
	}
	if cfg.DiskBlocks == 0 {
		cfg.DiskBlocks = 32768
	}
	boot := func() (machine.Machine, *fault.Plan, error) {
		p := plan.Clone()
		m, err := machine.New(machine.Config{
			Personality: machine.XokExOS,
			DiskBlocks:  cfg.DiskBlocks,
			MemPages:    4096,
			Faults:      p,
		})
		if err != nil {
			return m, p, err
		}
		// Aggressive flush-behind: the workload emits many small
		// synchronous writes instead of a few giant batches, giving the
		// sweep dense crash-point coverage.
		m.X.FlushBehind = 16
		return m, p, nil
	}

	// Probe run: record every write-completion boundary while the
	// workload runs to completion, segment by segment. segStarts[i] is
	// the virtual time segment i began at and snaps[i] freezes the
	// machine at that same instant, so a crash trial can fork straight
	// to the start of the segment containing its crash point.
	spec := mabTree()
	segs := crashSegments(spec)
	probe, pp, err := boot()
	if err != nil {
		return CrashResult{}, fmt.Errorf("crash probe: %w", err)
	}
	var boundaries []sim.Time
	pp.ObserveWrites(func(at sim.Time, block int64, count int) {
		if n := len(boundaries); n == 0 || boundaries[n-1] != at {
			boundaries = append(boundaries, at)
		}
	})
	segStarts := make([]sim.Time, len(segs))
	snaps := make([]*machine.Snapshot, len(segs))
	defer func() {
		for _, sn := range snaps {
			if sn != nil {
				sn.Release()
			}
		}
	}()
	var werr error
	for i, seg := range segs {
		segStarts[i] = probe.Now()
		sn, err := probe.Snapshot()
		if err != nil {
			probe.Close()
			return CrashResult{}, fmt.Errorf("crash probe snapshot: %w", err)
		}
		snaps[i] = sn
		exec(probe, seg.name, seg.body, &werr)
		if werr != nil {
			probe.Close()
			return CrashResult{}, fmt.Errorf("crash workload: %w", werr)
		}
	}
	probeName := probe.Name()
	probe.Close()
	if len(boundaries) == 0 {
		return CrashResult{}, errors.New("crash workload produced no write boundaries")
	}
	res := CrashResult{System: probeName, Boundaries: len(boundaries)}

	pts := boundaries
	if len(pts) > cfg.MaxPoints {
		stride := float64(len(pts)) / float64(cfg.MaxPoints)
		sampled := make([]sim.Time, 0, cfg.MaxPoints)
		for i := 0; i < cfg.MaxPoints; i++ {
			sampled = append(sampled, pts[int(float64(i)*stride)])
		}
		pts = sampled
	}

	res.Points = parallel.Map(cfg.Parallel, len(pts), func(i int) CrashPoint {
		// One cycle before the completion event: the write is still
		// in flight, so a torn-writes plan tears it in the image.
		at := pts[i] - 1
		// The segment the crash lands in: the last one starting at or
		// before the crash instant.
		k := sort.Search(len(segStarts), func(j int) bool { return segStarts[j] > at }) - 1
		if k < 0 {
			k = 0
		}
		var m machine.Machine
		if fromBoot {
			var serr error
			var err error
			if m, _, err = boot(); err != nil {
				// The probe booted under an identical plan: only a
				// nondeterministic boot could fail here.
				panic(err)
			}
			for _, seg := range segs[:k] {
				exec(m, seg.name, seg.body, &serr)
			}
			_ = serr // the probe already validated the workload
		} else {
			// Fork to the start of segment k. Concurrent trials fork from
			// one snapshot safely: it is read-only, pages and blocks are
			// copy-on-write.
			m = machine.Fork(snaps[k])
		}
		m.Spawn(segs[k].name, 0, func(p unix.Proc) { _ = segs[k].body(p) })
		ci := m.Crash(at)
		// Close and Release recycle the crashed machine's buffers for
		// the next trial.
		viols := audit(ci, cfg.DiskBlocks)
		m.Close()
		ci.Release()
		return CrashPoint{At: at, Violations: viols}
	})

	// Outcome digest (FNV-1a): equal plans must yield equal digests.
	h := uint64(14695981039346656037)
	mix := func(s string) {
		for i := 0; i < len(s); i++ {
			h = (h ^ uint64(s[i])) * 1099511628211
		}
	}
	for _, pt := range res.Points {
		mix(fmt.Sprintf("%d:", pt.At))
		for _, v := range pt.Violations {
			mix(v)
			mix(";")
		}
		mix("\n")
	}
	res.Digest = h
	return res, nil
}
