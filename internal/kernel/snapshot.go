package kernel

import (
	"fmt"

	"xok/internal/disk"
	"xok/internal/fault"
	"xok/internal/mem"
	"xok/internal/sim"
	"xok/internal/trace"
)

// Snapshot is a frozen kernel-level machine state: engine clock and
// sequence counter, counters, physical memory (copy-on-write), disk
// (copy-on-write layer + arm positions), env/region tables, the
// tracer, and the fault plan's stream positions.
//
// Snapshots are only legal at quiescent points — no live environments
// and no pending events. Environment bodies are Go closures running as
// coroutines, whose stacks cannot be captured; at quiescence
// there are none, so the machine state collapses to data this package
// can deep-clone. Forking from one Snapshot is safe from concurrent
// goroutines: forks only read it.
type Snapshot struct {
	cfg        Config
	now        sim.Time
	seq        uint64
	stats      *sim.Stats
	mem        *mem.Snap
	disk       *disk.Checkpoint // nil when the machine has no disk
	nextEnv    EnvID
	nextRegion RegionID
	regions    map[RegionID]region

	tracer   *trace.Tracer // frozen clone; nil = tracing off
	tracePID int64
	faults   *fault.Plan // frozen fork (streams mid-position); nil = no plan
}

// Snapshot captures the kernel's state. It fails unless the machine is
// quiescent: every spawned environment has exited and the event queue
// has drained (Run returned). The kernel keeps running afterwards;
// memory pages and disk blocks it then writes are copied up first
// (copy-on-write), so the frozen state stays intact.
func (k *Kernel) Snapshot() (*Snapshot, error) {
	if k.liveEnvs != 0 {
		return nil, fmt.Errorf("kernel: snapshot requires a quiescent machine: %d live environments", k.liveEnvs)
	}
	if n := k.Eng.Pending(); n != 0 {
		if k.cfg.Eng != nil {
			return nil, fmt.Errorf("kernel: snapshot requires a quiescent machine: shared fabric engine has %d in-flight events (packets or timers)", n)
		}
		return nil, fmt.Errorf("kernel: snapshot requires a quiescent machine: %d events pending", n)
	}
	now, seq := k.Eng.Clock()
	s := &Snapshot{
		cfg:        k.cfg,
		now:        now,
		seq:        seq,
		stats:      k.Stats.Clone(),
		mem:        k.Mem.Freeze(),
		nextEnv:    k.nextEnv,
		nextRegion: k.nextRegion,
		regions:    make(map[RegionID]region, len(k.regions)),
		tracer:     k.Trace.Clone(),
		tracePID:   k.TracePID,
		faults:     k.Faults.Fork(),
	}
	for id, r := range k.regions {
		s.regions[id] = r.clone()
	}
	if k.Disk != nil {
		s.disk = k.Disk.Checkpoint()
	}
	return s, nil
}

// Fork builds a new kernel continuing from the snapshot: same config,
// clock, counters and tables, with a private engine, a cloned tracer,
// a fault plan whose streams resume mid-sequence, and copy-on-write
// views of memory and disk. A fork of a shared-engine (fabric)
// machine runs standalone on its own clock.
func Fork(s *Snapshot) *Kernel {
	eng := sim.NewEngineAt(s.now, s.seq)
	st := s.stats.Clone()
	tr := s.tracer.Clone()
	pl := s.faults.Fork()
	cfg := s.cfg
	cfg.Eng = nil
	cfg.Trace = tr
	cfg.Faults = pl
	k := &Kernel{
		Eng:        eng,
		Stats:      st,
		Mem:        s.mem.Fork(st),
		Faults:     pl,
		cfg:        cfg,
		nextEnv:    s.nextEnv,
		nextRegion: s.nextRegion,
		envs:       make(map[EnvID]*Env),
		regions:    make(map[RegionID]*region, len(s.regions)),
	}
	for id, r := range s.regions {
		c := r.clone()
		k.regions[id] = &c
	}
	if cfg.DiskSize > 0 {
		opts := []disk.Option{disk.WithFaults(pl)}
		if cfg.Spindles > 1 {
			opts = append(opts, disk.WithStriping(cfg.Spindles, cfg.StripeUnit))
		}
		k.Disk = disk.New(eng, st, cfg.DiskSize, opts...)
		k.Disk.Adopt(s.disk)
	}
	if tr.Enabled() {
		k.Trace = tr
		k.TracePID = s.tracePID
		pid := s.tracePID
		eng.SetEventHook(func(at sim.Time) { tr.Count(pid, "events", 1) })
		if k.Disk != nil {
			k.Disk.SetTrace(tr, pid)
		}
	}
	return k
}

// Release returns the snapshot's frozen memory and disk buffers to the
// buffer pool. Only legal once the snapshotted machine and every fork
// are closed (kernel Release / machine Close).
func (s *Snapshot) Release() {
	if s.mem != nil {
		s.mem.Release()
		s.mem = nil
	}
	if s.disk != nil {
		s.disk.Release()
		s.disk = nil
	}
}
