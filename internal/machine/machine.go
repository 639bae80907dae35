// Package machine is the single construction path for the simulated
// machines under test: one Config names the OS personality (Xok/ExOS
// or one of the monolithic BSD models), the disk geometry, the
// observability sink and the fault plan, and New boots it. Every
// experiment, benchmark, harness and tool builds machines here rather
// than calling exos.Boot / bsdos.Boot with hand-copied settings; only
// package tests and the standalone examples boot a system directly.
package machine

import (
	"fmt"

	"xok/internal/bsdos"
	"xok/internal/cffs"
	"xok/internal/disk"
	"xok/internal/exos"
	"xok/internal/fault"
	"xok/internal/kernel"
	"xok/internal/netsim"
	"xok/internal/ostest"
	"xok/internal/sim"
	"xok/internal/trace"
	"xok/internal/unix"
)

// Personality selects the OS under test.
type Personality int

// The five system configurations of the paper's evaluation.
const (
	// XokExOS is the exokernel with the ExOS libOS, protection on —
	// the configuration every Section 6 and 8 measurement uses.
	XokExOS Personality = iota
	// XokUnprotected removes XN charging and the shared-state
	// protection calls (the Section 6.3 comparison point).
	XokUnprotected
	// FreeBSD models FreeBSD 2.2.2: native FFS, unified buffer cache.
	FreeBSD
	// OpenBSD models OpenBSD 2.1: native FFS, small non-unified cache.
	OpenBSD
	// OpenBSDCFFS is the in-kernel C-FFS port on OpenBSD.
	OpenBSDCFFS
)

// String names the personality as the paper does.
func (p Personality) String() string {
	switch p {
	case XokExOS:
		return "Xok/ExOS"
	case XokUnprotected:
		return "Xok/ExOS (unprotected)"
	case FreeBSD:
		return "FreeBSD"
	case OpenBSD:
		return "OpenBSD"
	case OpenBSDCFFS:
		return "OpenBSD/C-FFS"
	}
	return fmt.Sprintf("Personality(%d)", int(p))
}

// Config describes one machine. The zero value boots a stock Xok/ExOS
// machine with the default 4-GB single-spindle disk and 64 MB of
// memory, no tracing, no faults.
type Config struct {
	Personality Personality

	// SharedMemPipes selects the mutual-trust pipe implementation on
	// Xok (Table 2 "Shared memory"); rejected for BSD personalities.
	SharedMemPipes bool

	// DiskBlocks sizes the volume (0 = 1<<20 blocks = 4 GB) and
	// MemPages physical memory (0 = 16384 pages = 64 MB).
	DiskBlocks int64
	MemPages   int

	// Spindles > 1 builds the volume as a RAID-0 stripe set of that
	// many disks, StripeUnit blocks per unit (0 = 16).
	Spindles   int
	StripeUnit int64

	// Trace attaches an observability sink (nil = the package default
	// installed by tools like xok-bench -trace, else off).
	Trace *trace.Tracer

	// Faults attaches a deterministic fault plan (internal/fault). Nil
	// — the default — injects nothing and costs one nil check per
	// decision point, the same contract as Trace.
	Faults *fault.Plan

	// Net joins the machine to a shared network fabric: the kernel
	// boots on the attachment's topology engine (one virtual clock
	// across the whole cluster) and gets a NIC host. New fills the
	// attachment's Host and NIC outputs. Nil — the default — boots a
	// stand-alone machine with a private engine.
	Net *netsim.Attachment
}

// EnvHandle identifies a spawned process.
type EnvHandle interface {
	Env() *kernel.Env
}

// Machine abstracts over the OS personalities.
type Machine interface {
	// Name labels the system as the paper does ("Xok/ExOS", ...).
	Name() string
	// SpawnProc starts a UNIX process.
	SpawnProc(name string, uid uint16, main func(unix.Proc)) EnvHandle
	// Run drains the machine.
	Run()
	// Now returns virtual time.
	Now() sim.Time
	// Stats returns the counter registry.
	Stats() *sim.Stats
	// Kern returns the kernel.
	Kern() *kernel.Kernel
	// Disk returns the machine's disk (nil if configured without one).
	Disk() *disk.Disk
	// Crash cuts power at virtual time at: events run to that instant,
	// the surviving disk image (including torn in-flight writes when
	// the fault plan arms them) is captured, and the machine is dead.
	Crash(at sim.Time) disk.Image
	// FSSpec returns the root file system's registry name and
	// structural profile — what cffs.AuditImage needs to re-attach a
	// crash image of this machine forensically.
	FSSpec() (string, cffs.Config)
	// Snapshot freezes the machine at a quiescent point (all processes
	// exited, event queue drained) into a forkable checkpoint; see
	// Snapshot and Fork. The machine keeps running afterwards
	// (copy-on-write). Errors if the machine is not quiescent — for a
	// fabric-attached machine that includes any in-flight packet or
	// timer on the shared engine.
	Snapshot() (*Snapshot, error)
	// Close releases the machine for good: environment goroutines are
	// killed and the page-frame and disk-block buffers go back to the
	// shared pool (kernel.Release). This is the reset path that lets
	// run-per-cell harnesses (difftest's seed × personality grid, the
	// crash sweep) boot hundreds of machines without hundreds of
	// machines' worth of heap churn. The machine must not be used —
	// not even inspected — afterwards.
	Close()
}

// Personalities lists every personality, in the paper's order. Cross-
// personality harnesses (internal/difftest) iterate this rather than
// hard-coding the set.
func Personalities() []Personality {
	return []Personality{XokExOS, XokUnprotected, FreeBSD, OpenBSD, OpenBSDCFFS}
}

// New boots the machine cfg describes.
func New(cfg Config) (Machine, error) {
	var eng *sim.Engine
	if cfg.Net != nil {
		if cfg.Net.Topology == nil {
			return nil, fmt.Errorf("machine: Net attachment without a topology")
		}
		eng = cfg.Net.Topology.Engine()
	}
	var m Machine
	switch cfg.Personality {
	case XokExOS, XokUnprotected:
		s := exos.Boot(exos.Config{
			Protect:        cfg.Personality == XokExOS,
			SharedMemPipes: cfg.SharedMemPipes,
			DiskBlocks:     cfg.DiskBlocks,
			MemPages:       cfg.MemPages,
			Spindles:       cfg.Spindles,
			StripeUnit:     cfg.StripeUnit,
			Trace:          cfg.Trace,
			Faults:         cfg.Faults,
			Eng:            eng,
		})
		if cfg.Personality == XokUnprotected {
			s.X.FreeCost = true
		}
		m = Xok{S: s}
	case FreeBSD, OpenBSD, OpenBSDCFFS:
		if cfg.SharedMemPipes {
			return nil, fmt.Errorf("machine: %s has no shared-memory pipes", cfg.Personality)
		}
		var v bsdos.Variant
		switch cfg.Personality {
		case FreeBSD:
			v = bsdos.FreeBSD
		case OpenBSD:
			v = bsdos.OpenBSD
		case OpenBSDCFFS:
			v = bsdos.OpenBSDCFFS
		}
		s := bsdos.Boot(v, bsdos.Config{
			DiskBlocks: cfg.DiskBlocks,
			MemPages:   cfg.MemPages,
			Spindles:   cfg.Spindles,
			StripeUnit: cfg.StripeUnit,
			Trace:      cfg.Trace,
			Faults:     cfg.Faults,
			Eng:        eng,
		})
		m = BSD{S: s}
	default:
		return nil, fmt.Errorf("machine: unknown personality %d", int(cfg.Personality))
	}
	if cfg.Net != nil {
		name := cfg.Net.Name
		if name == "" {
			name = m.Name()
		}
		cfg.Net.Host = cfg.Net.Topology.AttachKernel(name, m.Kern())
		cfg.Net.NIC = cfg.Net.Topology.NIC(cfg.Net.Host)
	}
	return m, nil
}

// MustNew is New for static configurations known to be valid.
func MustNew(cfg Config) Machine {
	m, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return m
}

// Runner adapts a Machine to an ostest.RunFunc: each call runs main as
// a fresh uid-0 process and drains the machine.
func Runner(m Machine) ostest.RunFunc {
	return func(main func(unix.Proc)) {
		m.SpawnProc("t", 0, main)
		m.Run()
	}
}

// Xok wraps an ExOS system as a Machine. The underlying system is
// exported for experiments that reach below the UNIX surface (XCP
// drives the file cache and XN directly).
type Xok struct {
	S *exos.System
}

// Name implements Machine.
func (m Xok) Name() string { return "Xok/ExOS" }

// SpawnProc implements Machine.
func (m Xok) SpawnProc(name string, uid uint16, main func(unix.Proc)) EnvHandle {
	return m.S.Spawn(name, uid, main)
}

// Run implements Machine.
func (m Xok) Run() { m.S.Run() }

// Now implements Machine.
func (m Xok) Now() sim.Time { return m.S.Now() }

// Stats implements Machine.
func (m Xok) Stats() *sim.Stats { return m.S.Stats() }

// Kern implements Machine.
func (m Xok) Kern() *kernel.Kernel { return m.S.K }

// Disk implements Machine.
func (m Xok) Disk() *disk.Disk { return m.S.K.Disk }

// Crash implements Machine.
func (m Xok) Crash(at sim.Time) disk.Image { return m.S.K.Crash(at) }

// FSSpec implements Machine.
func (m Xok) FSSpec() (string, cffs.Config) { return "cffs", cffs.DefaultConfig() }

// Close implements Machine.
func (m Xok) Close() { m.S.K.Release() }

// BSD wraps a BSD system as a Machine.
type BSD struct {
	S *bsdos.System
}

// Name implements Machine.
func (m BSD) Name() string { return m.S.Variant.String() }

// SpawnProc implements Machine.
func (m BSD) SpawnProc(name string, uid uint16, main func(unix.Proc)) EnvHandle {
	return m.S.Spawn(name, uid, main)
}

// Run implements Machine.
func (m BSD) Run() { m.S.Run() }

// Now implements Machine.
func (m BSD) Now() sim.Time { return m.S.Now() }

// Stats implements Machine.
func (m BSD) Stats() *sim.Stats { return m.S.Stats() }

// Kern implements Machine.
func (m BSD) Kern() *kernel.Kernel { return m.S.K }

// Disk implements Machine.
func (m BSD) Disk() *disk.Disk { return m.S.K.Disk }

// Crash implements Machine.
func (m BSD) Crash(at sim.Time) disk.Image { return m.S.K.Crash(at) }

// FSSpec implements Machine.
func (m BSD) FSSpec() (string, cffs.Config) { return "ffs", m.S.FSCfg }

// Close implements Machine.
func (m BSD) Close() { m.S.K.Release() }
