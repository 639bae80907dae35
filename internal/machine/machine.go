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
	"xok/internal/disk"
	"xok/internal/exos"
	"xok/internal/fault"
	"xok/internal/kernel"
	"xok/internal/netsim"
	"xok/internal/ostest"
	"xok/internal/posix"
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

// Machine is one booted system under test: the UNIX process layer
// (kernel, XN, root file system, processes), whose Run, Now, Stats and
// Spawn it promotes, and the personality it booted as. The embedded
// System is reachable for experiments that go below the UNIX surface
// (XCP drives the file cache and XN directly; servers stage documents
// on FS).
type Machine struct {
	*posix.System
	pers Personality
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
			return Machine{}, fmt.Errorf("machine: Net attachment without a topology")
		}
		eng = cfg.Net.Topology.Engine()
	}
	hw := posix.Hardware{
		DiskBlocks: cfg.DiskBlocks,
		MemPages:   cfg.MemPages,
		Trace:      cfg.Trace,
		Faults:     cfg.Faults,
		Eng:        eng,
	}
	var s *posix.System
	var err error
	switch cfg.Personality {
	case XokExOS, XokUnprotected:
		s, err = exos.Boot(exos.Config{
			Hardware:       hw,
			Protect:        cfg.Personality == XokExOS,
			SharedMemPipes: cfg.SharedMemPipes,
		})
		if err == nil && cfg.Personality == XokUnprotected {
			s.X.FreeCost = true
		}
	case FreeBSD, OpenBSD, OpenBSDCFFS:
		if cfg.SharedMemPipes {
			return Machine{}, fmt.Errorf("machine: %s has no shared-memory pipes", cfg.Personality)
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
		s, err = bsdos.Boot(v, hw)
	default:
		return Machine{}, fmt.Errorf("machine: unknown personality %d", int(cfg.Personality))
	}
	if err != nil {
		return Machine{}, fmt.Errorf("machine: boot %s: %w", cfg.Personality, err)
	}
	m := Machine{s, cfg.Personality}
	if cfg.Net != nil {
		name := cfg.Net.Name
		if name == "" {
			name = m.Name()
		}
		cfg.Net.Host = cfg.Net.Topology.AttachKernel(name, m.K)
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
		m.Spawn("t", 0, main)
		m.Run()
	}
}

// Name labels the system as the paper does: "Xok/ExOS" whether or not
// protection is on, the personality's own name otherwise.
func (m Machine) Name() string {
	if m.pers == XokUnprotected {
		return XokExOS.String()
	}
	return m.pers.String()
}

// Personality reports which system the machine booted as.
func (m Machine) Personality() Personality { return m.pers }

// Kern returns the kernel; it is the same as m.K.
func (m Machine) Kern() *kernel.Kernel { return m.K }

// Crash cuts power at virtual time at: events run to that instant, the
// surviving disk image (including torn in-flight writes when the fault
// plan arms them) is frozen, and the machine is dead. The caller
// releases the image after auditing it and closing the machine (see
// kernel.Kernel.Crash).
func (m Machine) Crash(at sim.Time) *disk.CrashImage { return m.K.Crash(at) }

// Close releases the machine for good: environment goroutines are
// killed and the page-frame and disk-block buffers go back to the
// shared pool (kernel.Release). This is the reset path that lets
// run-per-cell harnesses (difftest's seed × personality grid, the
// crash sweep) boot hundreds of machines without hundreds of machines'
// worth of heap churn. The machine must not be used — not even
// inspected — afterwards.
func (m Machine) Close() { m.K.Release() }
