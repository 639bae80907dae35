// Package exos implements ExOS 1.0, the default library operating
// system for Xok (Section 5.2): a UNIX personality implemented
// entirely as unprivileged library code linked into each application.
//
// The UNIX process layer itself is internal/posix, shared with the BSD
// models; this package supplies what ExOS charges and its pipes:
//
//   - files go through the C-FFS libFS over XN;
//   - calls are procedure calls into the library: only getpid and
//     seek pay a libcall on entry, and nothing traps;
//   - the file descriptor table and process map are shared global
//     state; with Protect set, every write to them is preceded by
//     three system calls, approximating the cost of the fully
//     protected implementation (Section 6.3 — all Section 6 and 8
//     measurements include this cost);
//   - pipes use software regions plus a directed yield (Section
//     5.2.1), with a gratuitous wakeup predicate on every read — the
//     configuration Table 2 calls "Protection"; a mutual-trust
//     shared-memory variant is also provided ("Shared memory");
//   - fork marks pages copy-on-write by scanning the page table with
//     batched system calls and costs ~6 ms (Section 6.2); exec
//     overlays a demand-loaded image.
package exos

import (
	"xok/internal/cffs"
	"xok/internal/kernel"
	"xok/internal/posix"
	"xok/internal/sim"
)

// Config selects ExOS build options and the hardware it boots on.
type Config struct {
	posix.Hardware

	// Protect charges three system calls before every write to shared
	// global state (fd table, process map, ...). The paper's reported
	// numbers all include this; Section 6.3 measures the system with
	// it (and XN) removed.
	Protect bool

	// SharedMemPipes selects the mutual-trust pipe implementation
	// (Table 2 "Shared memory") instead of software regions +
	// wakeup predicates (Table 2 "Protection").
	SharedMemPipes bool
}

// Boot builds the machine: Xok kernel, XN, and a fresh C-FFS volume,
// ready to spawn UNIX processes. It fails when the volume cannot be
// formatted.
func Boot(cfg Config) (*posix.System, error) {
	s := posix.New("xok", sim.CostTrapXok, cfg.Hardware,
		libOS{protect: cfg.Protect, sharedPipes: cfg.SharedMemPipes})
	if err := s.Mkfs("exos-mkfs", "cffs", cffs.DefaultConfig()); err != nil {
		return nil, err
	}
	return s, nil
}

// libOS is what ExOS charges in the UNIX process layer.
type libOS struct {
	protect     bool
	sharedPipes bool
}

// Enter charges the library calls that do work of their own: getpid
// is a protected procedure call into the library, no kernel crossing
// (Section 7.1: 100 cycles vs 270 on OpenBSD), and seek a short one.
// Every other call's cost is the work it does.
func (libOS) Enter(e *kernel.Env, c posix.Call) {
	switch c {
	case posix.CallGetpid:
		e.LibCall(sim.CostGetpidWork)
	case posix.CallSeek:
		e.LibCall(20)
	}
}

// SharedWrite accounts one write to shared global state.
func (l libOS) SharedWrite(e *kernel.Env) {
	if l.protect {
		e.Kernel().Stats.Add(sim.CtrProtCalls, 3)
		e.Syscalls(3)
	}
}

// Fork scans the page table marking pages copy-on-write through
// batched system calls — a handful of traps cover the scan (~6 ms,
// Section 6.2) — then execs.
func (libOS) Fork(e *kernel.Env) {
	e.Syscalls(8)
	e.Use(sim.CostForkExOS + sim.CostExec)
}

// ForkChild charges the child's early COW faults (stack/data pages
// the fork call itself was using were already copied eagerly).
func (libOS) ForkChild(e *kernel.Env) { e.Use(4 * sim.CostCOWFault) }

// Pipe builds a pipe of the configured trust level.
func (l libOS) Pipe(e *kernel.Env) posix.Pipe { return newPipe(e, l.sharedPipes) }
