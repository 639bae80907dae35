// Package bsdos models the two monolithic 4.4BSD systems the paper
// compares against (FreeBSD 2.2.2 and OpenBSD 2.1), plus the
// OpenBSD/C-FFS variant (Costa Sapuntzakis's in-kernel port of C-FFS,
// Section 6).
//
// The same application programs run here as on ExOS, through the same
// UNIX process layer (internal/posix), but every UNIX call is a kernel
// trap, and the file systems run inside the kernel:
//
//   - FreeBSD: native FFS (split inodes, no co-location, synchronous
//     metadata writes) with a unified buffer cache spanning memory;
//   - OpenBSD: native FFS with a small, non-unified buffer cache —
//     the property the paper credits for FreeBSD beating OpenBSD
//     under load (Section 8);
//   - OpenBSD/C-FFS: the C-FFS structural policies inside the OpenBSD
//     kernel.
//
// The block-bookkeeping substrate is shared with the exokernel build
// (internal/xn in FreeCost mode): here it stands in for ordinary
// in-kernel file system code, with no protection-boundary charging.
// What differs from Xok/ExOS is exactly what differed in the paper:
// kernel crossings on every call (the traps value below), in-kernel
// pipe machinery, FFS structure, and buffer cache architecture.
package bsdos

import (
	"fmt"

	"xok/internal/cffs"
	"xok/internal/kernel"
	"xok/internal/posix"
	"xok/internal/sim"
)

// Variant selects the modelled system.
type Variant int

// The three BSD configurations from the paper's evaluation.
const (
	FreeBSD Variant = iota
	OpenBSD
	OpenBSDCFFS
)

// String names the variant as the paper does.
func (v Variant) String() string {
	switch v {
	case FreeBSD:
		return "FreeBSD"
	case OpenBSD:
		return "OpenBSD"
	case OpenBSDCFFS:
		return "OpenBSD/C-FFS"
	}
	return fmt.Sprintf("Variant(%d)", int(v))
}

// openBSDCachePages is the small, non-unified buffer cache (OpenBSD
// 2.1 dedicated only a fixed few-MB buffer cache to file data, unlike
// FreeBSD's unified page cache — the difference Section 8 credits for
// FreeBSD beating OpenBSD under load).
const openBSDCachePages = 800

// Boot builds the machine on hw and formats its file system. It fails
// when the file system cannot be formatted.
func Boot(v Variant, hw posix.Hardware) (*posix.System, error) {
	s := posix.New(v.String(), sim.CostTrapBSD, hw, traps{})
	s.X.FreeCost = true // in-kernel FS: no protection-boundary charging
	if v == OpenBSD || v == OpenBSDCFFS {
		s.X.MaxCachePages = openBSDCachePages
	}
	fsCfg := cffs.FFSConfig()
	if v == OpenBSDCFFS {
		fsCfg = cffs.DefaultConfig()
	}
	if err := s.Mkfs("bsd-mkfs", "ffs", fsCfg); err != nil {
		return nil, err
	}
	return s, nil
}

// trapWork is each call's in-kernel work beyond the trap itself:
// namei for the path calls, the buffer-cache copy's entry for read and
// write, the pipe object for pipe.
var trapWork = [posix.NumCalls]sim.Time{
	posix.CallGetpid:  sim.CostGetpidWork, // 270 cycles on OpenBSD, Section 7.1
	posix.CallOpen:    400,
	posix.CallCreate:  600,
	posix.CallRead:    150,
	posix.CallWrite:   150,
	posix.CallSeek:    80,
	posix.CallClose:   100,
	posix.CallStat:    300,
	posix.CallMkdir:   600,
	posix.CallReaddir: 400,
	posix.CallUnlink:  500,
	posix.CallRmdir:   500,
	posix.CallRename:  600,
	posix.CallChmod:   500,
	posix.CallSymlink: 600,
	posix.CallSync:    200,
	posix.CallPipe:    800,
}

// traps is what a monolithic kernel charges in the UNIX process layer:
// every call is a system call.
type traps struct{}

// Enter traps into the kernel.
func (traps) Enter(e *kernel.Env, c posix.Call) { e.Syscall(trapWork[c]) }

// SharedWrite is free: the descriptor table and process map are
// kernel memory.
func (traps) SharedWrite(*kernel.Env) {}

// Fork is fork+exec: "less than one millisecond on OpenBSD" (Section
// 6.2) plus the exec overlay.
func (traps) Fork(e *kernel.Env) {
	e.Syscall(0)
	e.Use(sim.CostForkBSD + sim.CostExec)
}

// ForkChild is free: the kernel copied what the child needs.
func (traps) ForkChild(*kernel.Env) {}

// Pipe allocates the kernel pipe object.
func (traps) Pipe(*kernel.Env) posix.Pipe { return &bsdPipe{} }
