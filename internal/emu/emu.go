// Package emu models the OpenBSD binary emulator of Section 7.1: "Xok
// provides facilities to efficiently reroute specific INT instructions.
// We have used this ability to build a binary emulator for OpenBSD
// applications by capturing the system calls made by emulated OpenBSD
// programs."
//
// The emulator runs in the same address space as the emulated program
// and needs no privilege: each captured OpenBSD system call becomes a
// procedure call into ExOS. That is why "it is possible to run
// emulated programs faster than on their native OS": the trivial
// getpid costs 270 cycles on OpenBSD (a real kernel crossing) but only
// ~100 cycles emulated (INT reroute + procedure call into ExOS, which
// "can omit many expensive checks that UNIX must perform").
//
// Proc is a decorator over any unix.Proc: it adds the reroute charge
// and forwards the call. Wrapped around an ExOS process, as the
// experiments do, the forwarded call is the library path.
package emu

import (
	"xok/internal/sim"
	"xok/internal/unix"
)

// CostReroute is the INT-reroute trampoline: a handful of cycles to
// bounce the trap into the emulator's handler in the same address
// space.
const CostReroute sim.Time = 12

// SupportedCalls mirrors the paper: "it supports 90 of the
// approximately 155 OpenBSD system calls".
const SupportedCalls = 90

// Proc wraps an ExOS process, presenting the OpenBSD system call
// surface. Every call pays the reroute cost and then the ExOS library
// path — no kernel crossing.
type Proc struct {
	P unix.Proc
}

var _ unix.Proc = (*Proc)(nil)

// Emulate wraps a process in the emulator.
func Emulate(p unix.Proc) *Proc { return &Proc{P: p} }

func (m *Proc) reroute() { m.P.Compute(CostReroute) }

// Getpid is the microbenchmark of Section 7.1.
func (m *Proc) Getpid() int { m.reroute(); return m.P.Getpid() }

// UID returns the process owner.
func (m *Proc) UID() uint16 { return m.P.UID() }

// Compute charges CPU (no emulation overhead: user code runs native).
func (m *Proc) Compute(c sim.Time) { m.P.Compute(c) }

// Now returns virtual time.
func (m *Proc) Now() sim.Time { return m.P.Now() }

// Open emulates open(2).
func (m *Proc) Open(path string) (unix.FD, error) { m.reroute(); return m.P.Open(path) }

// Create emulates open(2) with O_CREAT.
func (m *Proc) Create(path string, mode uint32) (unix.FD, error) {
	m.reroute()
	return m.P.Create(path, mode)
}

// Read emulates read(2).
func (m *Proc) Read(fd unix.FD, buf []byte) (int, error) { m.reroute(); return m.P.Read(fd, buf) }

// Write emulates write(2).
func (m *Proc) Write(fd unix.FD, buf []byte) (int, error) { m.reroute(); return m.P.Write(fd, buf) }

// Seek emulates lseek(2).
func (m *Proc) Seek(fd unix.FD, off int64, whence int) (int64, error) {
	m.reroute()
	return m.P.Seek(fd, off, whence)
}

// Close emulates close(2).
func (m *Proc) Close(fd unix.FD) error { m.reroute(); return m.P.Close(fd) }

// Stat emulates stat(2).
func (m *Proc) Stat(path string) (unix.Stat, error) { m.reroute(); return m.P.Stat(path) }

// Mkdir emulates mkdir(2).
func (m *Proc) Mkdir(path string, mode uint32) error { m.reroute(); return m.P.Mkdir(path, mode) }

// Readdir emulates getdents(2).
func (m *Proc) Readdir(path string) ([]unix.DirEnt, error) { m.reroute(); return m.P.Readdir(path) }

// Unlink emulates unlink(2).
func (m *Proc) Unlink(path string) error { m.reroute(); return m.P.Unlink(path) }

// Rmdir emulates rmdir(2).
func (m *Proc) Rmdir(path string) error { m.reroute(); return m.P.Rmdir(path) }

// Rename emulates rename(2).
func (m *Proc) Rename(oldPath, newPath string) error {
	m.reroute()
	return m.P.Rename(oldPath, newPath)
}

// Chmod emulates chmod(2).
func (m *Proc) Chmod(path string, mode uint32) error { m.reroute(); return m.P.Chmod(path, mode) }

// Symlink emulates symlink(2).
func (m *Proc) Symlink(target, path string) error { m.reroute(); return m.P.Symlink(target, path) }

// Sync emulates sync(2).
func (m *Proc) Sync() error { m.reroute(); return m.P.Sync() }

// Pipe emulates pipe(2).
func (m *Proc) Pipe() (unix.FD, unix.FD, error) { m.reroute(); return m.P.Pipe() }

// Spawn emulates fork+execve; the child also runs under the emulator.
func (m *Proc) Spawn(name string, f func(unix.Proc)) (unix.Handle, error) {
	m.reroute()
	return m.P.Spawn(name, func(c unix.Proc) { f(Emulate(c)) })
}
