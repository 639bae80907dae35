// Package posix is the UNIX process layer every OS personality
// shares: the process type behind unix.Proc, its descriptor table and
// open-file objects, fork and wait, the process map, the mount table,
// signals, and the Freeze/Thaw of all of it for machine snapshots.
//
// The paper measures the same unmodified programs on Xok/ExOS and on
// the BSD kernels and claims they differ in cost, never in semantics
// (Section 6). Here that holds by construction: one implementation
// serves both, and a personality supplies only a Personality value —
// what each call charges on entry, what a write to the descriptor
// table or process map charges, what fork charges, and its pipe. The
// file systems (C-FFS or FFS over XN), XN's protection charging and
// the pipes themselves stay in internal/exos and internal/bsdos.
package posix

import (
	"xok/internal/cap"
	"xok/internal/cffs"
	"xok/internal/fault"
	"xok/internal/kernel"
	"xok/internal/sim"
	"xok/internal/trace"
	"xok/internal/unix"
	"xok/internal/xn"
)

// Hardware describes the machine a personality boots on. The zero
// value is a 4-GB single-spindle disk and 64 MB of memory, with no
// tracing and no faults.
type Hardware struct {
	// DiskBlocks sizes the volume (0 = 1<<20 blocks = 4 GB) and
	// MemPages physical memory (0 = 16384 pages = 64 MB).
	DiskBlocks int64
	MemPages   int

	// Trace and Faults are handed straight to the kernel: the
	// observability sink and the deterministic fault plan (both nil by
	// default, costing one nil check per decision point).
	Trace  *trace.Tracer
	Faults *fault.Plan

	// Eng attaches the machine to a shared event engine (nil = build a
	// private one); see kernel.Config.Eng.
	Eng *sim.Engine
}

// Call names a UNIX call for its entry charge.
type Call uint8

// The calls a Personality charges on entry. Spawn's charge is
// Personality.Fork; Wait costs the same everywhere.
const (
	CallGetpid Call = iota
	CallOpen
	CallCreate
	CallRead
	CallWrite
	CallSeek
	CallClose
	CallStat
	CallMkdir
	CallReaddir
	CallUnlink
	CallRmdir
	CallRename
	CallChmod
	CallSymlink
	CallSync
	CallPipe
	NumCalls
)

// Personality is everything an OS personality decides in the UNIX
// process layer. Each Boot fixes one; nothing configures it.
type Personality interface {
	// Enter charges entry into call c. Path calls enter before the
	// path resolves; descriptor calls once the descriptor resolves, so
	// EBADF costs nothing, and Seek after its pipe check, so ESPIPE
	// costs nothing either.
	Enter(e *kernel.Env, c Call)
	// SharedWrite charges one write to the descriptor table or the
	// process map.
	SharedWrite(e *kernel.Env)
	// Fork charges the parent of a fork+exec, ForkChild the child
	// before it runs.
	Fork(parent *kernel.Env)
	ForkChild(child *kernel.Env)
	// Pipe builds a pipe for the process running in e.
	Pipe(e *kernel.Env) Pipe
}

// System is one booted machine's UNIX layer: the kernel and XN below
// it, the root file system, the processes and the mount table.
type System struct {
	K  *kernel.Kernel
	X  *xn.XN
	FS *cffs.FS

	pers    Personality
	nextPid int
	// The process map (pid -> process), which ExOS keeps in shared
	// memory (Section 5.2.1).
	procs map[int]*Proc
	// mounts is the mount table, longest prefix first.
	mounts []mount
}

// New builds a machine on hw: a kernel named name whose traps cost
// trap cycles, and XN over its disk with flush-behind bounding dirty
// data at 2 MB. The root file system comes from Mkfs.
func New(name string, trap sim.Time, hw Hardware, pers Personality) *System {
	if hw.DiskBlocks == 0 {
		hw.DiskBlocks = 1 << 20
	}
	if hw.MemPages == 0 {
		hw.MemPages = 16384
	}
	k := kernel.New(kernel.Config{
		Name:     name,
		TrapCost: trap,
		MemPages: hw.MemPages,
		DiskSize: hw.DiskBlocks,
		Trace:    hw.Trace,
		Faults:   hw.Faults,
		Eng:      hw.Eng,
	})
	x := xn.New(k)
	x.FlushBehind = 512
	return &System{K: k, X: x, pers: pers, nextPid: 1, procs: make(map[int]*Proc)}
}

// Mkfs formats the root file system as fsName with profile cfg, from
// a root environment named env, and drains the machine.
func (s *System) Mkfs(env, fsName string, cfg cffs.Config) {
	s.K.Spawn(env, func(e *kernel.Env) {
		e.Creds = cap.UnixCreds(0)
		fs, err := cffs.Mkfs(e, s.X, fsName, cfg)
		if err != nil {
			panic("posix: mkfs failed: " + err.Error())
		}
		s.FS = fs
	})
	s.K.Run()
}

// Run drains the machine's event queue.
func (s *System) Run() { s.K.Run() }

// Now returns virtual time.
func (s *System) Now() sim.Time { return s.K.Now() }

// Stats exposes the machine counters.
func (s *System) Stats() *sim.Stats { return s.K.Stats }

// Spawn starts a top-level UNIX process running main as uid. The
// returned handle's Env names it; call Run to drain the machine.
func (s *System) Spawn(name string, uid uint16, main func(unix.Proc)) *Handle {
	return &Handle{env: s.start(name, uid, s.nextPID(), nil, 0, main)}
}

func (s *System) nextPID() int {
	pid := s.nextPid
	s.nextPid++
	return pid
}

// start runs main in a new environment as process pid, with the
// descriptor table fds (nil = empty). A forked child pays
// Personality.ForkChild before it runs.
func (s *System) start(name string, uid uint16, pid int, fds map[unix.FD]*file, nextFD unix.FD, main func(unix.Proc)) *kernel.Env {
	forked := fds != nil
	if !forked {
		fds = make(map[unix.FD]*file)
	}
	return s.K.Spawn(name, func(e *kernel.Env) {
		e.Creds = cap.UnixCreds(uid)
		if forked {
			s.pers.ForkChild(e)
		}
		p := &Proc{s: s, e: e, pid: pid, uid: uid, fds: fds, nextFD: nextFD}
		s.procs[pid] = p
		main(p)
		p.closeAll()
		delete(s.procs, pid)
	})
}

// Handle identifies a spawned process.
type Handle struct {
	parent *Proc // nil for a top-level process
	env    *kernel.Env
}

// Env exposes the process's environment (the workload launcher's
// wait-any needs it).
func (h *Handle) Env() *kernel.Env { return h.env }

// Wait blocks the parent until the child exits (wait4 semantics). Only
// a handle from Proc.Spawn has a parent to block.
func (h *Handle) Wait() {
	h.parent.e.Syscall(200)
	h.parent.e.WaitFor(h.env)
}
