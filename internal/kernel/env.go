package kernel

import (
	"errors"

	"xok/internal/cap"
	"xok/internal/mem"
	"xok/internal/sim"
	"xok/internal/wkpred"
)

// EnvID names an environment. ExOS maps UNIX pids to environment
// numbers through a shared table (Section 5.2.1).
type EnvID int

type envState uint8

const (
	envRunnable envState = iota
	envRunning
	envBlocked
	envDead
)

// errKilled unwinds an environment's body: Shutdown makes its parked
// yield fail, and a fault-plan kill raises it directly.
var errKilled = errors.New("kernel: environment killed")

// Env is one environment: "the hardware-specific state needed to run a
// process ... and to respond to any event occurring during process
// execution" (Section 5.1). Its exported methods are the interface
// environment code uses while it holds the execution token; they must
// only be called from within the environment's own body function.
type Env struct {
	k     *Kernel
	id    EnvID
	name  string
	state envState

	// Creds are the capabilities this environment presents on system
	// calls. Exported state, set by the libOS at process setup.
	Creds cap.Credentials

	// PT is the environment's page table (mutated via system calls on
	// x86, Section 5.1).
	PT *mem.PageTable

	// The body's coroutine (see start): next resumes it, stop unwinds
	// it, and yield, called from inside the body, parks it.
	next  func() (parkMsg, bool)
	stop  func()
	yield func(parkMsg) bool

	burst     sim.Time // CPU cycles owed before code continues
	grant     sim.Time // size of the in-flight burn slice (see burnGrantArg)
	cpuUsed   sim.Time // lifetime CPU consumed (accounting)
	sliceLeft sim.Time
	pred      *wkpred.Pred
	timeout   sim.Event

	inCritical bool
	dying      bool   // the body is unwinding; see live
	exitWait   []*Env // environments waiting for this one to exit

	ipcQ []IPCMsg

	// Local is scratch space for the libOS running in this environment
	// (ExOS hangs its per-process state here).
	Local any
}

// ID returns the environment number.
func (e *Env) ID() EnvID { return e.id }

// Name returns the spawn label (debugging aid).
func (e *Env) Name() string { return e.name }

// Kernel returns the kernel this environment runs on.
func (e *Env) Kernel() *Kernel { return e.k }

// Dead reports whether the environment has exited.
func (e *Env) Dead() bool { return e.state == envDead }

// CPUUsed reports the total CPU cycles this environment has consumed
// (exposed information; the HTTP experiments derive server idle time
// from it).
func (e *Env) CPUUsed() sim.Time { return e.cpuUsed }

// TraceLane is this environment's lane (TID) in the machine's tracer.
// Lanes 100+ belong to environments; the disk's spindles use 1..n and
// the HTTP connections 10000+.
func (e *Env) TraceLane() int64 { return 100 + int64(e.id) }

// exit terminates the environment from inside its own code by
// unwinding the body. The coroutine swallows the poison and ends, and
// the scheduler retires the environment and wakes any WaitFor-ers.
func (e *Env) exit() {
	e.dying = true
	panic(errKilled)
}

// live refuses kernel work from a dying environment. Once its body has
// begun unwinding (killed by the fault plan, or stopped by Shutdown),
// a kernel call made by its deferred code unwinds again at once: it
// charges no time, counts nothing, wakes no one and schedules nothing.
// Deferred host code still runs; the simulated process does not.
func (e *Env) live() {
	if e.dying {
		panic(errKilled)
	}
}

// park hands the CPU to the scheduler and returns when resumed.
func (e *Env) park(msg parkMsg) {
	e.live()
	if !e.yield(msg) {
		e.dying = true
		panic(errKilled)
	}
}

// Use charges c cycles of CPU to this environment. The scheduler burns
// them in quantum slices, interleaved with other runnable
// environments; the call returns when they have elapsed.
func (e *Env) Use(c sim.Time) {
	if c == 0 {
		return
	}
	e.park(parkMsg{kind: parkUse, n: c})
}

// Syscall charges one kernel crossing plus the in-kernel work cost.
func (e *Env) Syscall(work sim.Time) {
	e.live()
	e.k.Stats.Inc(sim.CtrSyscalls)
	if e.k.Faults.KillNow(e.name) {
		// The fault plan kills this environment mid-syscall: it paid
		// the trap but never returns — exactly a process destroyed
		// through the kernel interface while inside a call. Its
		// deferred code may still run, but live refuses any kernel
		// call it makes.
		e.Use(e.k.cfg.TrapCost)
		e.exit()
	}
	if tr := e.k.Trace; tr != nil {
		begin := e.k.Eng.Now()
		e.Use(e.k.cfg.TrapCost + work)
		end := e.k.Eng.Now()
		// The span covers trap entry to return, including any slices
		// the scheduler interleaved — i.e. the call's real latency.
		tr.Span(e.k.TracePID, e.TraceLane(), "kernel", "syscall", begin, end)
		tr.Observe(e.k.TracePID, "kernel.syscall", end-begin)
		return
	}
	e.Use(e.k.cfg.TrapCost + work)
}

// Syscalls charges n kernel crossings with no work (used to model the
// protection calls inserted before shared-state writes, Section 6.3).
func (e *Env) Syscalls(n int) {
	e.live()
	e.k.Stats.Add(sim.CtrSyscalls, int64(n))
	e.Use(sim.Time(n) * e.k.cfg.TrapCost)
}

// LibCall charges a protected procedure call into a libOS plus work.
func (e *Env) LibCall(work sim.Time) {
	e.live()
	e.k.Stats.Inc(sim.CtrLibCalls)
	e.Use(sim.CostLibCall + work)
}

// Block parks the environment until another environment or a device
// handler calls Wake.
func (e *Env) Block() {
	e.park(parkMsg{kind: parkBlock})
}

// SleepOn downloads a wakeup predicate and parks. The kernel evaluates
// the predicate whenever the environment is about to be scheduled
// (Section 5.1). deadline, if non-zero, is a hint: the kernel will run
// a dispatch pass at that time even if the machine is otherwise idle
// (predicates that compare against the clock need this to fire).
func (e *Env) SleepOn(p *wkpred.Pred, deadline sim.Time) {
	e.live()
	e.pred = p
	e.Use(p.Cost()) // downloading/compiling the predicate
	if deadline > 0 {
		d := deadline
		e.timeout = e.k.Eng.At(d, func() {
			e.timeout = sim.Event{}
			e.k.kickDispatch()
		})
	}
	e.park(parkMsg{kind: parkBlock})
}

// Wake makes target runnable. Callable from device completion handlers
// and from other environments' code (both hold the token).
func (k *Kernel) Wake(target *Env) {
	if target == nil || target.state != envBlocked {
		return
	}
	k.makeRunnable(target)
}

// YieldTo gives up the CPU in favor of target (directed yield,
// Section 5.2.1: pipes yield to the other party when it must do work).
// A nil target is an undirected yield to the end of the run queue.
func (e *Env) YieldTo(target *Env) {
	e.live()
	e.k.Wake(target)
	e.park(parkMsg{kind: parkYieldTo, to: target})
}

// WaitFor blocks until target exits. Returns immediately if it is
// already dead. Robust against spurious wakeups.
func (e *Env) WaitFor(target *Env) {
	e.live()
	for target != nil && target.state != envDead {
		target.exitWait = append(target.exitWait, e)
		e.park(parkMsg{kind: parkBlock})
	}
}

// WaitAnyOf blocks until at least one of the targets exits (the
// workload launcher's wait-any). Returns immediately if any target is
// already dead or the list is empty.
func (e *Env) WaitAnyOf(targets []*Env) {
	e.live()
	for {
		if len(targets) == 0 {
			return
		}
		for _, t := range targets {
			if t == nil || t.state == envDead {
				return
			}
		}
		for _, t := range targets {
			t.exitWait = append(t.exitWait, e)
		}
		e.park(parkMsg{kind: parkBlock})
	}
}

// BeginCritical enters a robust critical section by disabling software
// interrupts (Section 3.3: "inexpensive critical sections ...
// eliminates the need to trust other processes"). While in a critical
// section the environment is not preempted at slice end.
func (e *Env) BeginCritical() {
	e.inCritical = true
	e.Use(20) // disable software interrupts: a couple of stores
}

// EndCritical leaves the critical section.
func (e *Env) EndCritical() {
	e.inCritical = false
	e.Use(20)
}

// Sleep parks until the given virtual duration elapses.
func (e *Env) Sleep(d sim.Time) {
	e.live()
	target := e.k.Eng.Now() + d
	e.timeout = e.k.Eng.At(target, func() {
		e.timeout = sim.Event{}
		e.k.makeRunnable(e)
	})
	e.park(parkMsg{kind: parkBlock})
}
