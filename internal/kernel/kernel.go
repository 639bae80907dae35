// Package kernel implements the simulated Xok exokernel: environments
// (the hardware-specific state needed to run a process, Section 5.1),
// a round-robin time-sliced CPU scheduler with explicit slice
// start/end upcalls, directed yields, wakeup-predicate sleeping,
// software regions, robust critical sections, and IPC.
//
// # Execution model
//
// Each environment's code runs as a coroutine (iter.Pull) that the
// scheduler switches into and that switches back when it parks, so
// exactly one of the event loop and the current environment runs at a
// time. An environment's code executes in zero virtual time except
// where it explicitly charges cycles (Env.Use and the syscall
// helpers); charged cycles are burned by the scheduler in
// quantum-sized slices interleaved round-robin with other runnable
// environments, so CPU contention, context-switch overhead and
// time-slice preemption are modelled faithfully and deterministically.
//
// The same Kernel type also serves as the substrate for the monolithic
// BSD personalities (internal/bsdos): Config selects the trap cost and
// scheduling quantum, while the OS personalities built on top decide
// what work happens in "the kernel" (traps) versus libraries.
package kernel

import (
	"fmt"

	"xok/internal/disk"
	"xok/internal/fault"
	"xok/internal/mem"
	"xok/internal/sim"
	"xok/internal/trace"
)

// Config parameterizes a machine's kernel.
type Config struct {
	Name     string   // "xok", "freebsd", "openbsd", ...
	TrapCost sim.Time // one kernel crossing (trap + return)
	Quantum  sim.Time // scheduler time slice
	MemPages int      // physical memory size in pages
	DiskSize int64    // disk size in blocks (0 = no disk)

	// Spindles > 1 builds the disk as a RAID-0 stripe set
	// (StripeUnit blocks per unit; default 16).
	Spindles   int
	StripeUnit int64

	// Trace attaches an observability tracer to this machine. Nil —
	// the default — turns tracing off at the cost of one nil check
	// per record point. The tracer is per-machine state: machines
	// running concurrently must not share one (merge per-machine
	// tracers afterwards with trace.Tracer.Merge).
	Trace *trace.Tracer

	// Faults attaches a deterministic fault plan (internal/fault): the
	// disk consults it for media errors and torn writes, Env.Syscall
	// for env kills. Nil — the default — injects nothing and costs one
	// nil check per decision point, the same contract as Trace.
	Faults *fault.Plan

	// Eng, when non-nil, attaches the machine to a shared event engine
	// instead of building a private one: all machines on one engine
	// share a single virtual clock, which is how a netsim.Topology
	// ties a cluster of machines to one network fabric. Machines on a
	// shared engine still run one environment at a time each (every
	// environment is its own coroutine), but they must all run from
	// the same host goroutine, and the per-machine engine event hook
	// is skipped — an event count spanning machines belongs to no
	// single one of them.
	Eng *sim.Engine
}

// DefaultQuantum is a 10-ms scheduler slice.
const DefaultQuantum = 10 * sim.Millisecond

// Kernel is one simulated machine's privileged core.
type Kernel struct {
	Eng   *sim.Engine
	Stats *sim.Stats
	Mem   *mem.PhysMem
	Disk  *disk.Disk

	// Trace is this machine's span/histogram sink (nil = tracing off)
	// and TracePID its process id within the tracer. Subsystems built
	// on the kernel (netsim, cffs, xn) emit through these.
	Trace    *trace.Tracer
	TracePID int64

	// Faults is the machine's fault plan (nil = no injection).
	// Subsystems that need fault decisions (netsim) read it here, the
	// same way they reach Trace.
	Faults *fault.Plan

	cfg      Config
	nextEnv  EnvID
	envs     map[EnvID]*Env
	runq     []*Env // runnable, round-robin order (live: runq[runqHead:])
	runqHead int    // index of the queue front within runq
	current  *Env
	sleeprs  []*Env // predicate sleepers, in sleep order

	dispatchPending bool
	liveEnvs        int

	regions    map[RegionID]*region
	nextRegion RegionID
}

// New builds a machine: engine, stats, memory, optional disk, kernel.
func New(cfg Config) *Kernel {
	if cfg.TrapCost == 0 {
		cfg.TrapCost = sim.CostTrapXok
	}
	if cfg.Quantum == 0 {
		cfg.Quantum = DefaultQuantum
	}
	if cfg.MemPages == 0 {
		cfg.MemPages = 16384 // 64 MB
	}
	eng := cfg.Eng
	shared := eng != nil
	if eng == nil {
		eng = sim.NewEngine()
	}
	st := sim.NewStats()
	k := &Kernel{
		Eng:     eng,
		Stats:   st,
		Mem:     mem.New(cfg.MemPages, st),
		Faults:  cfg.Faults,
		cfg:     cfg,
		envs:    make(map[EnvID]*Env),
		regions: make(map[RegionID]*region),
	}
	if cfg.DiskSize > 0 {
		opts := []disk.Option{disk.WithFaults(cfg.Faults)}
		if cfg.Spindles > 1 {
			opts = append(opts, disk.WithStriping(cfg.Spindles, cfg.StripeUnit))
		}
		k.Disk = disk.New(eng, st, cfg.DiskSize, opts...)
	}
	tr := cfg.Trace
	if tr.Enabled() {
		k.Trace = tr
		k.TracePID = tr.AddProcess(cfg.Name)
		pid := k.TracePID
		if !shared {
			eng.SetEventHook(func(at sim.Time) { tr.Count(pid, "events", 1) })
		}
		if k.Disk != nil {
			k.Disk.SetTrace(tr, pid)
		}
	}
	return k
}

// Config returns the kernel's configuration.
func (k *Kernel) Config() Config { return k.cfg }

// TrapCost returns one kernel-crossing cost for this machine.
func (k *Kernel) TrapCost() sim.Time { return k.cfg.TrapCost }

// Now returns the current virtual time.
func (k *Kernel) Now() sim.Time { return k.Eng.Now() }

// parkMsg is what an environment's coroutine yields when it hands the
// CPU back to the scheduler.
type parkMsg struct {
	kind parkKind
	n    sim.Time // useCPU: cycles requested
	to   *Env     // yieldTo target
}

type parkKind uint8

const (
	parkUse parkKind = iota
	parkBlock
	parkYieldTo
)

// Spawn creates an environment running body and makes it runnable.
// The body executes as the environment's coroutine; it may only touch
// kernel state between Spawn and its return.
func (k *Kernel) Spawn(name string, body func(*Env)) *Env {
	e := &Env{
		k:     k,
		id:    k.nextEnv,
		name:  name,
		state: envBlocked, // makeRunnable queues it below
		PT:    mem.NewPageTable(),
	}
	k.nextEnv++
	k.envs[e.id] = e
	k.liveEnvs++
	if k.Trace != nil {
		k.Trace.NameLane(k.TracePID, e.TraceLane(), fmt.Sprintf("env %d (%s)", e.id, name))
	}
	e.start(body)
	k.makeRunnable(e)
	return e
}

// Env returns the environment with the given id, or nil.
func (k *Kernel) Env(id EnvID) *Env { return k.envs[id] }

// LiveEnvs reports how many environments have not exited.
func (k *Kernel) LiveEnvs() int { return k.liveEnvs }

func (k *Kernel) makeRunnable(e *Env) {
	if e.state == envDead {
		return
	}
	if e.state == envRunnable || e.state == envRunning {
		return
	}
	e.state = envRunnable
	e.pred = nil
	if e.timeout.Pending() {
		k.Eng.Cancel(e.timeout)
		e.timeout = sim.Event{}
	}
	// Remove from sleepers if present.
	for i, s := range k.sleeprs {
		if s == e {
			k.sleeprs = append(k.sleeprs[:i], k.sleeprs[i+1:]...)
			break
		}
	}
	k.runqPush(e)
	k.kickDispatch()
}

// The run queue is a head-indexed deque over one backing array:
// runq[runqHead:] are the runnable environments in order. Popping
// advances the head instead of re-slicing the array away — the old
// `runq = runq[1:]` pattern made every wake/dispatch cycle abandon its
// backing storage, so a long campaign re-allocated the queue tens of
// thousands of times.

func (k *Kernel) runqPush(e *Env) { k.runq = append(k.runq, e) }

func (k *Kernel) runqPop() *Env {
	if k.runqHead == len(k.runq) {
		return nil
	}
	e := k.runq[k.runqHead]
	k.runq[k.runqHead] = nil
	k.runqHead++
	if k.runqHead == len(k.runq) {
		k.runq = k.runq[:0]
		k.runqHead = 0
	}
	return e
}

// runqPromote moves e (already queued) to the front of the queue.
func (k *Kernel) runqPromote(e *Env) {
	live := k.runq[k.runqHead:]
	for i, r := range live {
		if r == e {
			copy(live[1:i+1], live[:i])
			live[0] = e
			break
		}
	}
}

// kickDispatch arranges for a dispatch pass if the CPU is idle.
func (k *Kernel) kickDispatch() {
	if k.current != nil || k.dispatchPending {
		return
	}
	k.dispatchPending = true
	k.Eng.AfterArg(0, kickDispatchArg, k)
}

// kickDispatchArg and dispatchArg are the scheduler's timer callbacks
// in sim.Engine's allocation-free AfterArg form: one package-level
// func each, the kernel passed through arg, no closure allocated per
// context switch.
func kickDispatchArg(a any) {
	k := a.(*Kernel)
	k.dispatchPending = false
	k.dispatch()
}

func dispatchArg(a any) { a.(*Kernel).dispatch() }

// dispatch is the scheduler: wake satisfied predicate sleepers, then
// run the next environment.
func (k *Kernel) dispatch() {
	if k.current != nil {
		return
	}
	k.scanSleepers()
	e := k.runqPop()
	if e == nil {
		return
	}
	k.current = e
	e.state = envRunning
	e.sliceLeft = k.cfg.Quantum
	// Slice-start notification upcall (Section 5.1: "explicit
	// notification of the beginning and the end of a time slice").
	k.Stats.Inc(sim.CtrUpcalls)
	if k.Trace != nil {
		k.Trace.Instant(k.TracePID, e.TraceLane(), "upcall", "slice-start", k.Eng.Now())
	}
	e.burst += sim.CostUpcall
	k.step(e)
}

// scanSleepers evaluates wakeup predicates "when an environment is
// about to be scheduled" and moves satisfied sleepers to the run
// queue.
func (k *Kernel) scanSleepers() {
	now := k.Eng.Now()
	for i := 0; i < len(k.sleeprs); {
		e := k.sleeprs[i]
		if e.pred == nil {
			i++
			continue
		}
		k.Stats.Inc(sim.CtrPredEvals)
		if e.pred.Eval(now) {
			// makeRunnable removes it from sleeprs; don't advance i.
			k.makeRunnable(e)
			continue
		}
		i++
	}
}

// step advances the current environment: burn owed CPU in slice-sized
// pieces, then resume its code.
func (k *Kernel) step(e *Env) {
	if e != k.current {
		return
	}
	if e.burst > 0 {
		grant := e.burst
		if !e.inCritical && grant > e.sliceLeft {
			grant = e.sliceLeft
		}
		if grant == 0 { // slice expired with work left
			k.rotate(e)
			return
		}
		e.grant = grant
		k.Eng.AfterArg(grant, burnGrantArg, e)
		return
	}
	if e.sliceLeft == 0 && !e.inCritical {
		k.rotate(e)
		return
	}
	k.resume(e)
}

// rotate preempts e at end of slice: slice-end upcall, context switch,
// requeue.
func (k *Kernel) rotate(e *Env) {
	k.Stats.Inc(sim.CtrUpcalls)
	k.Stats.Inc(sim.CtrCtxSwitches)
	if k.Trace != nil {
		now := k.Eng.Now()
		k.Trace.Instant(k.TracePID, e.TraceLane(), "upcall", "slice-end", now)
		k.Trace.Span(k.TracePID, e.TraceLane(), "kernel", "ctx-switch",
			now, now+sim.CostContextSwitch+sim.CostUpcall)
	}
	k.current = nil
	e.state = envRunnable
	k.runqPush(e)
	k.Eng.AfterArg(sim.CostContextSwitch+sim.CostUpcall, dispatchArg, k)
}

// burnGrantArg finishes one CPU burn slice for the environment in arg
// (the grant was stashed in e.grant by step; only one burn event can
// be outstanding per environment, because its code is parked while the
// scheduler burns its cycles).
func burnGrantArg(a any) {
	e := a.(*Env)
	grant := e.grant
	e.burst -= grant
	e.cpuUsed += grant
	if e.sliceLeft >= grant {
		e.sliceLeft -= grant
	} else {
		e.sliceLeft = 0
	}
	e.k.step(e)
}

// resume switches to e's coroutine and processes the park message it
// yields back; a body that returned or unwound yields none and exits.
func (k *Kernel) resume(e *Env) {
	msg, ok := e.next()
	if !ok {
		k.retire(e)
		return
	}
	switch msg.kind {
	case parkUse:
		e.burst += msg.n
		k.step(e)
	case parkBlock:
		k.current = nil
		e.state = envBlocked
		if e.pred != nil {
			k.sleeprs = append(k.sleeprs, e)
		}
		k.Stats.Inc(sim.CtrCtxSwitches)
		if k.Trace != nil {
			now := k.Eng.Now()
			k.Trace.Span(k.TracePID, e.TraceLane(), "kernel", "ctx-switch",
				now, now+sim.CostContextSwitch)
		}
		k.Eng.AfterArg(sim.CostContextSwitch, dispatchArg, k)
	case parkYieldTo:
		k.current = nil
		e.state = envRunnable
		k.runqPush(e)
		if msg.to != nil && msg.to.state == envRunnable {
			k.runqPromote(msg.to)
		}
		k.Eng.AfterArg(sim.CostYieldDirected, dispatchArg, k)
	}
}

// retire marks e dead once its body has returned or unwound, and
// wakes its WaitFor-ers.
func (k *Kernel) retire(e *Env) {
	k.current = nil
	e.state = envDead
	k.liveEnvs--
	delete(k.envs, e.id)
	for _, w := range e.exitWait {
		k.makeRunnable(w)
	}
	e.exitWait = nil
	k.Eng.AfterArg(sim.CostContextSwitch, dispatchArg, k)
}

// Run processes events until the machine is idle (no events pending;
// all environments either exited or blocked forever).
func (k *Kernel) Run() { k.Eng.Run() }

// RunUntil processes events until time t.
func (k *Kernel) RunUntil(t sim.Time) { k.Eng.RunUntil(t) }

// Crash cuts the machine's power at virtual time at: events run to
// that instant, the surviving disk image is captured (including torn
// in-flight writes when the fault plan arms them), and every
// environment dies. The returned image is what a fresh machine
// remounts — the crash-recovery path of Section 4.4.
func (k *Kernel) Crash(at sim.Time) disk.Image {
	k.RunUntil(at)
	var img disk.Image
	if k.Disk != nil {
		img = k.Disk.CrashImage()
	}
	k.Shutdown()
	return img
}

// Shutdown unwinds every live environment's coroutine. Call when a
// test or benchmark finishes with environments still blocked.
func (k *Kernel) Shutdown() {
	for _, e := range k.envs {
		if e.state != envDead && e.state != envRunning {
			e.state = envDead
			e.stop()
		}
	}
}

// Release is Shutdown plus teardown-for-reuse: physical memory and the
// disk hand their 4-KB buffers back to bufpool so the next machine
// boots from recycled storage instead of fresh heap. The machine is
// unusable afterwards (Mem is nil, the disk is empty) — any late
// access fails loudly instead of silently corrupting pooled buffers.
// Only call from harnesses that own the machine outright and are done
// with every reference into it, including disk images obtained via
// Snapshot (copies — safe) and crash images already handed off.
func (k *Kernel) Release() {
	k.Shutdown()
	if k.Mem != nil {
		k.Mem.Recycle()
		k.Mem = nil
	}
	if k.Disk != nil {
		k.Disk.Recycle()
	}
}

// ChargeInterrupt accounts interrupt CPU time: if an environment is
// running, the interrupt steals cycles from it; otherwise the CPU was
// idle and the cost vanishes into idle time.
func (k *Kernel) ChargeInterrupt(c sim.Time) {
	if k.current != nil {
		k.current.burst += c
	}
}

// String identifies the kernel.
func (k *Kernel) String() string {
	return fmt.Sprintf("kernel(%s)", k.cfg.Name)
}
