package kernel

import (
	"fmt"
	"slices"
	"testing"

	"xok/internal/sim"
	"xok/internal/trace"
	"xok/internal/wkpred"
)

// countResumes wraps e's coroutine so every switch into its body adds
// one to *n: a Use burned inline adds none.
func countResumes(e *Env, n *int) {
	next := e.next
	e.next = func() (parkMsg, bool) {
		*n++
		return next()
	}
}

// runAheadOutcome is everything a run of runAheadScenario can show.
type runAheadOutcome struct {
	now        sim.Time
	cpu        []sim.Time
	stats      string
	dispatched int64
	digest     uint64
	log        []string
	resumes    int
}

// runAheadScenario boots a traced machine whose environments meet the
// scheduler in every way a Use can: charges below, equal to and above
// the quantum, critical sections, engine timers at and just before the
// end of a charge, Block/Wake, predicate sleeps with a deadline, plain
// sleeps, a charge that ends its slice exactly and one made while an
// interrupt's cycles are owed. drive runs the machine; the outcome is read afterwards.
func runAheadScenario(drive func(*Kernel)) runAheadOutcome {
	tr := trace.New()
	k := New(Config{Name: "xok", MemPages: 256, Trace: tr})
	q := k.Config().Quantum
	var out runAheadOutcome
	note := func(who, what string) {
		out.log = append(out.log, fmt.Sprintf("%d %s %s", k.Now(), who, what))
	}
	var word int64
	var blocked *Env
	envs := []*Env{
		k.Spawn("sizes", func(e *Env) {
			for _, c := range []sim.Time{1, 300, q - 1, q, q + 1, 3*q + 7, 2, q / 2, q / 2} {
				e.Use(c)
				note("sizes", "use")
			}
			e.Syscall(500)
			e.Syscalls(3)
			e.LibCall(40)
			note("sizes", "done")
		}),
		k.Spawn("critical", func(e *Env) {
			e.Use(q / 5)
			e.BeginCritical()
			e.Use(q / 3)
			e.Use(q)
			e.Use(2*q + 11)
			note("critical", "inside")
			e.EndCritical()
			e.Use(100)
			note("critical", "done")
		}),
		k.Spawn("timers", func(e *Env) {
			for _, c := range []sim.Time{1000, 5000, q / 2} {
				now := k.Now()
				k.Eng.At(now+c, func() { note("timers", "tie") })
				k.Eng.At(now+c-1, func() { note("timers", "one before") })
				e.Use(c)
				note("timers", "use")
			}
		}),
		k.Spawn("blocker", func(e *Env) {
			e.Use(200)
			e.Block()
			note("blocker", "woken")
			e.Use(50)
		}),
		k.Spawn("waker", func(e *Env) {
			e.Use(q / 4)
			k.Wake(blocked)
			e.Syscall(30)
			word = 1
			e.Use(10)
			note("waker", "done")
		}),
		k.Spawn("sleepers", func(e *Env) {
			word1, _ := wkpred.Compile(wkpred.Cmp(wkpred.EQ, wkpred.Load(&word), wkpred.Const(1)))
			e.SleepOn(word1, k.Now()+2*q)
			note("sleepers", "word set")
			at := int64(k.Now() + q/3)
			clock, _ := wkpred.Compile(wkpred.Cmp(wkpred.GE, wkpred.Clock(), wkpred.Const(at)))
			e.SleepOn(clock, sim.Time(at))
			note("sleepers", "deadline")
			e.Sleep(777)
			e.Use(3)
			note("sleepers", "done")
		}),
		k.Spawn("exact", func(e *Env) {
			e.Use(e.sliceLeft - 1)
			e.Use(1) // exactly the rest of the slice: it rotates
			note("exact", "rotated")
			k.ChargeInterrupt(500) // owed before the next charge
			e.Use(100)
			note("exact", "done")
		}),
	}
	blocked = envs[3]
	for _, e := range envs {
		countResumes(e, &out.resumes)
	}
	drive(k)
	out.now = k.Now()
	for _, e := range envs {
		out.cpu = append(out.cpu, e.CPUUsed())
	}
	out.stats = k.Stats.String()
	out.dispatched = k.Eng.Dispatched()
	out.digest = tr.Digest()
	return out
}

// Burning a charge inline is exact: a machine driven by Step, which
// never runs ahead, and the same machine driven by Run end with the
// same clock, CPU accounting, counters, event count, trace and order
// of observations — while Run switches into the bodies fewer times.
func TestUseRunAheadMatchesParked(t *testing.T) {
	parked := runAheadScenario(func(k *Kernel) {
		for k.Eng.Step() {
		}
	})
	inline := runAheadScenario((*Kernel).Run)
	if inline.now != parked.now {
		t.Errorf("clock %v inline, %v parked", inline.now, parked.now)
	}
	if !slices.Equal(inline.cpu, parked.cpu) {
		t.Errorf("CPUUsed %v inline, %v parked", inline.cpu, parked.cpu)
	}
	if inline.stats != parked.stats {
		t.Errorf("stats inline:\n%s\nparked:\n%s", inline.stats, parked.stats)
	}
	if inline.dispatched != parked.dispatched {
		t.Errorf("%d events inline, %d parked", inline.dispatched, parked.dispatched)
	}
	if inline.digest != parked.digest {
		t.Errorf("trace digest %x inline, %x parked", inline.digest, parked.digest)
	}
	if !slices.Equal(inline.log, parked.log) {
		t.Errorf("observations inline:\n%v\nparked:\n%v", inline.log, parked.log)
	}
	if len(parked.log) != 28 {
		t.Errorf("%d observations, want 28: a body stopped early", len(parked.log))
	}
	if inline.resumes >= parked.resumes {
		t.Errorf("%d resumes inline, %d parked: no Use ran ahead", inline.resumes, parked.resumes)
	}
}

// A Use that straddles a crash point stops at the crash on both paths:
// RunAhead refuses past RunUntil's bound, so the charge is left
// half-burned exactly as the parked path leaves it.
func TestUseRunAheadStopsAtCrash(t *testing.T) {
	const at = 50_000
	run := func(stepped bool) (now, cpu sim.Time, events int64, resumes int) {
		k := newXok()
		e := k.Spawn("straddle", func(e *Env) {
			for i := 0; i < 40; i++ {
				e.Use(1000)
			}
			e.Use(20_000) // begins before at, ends after it
			t.Error("straddling Use returned before the crash")
		})
		countResumes(e, &resumes)
		if stepped {
			// Step up to the crash point; a marker event at exactly at
			// stops the loop, and Crash's RunUntil runs whatever is
			// left at that instant (it cannot run ahead from there).
			stop := k.Eng.At(at, func() {})
			for stop.Pending() {
				k.Eng.Step()
			}
			events-- // the marker
		}
		k.Crash(at)
		return k.Now(), e.CPUUsed(), events + k.Eng.Dispatched(), resumes
	}
	pNow, pCPU, pEvents, pResumes := run(true)
	iNow, iCPU, iEvents, iResumes := run(false)
	if pNow != at || iNow != at {
		t.Errorf("clock %v parked, %v inline; want the crash point %v", pNow, iNow, sim.Time(at))
	}
	if pCPU != iCPU {
		t.Errorf("CPUUsed %v parked, %v inline", pCPU, iCPU)
	}
	if pEvents != iEvents {
		t.Errorf("%d events parked, %d inline", pEvents, iEvents)
	}
	if iResumes >= pResumes {
		t.Errorf("%d resumes inline, %d parked: no Use ran ahead", iResumes, pResumes)
	}
}

// An inline Use allocates nothing and never switches into the body:
// each RunUntil window below resumes the spinning environment once,
// for the charge parked at the previous window's bound, and burns the
// rest inline.
func TestUseRunAheadAllocs(t *testing.T) {
	k := newXok()
	defer k.Shutdown()
	uses, resumes := 0, 0
	spin(k, &uses)
	for _, e := range k.envs {
		countResumes(e, &resumes)
	}
	const batch = 1000
	k.RunUntil(batch)
	allocs := testing.AllocsPerRun(20, func() {
		u, r := uses, resumes
		k.RunUntil(k.Now() + batch)
		if uses-u != batch || resumes-r != 1 {
			t.Fatalf("%d Uses with %d resumes per window, want %d with 1", uses-u, resumes-r, batch)
		}
	})
	if allocs != 0 {
		t.Errorf("%v allocs per %d inline Uses, want 0", allocs, batch)
	}
}

// BenchmarkKernelUseRunAhead times one Use of a single environment
// under Run, where nothing else is queued: the charge burns inline,
// with no coroutine switch and no engine event. Compare
// BenchmarkKernelHandoff, which measures the parked path.
func BenchmarkKernelUseRunAhead(b *testing.B) {
	k := newXok()
	k.Spawn("use", func(e *Env) {
		for i := 0; i < b.N; i++ {
			e.Use(1)
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	k.Run()
}
