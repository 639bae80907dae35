package kernel

import (
	"bytes"
	"testing"

	"xok/internal/disk"
	"xok/internal/fault"
	"xok/internal/sim"
)

func TestEnvKillMidSyscall(t *testing.T) {
	stopFreeCoros()
	base := envGoroutines()
	plan := &fault.Plan{KillSyscallNth: 3, KillEnv: "victim"}
	k := New(Config{Name: "xok", MemPages: 256, Faults: plan})

	completed := 0
	unwound := false
	victim := k.Spawn("victim", func(e *Env) {
		defer func() { unwound = true }()
		for i := 0; i < 10; i++ {
			e.Syscall(100)
			completed++
		}
	})
	waited := false
	bystanderDone := false
	k.Spawn("waiter", func(e *Env) {
		e.WaitFor(victim)
		waited = true
	})
	k.Spawn("bystander", func(e *Env) {
		for i := 0; i < 5; i++ {
			e.Syscall(100)
		}
		bystanderDone = true
	})
	k.Run()

	if completed != 2 {
		t.Errorf("victim completed %d syscalls, want 2 (killed inside the 3rd)", completed)
	}
	if !victim.Dead() {
		t.Error("victim not dead")
	}
	if !unwound {
		t.Error("kill did not unwind the victim's body")
	}
	stopFreeCoros()
	if g := envGoroutines() - base; g != 0 {
		t.Errorf("%d env goroutines left after every env exited", g)
	}
	if !waited {
		t.Error("WaitFor on the killed env never returned")
	}
	if !bystanderDone {
		t.Error("bystander disturbed by the kill")
	}
	if !plan.Killed() {
		t.Error("plan did not latch the kill")
	}
	if k.liveEnvs != 0 {
		t.Errorf("LiveEnvs = %d after drain", k.liveEnvs)
	}
}

func TestKillEnvNameFilter(t *testing.T) {
	plan := &fault.Plan{KillSyscallNth: 1, KillEnv: "nobody"}
	k := New(Config{Name: "xok", MemPages: 256, Faults: plan})
	ok := false
	k.Spawn("worker", func(e *Env) {
		e.Syscall(0)
		ok = true
	})
	k.Run()
	if !ok || plan.Killed() {
		t.Fatalf("kill fired for a non-matching env (ok=%v killed=%v)", ok, plan.Killed())
	}
}

func TestCrashCapturesMediaNotInFlight(t *testing.T) {
	k := New(Config{Name: "xok", MemPages: 256, DiskSize: 128})
	durable := bytes.Repeat([]byte{0xD0}, sim.DiskBlockSize)
	k.Disk.PokeBlock(1, durable)
	page := bytes.Repeat([]byte{0xEE}, sim.DiskBlockSize)
	k.Disk.Submit(&disk.Request{Write: true, Block: 2, Count: 1, Pages: [][]byte{page}})
	img := k.Crash(10).Flatten() // long before the write's service completes
	if !bytes.Equal(img[1], durable) {
		t.Error("durable block missing from crash image")
	}
	if _, ok := img[2]; ok {
		t.Error("in-flight write reached the crash image without torn writes armed")
	}
}

// A killed environment's deferred kernel calls do no simulated work:
// the deferred Syscall unwinds at once, so it charges no time, counts
// no crossing and wakes no one, and the rest of the deferred function
// never runs. WaitFor-ers still see the exit.
func TestKilledEnvDeferredSyscallRefused(t *testing.T) {
	plan := &fault.Plan{KillSyscallNth: 2, KillEnv: "victim"}
	k := New(Config{Name: "xok", MemPages: 256, Faults: plan})
	var reader *Env
	woken := false
	reader = k.Spawn("reader", func(e *Env) {
		e.Block() // a pipe reader the victim's Close would wake
		woken = true
	})
	deferRan, afterDeferred := false, false
	var usedAtKill sim.Time
	victim := k.Spawn("victim", func(e *Env) {
		defer func() {
			deferRan = true
			usedAtKill = e.CPUUsed()
			e.Syscall(100)
			e.k.Wake(reader)
			afterDeferred = true
		}()
		for {
			e.Syscall(100)
		}
	})
	waited := false
	k.Spawn("waiter", func(e *Env) {
		e.WaitFor(victim)
		waited = true
	})
	k.Run()

	if !deferRan || afterDeferred {
		t.Fatalf("deferred code ran=%v, past its Syscall=%v; want true, false", deferRan, afterDeferred)
	}
	if got := k.Stats.Get(sim.CtrSyscalls); got != 2 {
		t.Errorf("%d syscalls counted, want 2 (the deferred one refused)", got)
	}
	if used := victim.CPUUsed(); used != usedAtKill {
		t.Errorf("victim charged %v after the kill", used-usedAtKill)
	}
	if woken {
		t.Error("the dead victim's deferred code woke the reader")
	}
	if !waited || !victim.Dead() {
		t.Errorf("waited=%v dead=%v; want the WaitFor-er to see the exit", waited, victim.Dead())
	}
	k.Shutdown()
}

// Shutdown unwinds a parked body the same way: a deferred Syscall
// neither counts a crossing nor draws from the fault plan.
func TestShutdownDeferredSyscallRefused(t *testing.T) {
	plan := &fault.Plan{KillSyscallNth: 1, KillEnv: "nobody"}
	k := New(Config{Name: "xok", MemPages: 256, Faults: plan})
	afterDeferred := false
	k.Spawn("closer", func(e *Env) {
		defer func() {
			e.Syscall(100)
			afterDeferred = true
		}()
		e.Block()
	})
	k.Run()
	before := k.Stats.Get(sim.CtrSyscalls)
	k.Shutdown()
	if afterDeferred {
		t.Error("deferred code ran past its Syscall at Shutdown")
	}
	if got := k.Stats.Get(sim.CtrSyscalls); got != before {
		t.Errorf("Shutdown's unwind counted %d syscalls", got-before)
	}
	if plan.Killed() {
		t.Error("Shutdown's unwind drew from the fault plan")
	}
}
