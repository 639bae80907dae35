package kernel

import (
	"sync"
	"testing"

	"xok/internal/cap"
	"xok/internal/fault"
	"xok/internal/sim"
)

// freeCoroCount reports the length of the free list and whether c is
// on it.
func freeCoroCount(c *coro) (n int, listed bool) {
	freeCoros.Lock()
	defer freeCoros.Unlock()
	for _, f := range freeCoros.list {
		listed = listed || f == c
	}
	return len(freeCoros.list), listed
}

// A body killed by the fault plan hands its coroutine on: the next
// environment runs its body on it, with its own fresh Creds, Local and
// dying flag, and no new goroutine. A never-started environment on a
// reused coroutine unwinds at Shutdown without running its body.
func TestKilledEnvCoroutineReused(t *testing.T) {
	stopFreeCoros()
	base := envGoroutines()
	plan := &fault.Plan{KillSyscallNth: 2, KillEnv: "victim"}
	k := New(Config{Name: "xok", MemPages: 256, Faults: plan})
	victim := k.Spawn("victim", func(e *Env) {
		e.Creds = cap.UnixCreds(7)
		e.Local = "victim state"
		for {
			e.Syscall(100)
		}
	})
	co := victim.co
	k.Run()
	if !victim.Dead() || !plan.Killed() {
		t.Fatalf("victim dead=%v, plan killed=%v; want both", victim.Dead(), plan.Killed())
	}
	if victim.co != nil {
		t.Error("retired environment still holds its coroutine")
	}
	if _, listed := freeCoroCount(co); !listed {
		t.Fatal("killed body's coroutine not on the free list")
	}
	if co.env != nil || co.body != nil {
		t.Error("idle coroutine still references its last environment")
	}

	ran := false
	next := k.Spawn("next", func(e *Env) {
		if e.Creds != nil || e.Local != nil || e.dying {
			t.Errorf("reused coroutine carried state: Creds=%v Local=%v dying=%v", e.Creds, e.Local, e.dying)
		}
		e.Creds = cap.UnixCreds(8)
		e.Syscall(100)
		ran = true
	})
	if next.co != co {
		t.Fatal("new environment did not take the idle coroutine")
	}
	if n, _ := freeCoroCount(nil); n != 0 {
		t.Errorf("free list holds %d coroutines after the reuse, want 0", n)
	}
	before := k.Now()
	k.Run()
	if !ran || !next.Dead() {
		t.Fatalf("body on the reused coroutine: ran=%v dead=%v", ran, next.Dead())
	}
	if k.Now() == before {
		t.Error("body on the reused coroutine charged no time")
	}
	if g := envGoroutines() - base; g != 1 {
		t.Errorf("%d env goroutines for two sequential environments, want 1", g)
	}

	k.Spawn("unstarted", func(e *Env) {
		t.Error("never-started env ran at teardown")
	})
	k.Shutdown()
	if g := envGoroutines() - base; g != 0 {
		t.Errorf("%d env goroutines left after Shutdown", g)
	}
}

// A coroutine whose body panicked with anything but the kernel's kill
// is never reused, and the panic still reaches the caller of Run.
func TestPanickedCoroutineNotReused(t *testing.T) {
	stopFreeCoros()
	base := envGoroutines()
	k := newXok()
	k.Spawn("done", func(e *Env) { e.Use(10) })
	faulty := k.Spawn("faulty", func(e *Env) {
		e.Use(100)
		panic("boom")
	})
	co := faulty.co
	got := func() (r any) {
		defer func() { r = recover() }()
		k.Run()
		return nil
	}()
	if got != "boom" {
		t.Fatalf("Run recovered %v, want the body's panic \"boom\"", got)
	}
	n, listed := freeCoroCount(co)
	if listed {
		t.Error("panicked coroutine put on the free list")
	}
	if n != 1 {
		t.Errorf("free list holds %d coroutines, want 1 (the body that returned)", n)
	}
	k.Shutdown()
	stopFreeCoros()
	if g := envGoroutines() - base; g != 0 {
		t.Errorf("%d env goroutines left after Shutdown", g)
	}
}

// The free list never holds more than maxFreeCoros coroutines; the
// ones beyond it are stopped, not leaked.
func TestFreeCorosBounded(t *testing.T) {
	stopFreeCoros()
	base := envGoroutines()
	k := newXok()
	const envs = maxFreeCoros + 5
	for i := 0; i < envs; i++ {
		k.Spawn("e", func(e *Env) { e.Block() })
	}
	k.Run() // all blocked: envs distinct coroutines
	if g := envGoroutines() - base; g != envs {
		t.Fatalf("%d env goroutines for %d blocked envs", g, envs)
	}
	for id := EnvID(0); id < envs; id++ {
		k.Wake(k.Env(id))
	}
	k.Run()
	if k.LiveEnvs() != 0 {
		t.Fatalf("%d envs still live", k.LiveEnvs())
	}
	if n, _ := freeCoroCount(nil); n != maxFreeCoros {
		t.Errorf("free list holds %d coroutines, want the bound %d", n, maxFreeCoros)
	}
	if g := envGoroutines() - base; g != maxFreeCoros {
		t.Errorf("%d env goroutines left, want the %d on the free list", g, maxFreeCoros)
	}
	stopFreeCoros()
}

// Machines on parallel workers share the free list: a coroutine one
// worker's environment left is resumed by another worker's next
// Spawn. Run under -race.
func TestFreeCorosSharedAcrossWorkers(t *testing.T) {
	const workers, machines = 4, 25
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for m := 0; m < machines; m++ {
				k := newXok()
				sum := 0
				for i := 1; i <= 3; i++ {
					k.Spawn("e", func(e *Env) {
						e.Use(sim.Time(100 * i))
						sum += i
					})
				}
				k.Run()
				if sum != 6 || k.LiveEnvs() != 0 {
					t.Errorf("machine ran bodies summing %d with %d live envs, want 6 and 0", sum, k.LiveEnvs())
				}
				k.Release()
			}
		}()
	}
	wg.Wait()
	if n, _ := freeCoroCount(nil); n > maxFreeCoros {
		t.Errorf("free list holds %d coroutines, bound %d", n, maxFreeCoros)
	}
}
