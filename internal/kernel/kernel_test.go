package kernel

import (
	"testing"

	"xok/internal/cap"
	"xok/internal/sim"
	"xok/internal/wkpred"
)

func newXok() *Kernel {
	return New(Config{Name: "xok", MemPages: 256})
}

func TestSpawnRunsToCompletion(t *testing.T) {
	k := newXok()
	ran := false
	k.Spawn("a", func(e *Env) {
		e.Use(1000)
		ran = true
	})
	k.Run()
	if !ran {
		t.Fatal("environment body did not run")
	}
	if k.liveEnvs != 0 {
		t.Fatalf("live envs = %d, want 0", k.liveEnvs)
	}
	if k.Now() < 1000 {
		t.Fatalf("clock = %v, want >= 1000 cycles", k.Now())
	}
}

func TestCPUTimeCharged(t *testing.T) {
	k := newXok()
	k.Spawn("burn", func(e *Env) {
		e.Use(sim.FromMillis(3))
	})
	k.Run()
	if k.Now() < sim.FromMillis(3) {
		t.Fatalf("clock = %v, want >= 3ms", k.Now())
	}
	if k.Now() > sim.FromMillis(4) {
		t.Fatalf("clock = %v, too much overhead", k.Now())
	}
}

func TestRoundRobinFairness(t *testing.T) {
	// Two CPU-bound environments must finish at roughly the same time,
	// each having run for its own total, interleaved.
	k := newXok()
	var doneA, doneB sim.Time
	work := 5 * DefaultQuantum
	k.Spawn("a", func(e *Env) {
		e.Use(work)
		doneA = k.Now()
	})
	k.Spawn("b", func(e *Env) {
		e.Use(work)
		doneB = k.Now()
	})
	k.Run()
	total := k.Now()
	if total < 2*work {
		t.Fatalf("total %v < combined work %v", total, 2*work)
	}
	// Interleaving: both finish in the last fifth of the run.
	if doneA < total*3/5 || doneB < total*3/5 {
		t.Fatalf("not interleaved: A at %v, B at %v, total %v", doneA, doneB, total)
	}
	if k.Stats.Get(sim.CtrCtxSwitches) < 8 {
		t.Fatalf("ctx switches = %d, want >= 8", k.Stats.Get(sim.CtrCtxSwitches))
	}
}

func TestShortJobNotStarvedByLongJob(t *testing.T) {
	k := newXok()
	var shortDone sim.Time
	k.Spawn("long", func(e *Env) { e.Use(100 * DefaultQuantum) })
	k.Spawn("short", func(e *Env) {
		e.Use(DefaultQuantum / 2)
		shortDone = k.Now()
	})
	k.Run()
	if shortDone > 3*DefaultQuantum {
		t.Fatalf("short job finished at %v; starved", shortDone)
	}
}

func TestBlockAndWake(t *testing.T) {
	k := newXok()
	var waiter *Env
	sequence := []string{}
	waiter = k.Spawn("waiter", func(e *Env) {
		sequence = append(sequence, "block")
		e.Block()
		sequence = append(sequence, "woken")
	})
	k.Spawn("waker", func(e *Env) {
		e.Use(1000)
		sequence = append(sequence, "wake")
		k.Wake(waiter)
	})
	k.Run()
	want := []string{"block", "wake", "woken"}
	if len(sequence) != 3 {
		t.Fatalf("sequence = %v", sequence)
	}
	for i := range want {
		if sequence[i] != want[i] {
			t.Fatalf("sequence = %v, want %v", sequence, want)
		}
	}
}

func TestWakeupPredicate(t *testing.T) {
	k := newXok()
	var flag int64
	order := []string{}
	k.Spawn("sleeper", func(e *Env) {
		p, err := wkpred.Compile(wkpred.Cmp(wkpred.EQ, wkpred.Load(&flag), wkpred.Const(1)))
		if err != nil {
			t.Error(err)
			return
		}
		e.SleepOn(p, 0)
		order = append(order, "woke")
	})
	k.Spawn("setter", func(e *Env) {
		e.Use(sim.FromMillis(1))
		flag = 1
		order = append(order, "set")
		e.Use(100) // parking here triggers a dispatch that scans sleepers
	})
	k.Run()
	if len(order) != 2 || order[0] != "set" || order[1] != "woke" {
		t.Fatalf("order = %v", order)
	}
	if k.Stats.Get(sim.CtrPredEvals) == 0 {
		t.Fatal("no predicate evaluations recorded")
	}
}

func TestPredicateClockDeadline(t *testing.T) {
	// A sleeper with a clock-compare predicate on an otherwise idle
	// machine must wake at its deadline.
	k := newXok()
	deadline := sim.FromMillis(50)
	var wokeAt sim.Time
	k.Spawn("sleeper", func(e *Env) {
		p, _ := wkpred.Compile(wkpred.Cmp(wkpred.GE, wkpred.Clock(), wkpred.Const(int64(deadline))))
		e.SleepOn(p, deadline)
		wokeAt = k.Now()
	})
	k.Run()
	if wokeAt < deadline {
		t.Fatalf("woke at %v before deadline %v", wokeAt, deadline)
	}
	if wokeAt > deadline+sim.FromMillis(1) {
		t.Fatalf("woke at %v, long after deadline %v", wokeAt, deadline)
	}
}

func TestYieldToRunsTargetNext(t *testing.T) {
	k := newXok()
	var partner *Env
	order := []string{}
	partner = k.Spawn("partner", func(e *Env) {
		e.Block()
		order = append(order, "partner")
	})
	k.Spawn("filler", func(e *Env) {
		e.Use(100)
		order = append(order, "filler")
	})
	k.Spawn("yielder", func(e *Env) {
		e.Use(200)
		order = append(order, "yield")
		e.YieldTo(partner)
		order = append(order, "yielder-back")
	})
	k.Run()
	// After the yield, partner must run before the yielder resumes.
	yi, pi := -1, -1
	for i, s := range order {
		switch s {
		case "yield":
			yi = i
		case "partner":
			pi = i
		}
	}
	if yi == -1 || pi == -1 || pi < yi {
		t.Fatalf("order = %v", order)
	}
	for i, s := range order {
		if s == "yielder-back" && i < pi {
			t.Fatalf("yielder resumed before partner: %v", order)
		}
	}
}

func TestWaitFor(t *testing.T) {
	k := newXok()
	var child *Env
	var childDone, parentSaw sim.Time
	child = k.Spawn("child", func(e *Env) {
		e.Use(sim.FromMillis(5))
		childDone = k.Now()
	})
	k.Spawn("parent", func(e *Env) {
		e.WaitFor(child)
		parentSaw = k.Now()
	})
	k.Run()
	if parentSaw < childDone {
		t.Fatalf("parent resumed at %v before child exit at %v", parentSaw, childDone)
	}
	// WaitFor on a dead env returns immediately.
	k2 := newXok()
	var c2 *Env
	c2 = k2.Spawn("c", func(e *Env) {})
	k2.Run()
	done := false
	k2.Spawn("p", func(e *Env) {
		e.WaitFor(c2)
		done = true
	})
	k2.Run()
	if !done {
		t.Fatal("WaitFor(dead) blocked")
	}
}

func TestSyscallAccounting(t *testing.T) {
	k := newXok()
	k.Spawn("a", func(e *Env) {
		e.Syscall(100)
		e.Syscalls(3)
		e.LibCall(50)
	})
	k.Run()
	if got := k.Stats.Get(sim.CtrSyscalls); got != 4 {
		t.Fatalf("syscalls = %d, want 4", got)
	}
	if got := k.Stats.Get(sim.CtrLibCalls); got != 1 {
		t.Fatalf("libcalls = %d, want 1", got)
	}
}

func TestSoftwareRegions(t *testing.T) {
	k := newXok()
	owner := cap.New(true, 1, 7)
	k.Spawn("owner", func(e *Env) {
		e.Creds = cap.Credentials{owner}
		id := e.RegionCreate(128, owner)
		if err := e.RegionWrite(id, 10, []byte("hello")); err != nil {
			t.Errorf("write: %v", err)
		}
		buf := make([]byte, 5)
		if err := e.RegionRead(id, 10, buf); err != nil {
			t.Errorf("read: %v", err)
		}
		if string(buf) != "hello" {
			t.Errorf("read back %q", buf)
		}
		// Bounds.
		if err := e.RegionWrite(id, 126, []byte("xyz")); err != ErrRegionBounds {
			t.Errorf("bounds err = %v", err)
		}
		// Unknown region.
		if err := e.RegionRead(RegionID(99), 0, buf); err != ErrRegionUnknown {
			t.Errorf("unknown err = %v", err)
		}
	})
	k.Run()
}

// A region's storage is allocated on its first write: before that it
// reads as zeros, costs no host memory, and forks as unwritten; after
// it, a fork gets its own copy.
func TestRegionAllocatedOnFirstWrite(t *testing.T) {
	k := newXok()
	owner := cap.New(true, 1, 7)
	var fresh, written RegionID
	k.Spawn("owner", func(e *Env) {
		e.Creds = cap.Credentials{owner}
		fresh = e.RegionCreate(64, owner)
		written = e.RegionCreate(64, owner)
		buf := []byte{1, 2, 3, 4}
		if err := e.RegionRead(fresh, 60, buf); err != nil || string(buf) != "\x00\x00\x00\x00" {
			t.Errorf("unwritten region read %v, %v; want zeros", buf, err)
		}
		if err := e.RegionRead(fresh, 61, buf); err != ErrRegionBounds {
			t.Errorf("unwritten region bounds err = %v", err)
		}
		if err := e.RegionWrite(written, 0, []byte("abcd")); err != nil {
			t.Errorf("write: %v", err)
		}
	})
	k.Run()
	if k.regions[fresh].data != nil {
		t.Error("unwritten region has storage")
	}
	sn, err := k.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	f := Fork(sn)
	if f.regions[fresh].data != nil || f.regions[fresh].size != 64 {
		t.Errorf("fork of an unwritten region: %d bytes of storage, size %d", len(f.regions[fresh].data), f.regions[fresh].size)
	}
	f.regions[written].data[0] = 'z'
	if k.regions[written].data[0] != 'a' {
		t.Error("fork shares a written region's storage")
	}
	f.Shutdown()
	k.Shutdown()
	sn.Release()
}

func TestRegionProtection(t *testing.T) {
	k := newXok()
	owner := cap.New(true, 1, 7)
	var id RegionID
	k.Spawn("owner", func(e *Env) {
		e.Creds = cap.Credentials{owner}
		id = e.RegionCreate(64, owner)
	})
	k.Run()
	k.Spawn("intruder", func(e *Env) {
		e.Creds = cap.Credentials{cap.New(true, 1, 8)}
		if err := e.RegionWrite(id, 0, []byte("x")); err != ErrRegionDenied {
			t.Errorf("intruder write err = %v, want denied", err)
		}
		if err := e.RegionRead(id, 0, make([]byte, 1)); err != ErrRegionDenied {
			t.Errorf("intruder read err = %v, want denied", err)
		}
	})
	k.Run()
}

func TestShutdownKillsBlockedEnvs(t *testing.T) {
	k := newXok()
	k.Spawn("stuck", func(e *Env) {
		e.Block() // never woken
		t.Error("stuck env resumed after kill")
	})
	k.Run()
	if k.liveEnvs != 1 {
		t.Fatalf("live = %d, want 1 blocked env", k.liveEnvs)
	}
	k.Shutdown()
}

func TestChargeInterruptStealsFromCurrent(t *testing.T) {
	k := newXok()
	k.Spawn("victim", func(e *Env) {
		e.Use(1000)
	})
	// Fire an interrupt while the env is running.
	k.Eng.At(500, func() { k.ChargeInterrupt(2000) })
	k.Run()
	if k.Now() < 3000 {
		t.Fatalf("clock = %v, interrupt cycles not charged", k.Now())
	}
}

func TestDeterminism(t *testing.T) {
	// Two identical multi-env runs must produce identical clocks and
	// counters.
	run := func() (sim.Time, string) {
		k := newXok()
		var a, b *Env
		a = k.Spawn("a", func(e *Env) {
			e.Use(sim.FromMillis(3))
			k.Wake(b)
			e.Use(sim.FromMillis(2))
		})
		b = k.Spawn("b", func(e *Env) {
			e.Block()
			e.Use(sim.FromMillis(1))
			e.YieldTo(a)
			e.Syscall(500)
		})
		k.Run()
		return k.Now(), k.Stats.String()
	}
	t1, s1 := run()
	t2, s2 := run()
	if t1 != t2 || s1 != s2 {
		t.Fatalf("nondeterministic runs:\n%v vs %v\n%s\nvs\n%s", t1, t2, s1, s2)
	}
}
