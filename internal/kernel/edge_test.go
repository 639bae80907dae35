package kernel

import (
	"testing"

	"xok/internal/sim"
	"xok/internal/wkpred"
)

func TestWaitAnyOf(t *testing.T) {
	k := newXok()
	var fast, slow *Env
	fast = k.Spawn("fast", func(e *Env) { e.Use(sim.FromMillis(1)) })
	slow = k.Spawn("slow", func(e *Env) { e.Use(sim.FromMillis(50)) })
	var sawFastDead, sawSlowAlive bool
	k.Spawn("waiter", func(e *Env) {
		e.WaitAnyOf([]*Env{fast, slow})
		sawFastDead = fast.Dead()
		sawSlowAlive = !slow.Dead()
	})
	k.Run()
	if !sawFastDead {
		t.Error("WaitAnyOf returned before any child died")
	}
	if !sawSlowAlive {
		t.Error("WaitAnyOf waited for all children, not any")
	}
}

func TestWaitAnyOfEmptyAndDead(t *testing.T) {
	k := newXok()
	d := k.Spawn("d", func(e *Env) {})
	k.Run()
	ok := false
	k.Spawn("w", func(e *Env) {
		e.WaitAnyOf(nil)       // empty: immediate
		e.WaitAnyOf([]*Env{d}) // already dead: immediate
		e.WaitAnyOf([]*Env{nil, d})
		ok = true
	})
	k.Run()
	if !ok {
		t.Fatal("WaitAnyOf blocked on empty/dead sets")
	}
}

func TestShutdownKillsPredicateSleeper(t *testing.T) {
	k := newXok()
	var word int64
	k.Spawn("sleeper", func(e *Env) {
		p, _ := wkpred.Compile(wkpred.Cmp(wkpred.EQ, wkpred.Load(&word), wkpred.Const(1)))
		e.SleepOn(p, 0)
		t.Error("predicate sleeper resumed after shutdown")
	})
	k.Run()
	k.Shutdown() // must not hang or panic
	if k.Eng.Pending() > 1 {
		t.Logf("pending events after shutdown: %d (harmless)", k.Eng.Pending())
	}
}

func TestUseZeroIsNoop(t *testing.T) {
	k := newXok()
	k.Spawn("z", func(e *Env) {
		e.Use(0)
		e.Use(0)
	})
	k.Run()
	if k.Now() > sim.FromMicros(50) {
		t.Fatalf("Use(0) consumed time: %v", k.Now())
	}
}

func TestSpawnFromInsideEnv(t *testing.T) {
	k := newXok()
	order := []string{}
	k.Spawn("parent", func(e *Env) {
		e.Use(100)
		child := k.Spawn("child", func(c *Env) {
			order = append(order, "child")
		})
		e.WaitFor(child)
		order = append(order, "parent-after")
	})
	k.Run()
	if len(order) != 2 || order[0] != "child" || order[1] != "parent-after" {
		t.Fatalf("order = %v", order)
	}
}

func TestManyEnvironmentsDeterministic(t *testing.T) {
	run := func() sim.Time {
		k := newXok()
		for i := 0; i < 12; i++ {
			i := i
			k.Spawn("w", func(e *Env) {
				e.Use(sim.Time(1000 * (i + 1)))
				e.Syscall(50)
				e.Use(sim.Time(500 * (12 - i)))
			})
		}
		k.Run()
		return k.Now()
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("12-env schedule nondeterministic: %v vs %v", a, b)
	}
}
