package kernel

import (
	"bytes"
	"runtime"
	"testing"

	"xok/internal/sim"
	"xok/internal/wkpred"
)

// envGoroutines counts the goroutines that carry environment
// coroutines, started or not, in the whole test binary (other tests
// may leave blocked environments behind). Unlike runtime.NumGoroutine
// it ignores the testing package's own goroutines winding down.
func envGoroutines() int {
	buf := make([]byte, 1<<20)
	return bytes.Count(buf[:runtime.Stack(buf, true)], []byte("created by iter.Pull"))
}

// stopFreeCoros stops every idle coroutine on the free list, so that
// envGoroutines counts only the coroutines of live environments. Tests
// that count goroutines call it before taking their base and after
// teardown.
func stopFreeCoros() {
	freeCoros.Lock()
	list := freeCoros.list
	freeCoros.list = nil
	freeCoros.Unlock()
	for _, c := range list {
		c.stop()
	}
}

// spin spawns an environment that charges one cycle per iteration
// forever, counting its completed Use round trips in *n.
func spin(k *Kernel, n *int) {
	k.Spawn("spin", func(e *Env) {
		for {
			e.Use(1)
			*n++
		}
	})
}

// Shutdown and Release must unwind every environment's coroutine,
// whatever it is parked in, so no environment goroutine outlives the
// machine and each started body's deferred calls run.
func TestShutdownUnwindsEveryEnvState(t *testing.T) {
	for _, teardown := range []struct {
		name string
		fn   func(*Kernel)
	}{
		{"Shutdown", (*Kernel).Shutdown},
		{"Release", (*Kernel).Release},
	} {
		t.Run(teardown.name, func(t *testing.T) {
			stopFreeCoros()
			base := envGoroutines()
			k := New(Config{Name: "xok", MemPages: 256, DiskSize: 128})
			unwound := 0
			var word int64
			k.Spawn("blocked", func(e *Env) {
				defer func() { unwound++ }()
				e.Block()
				t.Error("blocked env resumed after teardown")
			})
			k.Spawn("pred", func(e *Env) {
				defer func() { unwound++ }()
				p, _ := wkpred.Compile(wkpred.Cmp(wkpred.EQ, wkpred.Load(&word), wkpred.Const(1)))
				e.SleepOn(p, 0)
				t.Error("predicate sleeper resumed after teardown")
			})
			k.Spawn("sleep", func(e *Env) {
				defer func() { unwound++ }()
				at := sim.FromMillis(1000)
				p, _ := wkpred.Compile(wkpred.Cmp(wkpred.GE, wkpred.Clock(), wkpred.Const(int64(at))))
				e.SleepOn(p, at)
				t.Error("sleeper resumed after teardown")
			})
			k.RunUntil(sim.FromMillis(1))
			k.Spawn("unstarted", func(e *Env) {
				t.Error("never-started env ran at teardown")
			})
			if k.liveEnvs != 4 {
				t.Fatalf("live = %d, want 4", k.liveEnvs)
			}
			if g := envGoroutines() - base; g != 4 {
				t.Fatalf("%d new env goroutines with 4 envs", g)
			}
			teardown.fn(k)
			if unwound != 3 {
				t.Errorf("%d of 3 started bodies unwound", unwound)
			}
			stopFreeCoros()
			if g := envGoroutines() - base; g != 0 {
				t.Errorf("%d env goroutines left after %s", g, teardown.name)
			}
		})
	}
}

// A crash in the middle of a charge the scheduler is burning unwinds
// that environment too, and its pending burn event, should the engine
// run on, resumes nothing.
func TestCrashUnwindsBurningEnv(t *testing.T) {
	stopFreeCoros()
	base := envGoroutines()
	k := New(Config{Name: "xok", MemPages: 256, DiskSize: 128})
	unwound, resumed := false, false
	k.Spawn("burner", func(e *Env) {
		defer func() { unwound = true }()
		e.Use(1_000_000)
		resumed = true
	})
	k.Crash(1000)
	if !unwound || k.current != nil {
		t.Errorf("crash unwound the burning env's body: %v; left it current: %v", unwound, k.current != nil)
	}
	stopFreeCoros()
	if g := envGoroutines() - base; g != 0 {
		t.Errorf("%d env goroutines left after the crash", g)
	}
	k.Run()
	if resumed {
		t.Error("the burn event resumed a crashed env")
	}
}

// A panic in an environment body other than the kernel's own kill
// reaches the caller of Run, where it can be recovered.
func TestEnvPanicReachesRun(t *testing.T) {
	stopFreeCoros()
	base := envGoroutines()
	k := newXok()
	k.Spawn("bystander", func(e *Env) { e.Block() })
	k.Spawn("faulty", func(e *Env) {
		e.Use(100)
		panic("boom")
	})
	got := func() (r any) {
		defer func() { r = recover() }()
		k.Run()
		return nil
	}()
	if got != "boom" {
		t.Fatalf("Run recovered %v, want the body's panic \"boom\"", got)
	}
	k.Shutdown()
	stopFreeCoros()
	if g := envGoroutines() - base; g != 0 {
		t.Errorf("%d env goroutines left after Shutdown", g)
	}
}

// A steady-state Use round trip — park, burn the grant, resume —
// allocates nothing. The loop drives Step by hand, so it measures the
// parked path: the engine never runs ahead outside Run and RunUntil.
func TestUseHandoffAllocs(t *testing.T) {
	k := newXok()
	defer k.Shutdown()
	uses := 0
	spin(k, &uses)
	const batch = 1000
	allocs := testing.AllocsPerRun(20, func() {
		for end := uses + batch; uses < end; {
			k.Eng.Step()
		}
	})
	if allocs != 0 {
		t.Errorf("%v allocs per %d Use round trips, want 0", allocs, batch)
	}
}

// BenchmarkKernelHandoff times one Use round trip of a single
// environment: the switch into its coroutine, the park back and the
// engine event that burns the cycle. The loop drives Step by hand, so
// every Use takes this parked path; BenchmarkKernelUseRunAhead times
// the inline burn Run gives the same loop.
func BenchmarkKernelHandoff(b *testing.B) {
	k := newXok()
	defer k.Shutdown()
	uses := 0
	spin(k, &uses)
	b.ReportAllocs()
	b.ResetTimer()
	for uses < b.N {
		k.Eng.Step()
	}
}
