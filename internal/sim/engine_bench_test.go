package sim

import "testing"

// benchSteadyState drives the engine in its dominant pattern: a pool of
// pending events where every dispatch schedules a successor. One Step
// per b.N iteration — allocs/op is the number the fast path is judged
// on (the seed engine paid a heap allocation per scheduled event).
func benchSteadyState(b *testing.B, pending int, useArg bool) {
	e := NewEngine()
	var tick func()
	tickArg := func(any) {}
	i := 0
	tick = func() {
		i++
		d := Time(i%97 + 1)
		if useArg {
			e.AfterArg(d, tickArg, nil)
		} else {
			e.After(d, tick)
		}
	}
	if useArg {
		// Self-rescheduling through the arg path.
		tickArg = func(a any) {
			i++
			e.AfterArg(Time(i%97+1), tickArg, nil)
		}
		for j := 0; j < pending; j++ {
			e.AfterArg(Time(j), tickArg, nil)
		}
	} else {
		for j := 0; j < pending; j++ {
			e.After(Time(j), tick)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		e.Step()
	}
}

func BenchmarkEngineStepAfter16(b *testing.B)      { benchSteadyState(b, 16, false) }
func BenchmarkEngineStepAfter1024(b *testing.B)    { benchSteadyState(b, 1024, false) }
func BenchmarkEngineStepAfterArg16(b *testing.B)   { benchSteadyState(b, 16, true) }
func BenchmarkEngineStepAfterArg1024(b *testing.B) { benchSteadyState(b, 1024, true) }

// BenchmarkEngineScheduleCancel measures the timer-rearm pattern
// (netsim RTO, kernel sleep timeouts): schedule then cancel before
// firing, so nodes cycle through the free list without dispatching.
func BenchmarkEngineScheduleCancel(b *testing.B) {
	e := NewEngine()
	fn := func() {}
	// Keep a baseline event so the heap never empties.
	e.At(1<<60, func() {})
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		ev := e.After(Time(n%1000+1), fn)
		e.Cancel(ev)
	}
}

// benchFarTimers drives the bulk-timer regime the wheel exists for: a
// large standing population of far-future timers (the 60ms RTO
// pattern at cluster scale), each dispatch re-arming one full window
// ahead. On the pure heap every operation pays O(log pending); on the
// wheel the standing population sits in buckets and the heap holds
// only the near-term flush window, so per-event cost stays flat as
// pending grows — the Heap/Wheel benchmark pairs at 65536 and 1M
// pending make the crossover visible in BENCH_sim.json
// (wheel_speedups).
func benchFarTimers(b *testing.B, pending int, wheelOn bool) {
	const window = 12_000_000 // 60ms at 200MHz, the legacy RTO floor
	e := NewEngine()
	e.heapOnly = !wheelOn
	i := 0
	var tick func(any)
	tick = func(any) {
		i++
		// Full window ahead with deterministic jitter, so slots churn
		// rather than stacking one bucket.
		e.AfterArg(Time(window+i*2654435761%9973), tick, nil)
	}
	// Spread the standing population uniformly over one window.
	step := window / Time(pending)
	if step == 0 {
		step = 1
	}
	for j := 0; j < pending; j++ {
		e.AtArg(Time(j)*step, tick, nil)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		e.Step()
	}
	b.StopTimer()
	if e.Pending() < pending {
		b.Fatalf("standing population collapsed: %d < %d", e.Pending(), pending)
	}
}

func BenchmarkEngineTimersHeap65536(b *testing.B)  { benchFarTimers(b, 65536, false) }
func BenchmarkEngineTimersWheel65536(b *testing.B) { benchFarTimers(b, 65536, true) }
func BenchmarkEngineTimersHeap1M(b *testing.B)     { benchFarTimers(b, 1_000_000, false) }
func BenchmarkEngineTimersWheel1M(b *testing.B)    { benchFarTimers(b, 1_000_000, true) }

// BenchmarkEngineScheduleCancelWheel is the far-timer re-arm pattern:
// schedule an RTO-distance event, then cancel it before it fires (the
// dominant path when transfers complete without loss). O(1) bucket
// unlink vs the heap's O(log n) remove — and pinned at 0 allocs/op by
// TestWheelScheduleCancelAllocFree.
func BenchmarkEngineScheduleCancelWheel(b *testing.B) {
	e := NewEngine()
	fn := func(any) {}
	e.At(1<<60, func() {})
	// Standing far population so the cancel path works against
	// realistically occupied buckets.
	for j := 0; j < 1024; j++ {
		e.AfterArg(Time(12_000_000+j*9973), fn, nil)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		ev := e.AfterArg(Time(12_000_000+n%9973), fn, nil)
		e.Cancel(ev)
	}
}
