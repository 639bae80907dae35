package sim

import (
	"testing"
)

// wheelTrace is the differential-testing harness for the timer wheel:
// it replays one deterministic, seed-driven schedule/cancel/step
// program against two engines — wheel-backed and pure heap — and
// requires the dispatch sequences to match element for element. The
// program mixes every regime the router distinguishes: near events
// (under wheelMinDefer, heap direct), each wheel level, beyond-span
// sentinels (heap direct), ties at one instant, cancels of wheel and
// heap residents, and callbacks that reschedule far timers (the RTO
// pattern that motivates the wheel).
type wheelFire struct {
	at Time
	id int
}

func runWheelTrace(seed int64, ops int, wheelOn bool) []wheelFire {
	e := NewEngine()
	e.heapOnly = !wheelOn
	r := NewRNG(uint64(seed))
	var fired []wheelFire
	var handles []Event
	id := 0
	// Deterministic per-id far reschedule: roughly a third of fired
	// events re-arm themselves far in the future, like an RTO chain.
	var fire func(a any)
	fire = func(a any) {
		myID := a.(int)
		fired = append(fired, wheelFire{e.Now(), myID})
		if myID%3 == 0 && id < ops*2 {
			d := Time(uint64(myID)*2654435761%50_000_000 + 1) // up to ~250ms
			nid := id
			id++
			handles = append(handles, e.AfterArg(d, fire, nid))
		}
	}
	sched := func() {
		var d Time
		switch r.Intn(6) {
		case 0: // near: stays on the heap
			d = Time(r.Intn(wheelMinDefer))
		case 1: // level 0
			d = Time(wheelMinDefer + r.Intn(1<<20))
		case 2: // level 1
			d = Time(1<<20 + r.Intn(1<<28))
		case 3: // level 2-3
			d = Time(1<<28 + r.Intn(1<<38))
		case 4: // ties: a burst at one instant spanning the routing cut
			d = Time(wheelMinDefer)
		case 5: // beyond the top span: heaps directly
			d = Time(1<<60 + r.Intn(1000))
		}
		nid := id
		id++
		handles = append(handles, e.AfterArg(d, fire, nid))
	}
	for i := 0; i < ops; i++ {
		sched()
		if r.Intn(4) == 0 && len(handles) > 0 {
			j := r.Intn(len(handles))
			if handles[j].Pending() {
				e.Cancel(handles[j])
			}
		}
		if r.Intn(8) == 0 {
			// Interleave dispatch so scheduling happens at many clock
			// positions (and many wheel cursor positions).
			for s := r.Intn(5); s > 0 && e.Pending() > 0; s-- {
				e.Step()
			}
		}
		if r.Intn(16) == 0 {
			e.RunUntil(e.Now() + Time(r.Intn(1<<24)))
		}
	}
	// Drain everything but the far sentinels' tail in bounded steps.
	for e.Pending() > 0 && len(fired) < ops*4 {
		e.Step()
	}
	// Later seeds' engines take this wheel from the pool, cursors left
	// where this run moved them.
	e.ReleaseWheel()
	return fired
}

// ReleaseWheel pools only an empty wheel: one still holding events
// stays with its engine, which keeps firing them in order.
func TestReleaseWheelKeepsQueuedEvents(t *testing.T) {
	e := NewEngine()
	var fired []Time
	e.After(wheelMinDefer*4, func() { fired = append(fired, e.Now()) })
	e.ReleaseWheel()
	if e.wheel == nil || e.wheel.count != 1 {
		t.Fatal("ReleaseWheel took a wheel that holds an event")
	}
	e.Run()
	if len(fired) != 1 || fired[0] != wheelMinDefer*4 {
		t.Fatalf("fired %v, want one event at %d", fired, wheelMinDefer*4)
	}
	e.ReleaseWheel()
	if e.wheel != nil {
		t.Fatal("ReleaseWheel kept an empty wheel")
	}
	e.After(wheelMinDefer*4, func() { fired = append(fired, e.Now()) })
	e.Run()
	if len(fired) != 2 || fired[1] != wheelMinDefer*8 {
		t.Fatalf("after release fired %v, want a second event at %d", fired, wheelMinDefer*8)
	}
}

// TestWheelPopOrderMatchesHeap is the tentpole's pinned contract: for
// randomized schedule/cancel sequences, the wheel-backed engine's
// dispatch order is bit-identical to the pure heap's (at, seq) FIFO
// order.
func TestWheelPopOrderMatchesHeap(t *testing.T) {
	for seed := int64(1); seed <= 25; seed++ {
		heapFired := runWheelTrace(seed, 400, false)
		wheelFired := runWheelTrace(seed, 400, true)
		if len(heapFired) != len(wheelFired) {
			t.Fatalf("seed %d: heap fired %d events, wheel fired %d",
				seed, len(heapFired), len(wheelFired))
		}
		for i := range heapFired {
			if heapFired[i] != wheelFired[i] {
				t.Fatalf("seed %d: dispatch[%d] heap=%+v wheel=%+v",
					seed, i, heapFired[i], wheelFired[i])
			}
		}
	}
}

// TestWheelFIFOAfterChurn mirrors TestEngineFIFOAfterChurn with far
// timestamps, so the surviving events live in wheel buckets instead of
// the heap: dispatch order must still equal the (at, seq) sort.
func TestWheelFIFOAfterChurn(t *testing.T) {
	e := NewEngine()
	type rec struct {
		at  Time
		seq int
	}
	var want, got []rec
	seq := 0
	sched := func(at Time) Event {
		s := seq
		seq++
		want = append(want, rec{at, s})
		return e.At(at, func() { got = append(got, rec{at, s}) })
	}
	r := NewRNG(42)
	var cancelled []int
	var handles []Event
	for i := 0; i < 500; i++ {
		// Few distinct buckets, far out: many same-slot and same-instant
		// collisions resolved by seq alone.
		at := Time(1_000_000 + r.Intn(8)*500_000)
		handles = append(handles, sched(at))
		if i%7 == 3 {
			j := r.Intn(len(handles))
			if handles[j].Pending() {
				e.Cancel(handles[j])
				cancelled = append(cancelled, j)
			}
		}
	}
	dead := make(map[int]bool)
	for _, j := range cancelled {
		dead[j] = true
	}
	var wantLive []rec
	for i, w := range want {
		if !dead[i] {
			wantLive = append(wantLive, w)
		}
	}
	// Insertion-stable sort by (at, seq).
	for i := 1; i < len(wantLive); i++ {
		for j := i; j > 0; j-- {
			a, b := wantLive[j-1], wantLive[j]
			if a.at < b.at || (a.at == b.at && a.seq < b.seq) {
				break
			}
			wantLive[j-1], wantLive[j] = b, a
		}
	}
	e.Run()
	if len(got) != len(wantLive) {
		t.Fatalf("fired %d events, want %d", len(got), len(wantLive))
	}
	for i := range got {
		if got[i] != wantLive[i] {
			t.Fatalf("dispatch[%d] = %+v, want %+v", i, got[i], wantLive[i])
		}
	}
}

// TestWheelPendingAndHandles: events resident in wheel buckets must be
// fully first-class — counted by Pending, readable through Event.At,
// cancellable in O(1), and stale handles must stay inert.
func TestWheelPendingAndHandles(t *testing.T) {
	e := NewEngine()
	a := e.At(10_000_000, func() {})
	b := e.At(20_000_000, func() {})
	c := e.At(100, func() {}) // near: heap
	if e.Pending() != 3 {
		t.Fatalf("pending = %d, want 3", e.Pending())
	}
	if e.wheel == nil || e.wheel.count != 2 {
		t.Fatalf("wheel residents = %v, want 2", e.wheel)
	}
	if a.At() != 10_000_000 || !a.Pending() {
		t.Fatalf("wheel-resident handle broken: at=%d pending=%v", a.At(), a.Pending())
	}
	e.Cancel(a)
	if a.Pending() || e.Pending() != 2 || e.wheel.count != 1 {
		t.Fatalf("cancel of wheel resident: pending=%d wheel=%d", e.Pending(), e.wheel.count)
	}
	e.Cancel(a) // double cancel: no-op
	e.Run()
	if b.Pending() || c.Pending() || e.Pending() != 0 {
		t.Fatal("events left after Run")
	}
	if e.Now() != 20_000_000 {
		t.Fatalf("clock = %d, want 20000000", e.Now())
	}
}

// TestWheelRunUntilAndAdvance: RunUntil must fire exactly the wheel
// residents inside the window, and Advance must still panic when a
// wheel-resident event falls inside the advance window.
func TestWheelRunUntilAndAdvance(t *testing.T) {
	e := NewEngine()
	var fired []Time
	for _, at := range []Time{5_000_000, 10_000_000, 15_000_000} {
		at := at
		e.At(at, func() { fired = append(fired, at) })
	}
	e.RunUntil(12_000_000)
	if len(fired) != 2 || e.Now() != 12_000_000 {
		t.Fatalf("RunUntil: fired %v, now %d", fired, e.Now())
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("Advance over a wheel-resident event did not panic")
			}
		}()
		e.Advance(10_000_000)
	}()
	e.Run()
	if len(fired) != 3 {
		t.Fatalf("remaining wheel event lost: %v", fired)
	}
}

// TestWheelScheduleCancelAllocFree pins the wheel schedule/cancel path
// at zero allocations per op in steady state, and likewise the
// schedule→flush→fire path: nodes come from the engine pool and
// buckets are intrusive lists, so nothing is allocated after the wheel
// itself exists.
func TestWheelScheduleCancelAllocFree(t *testing.T) {
	e := NewEngine()
	bump := func(any) {}
	// Warm up: allocate the wheel, grow the pool and the heap slice.
	for i := 0; i < 64; i++ {
		e.AfterArg(Time(10_000_000+i*1000), bump, nil)
	}
	e.Run()
	allocs := testing.AllocsPerRun(1000, func() {
		ev := e.AfterArg(60_000_000, bump, nil) // RTO-style far re-arm
		e.Cancel(ev)
	})
	if allocs != 0 {
		t.Fatalf("wheel schedule+cancel allocates %.1f/op, want 0", allocs)
	}
	allocs = testing.AllocsPerRun(1000, func() {
		e.AfterArg(10_000_000, bump, nil)
		e.RunUntil(e.Now() + 10_000_000)
	})
	if allocs != 0 {
		t.Fatalf("wheel schedule+fire allocates %.1f/op, want 0", allocs)
	}
}

// TestWheelSnapshotClock: an engine that has used the wheel must still
// snapshot at quiescence (Pending()==0 even though cursors have
// drifted), and an engine rebuilt from the clock pair must replay a
// far-timer schedule identically to the original continuing.
func TestWheelSnapshotClock(t *testing.T) {
	run := func(e *Engine) []Time {
		var fired []Time
		for _, d := range []Time{7_777_777, 12_345_678, 12_345_678, 900} {
			d := d
			e.After(d, func() { fired = append(fired, e.Now()) })
		}
		e.Run()
		return fired
	}
	orig := NewEngine()
	orig.After(5_000_000, func() {})
	orig.Run() // wheel used; now quiescent
	now, seq := orig.Clock()
	fork := NewEngineAt(now, seq)
	a := run(orig)
	b := run(fork)
	if len(a) != len(b) {
		t.Fatalf("fired %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("replay diverged at %d: %d vs %d", i, a[i], b[i])
		}
	}
}
