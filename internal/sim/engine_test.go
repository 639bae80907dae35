package sim

import (
	"slices"
	"sort"
	"testing"
)

func TestEngineOrdering(t *testing.T) {
	e := NewEngine()
	var order []int
	e.At(300, func() { order = append(order, 3) })
	e.At(100, func() { order = append(order, 1) })
	e.At(200, func() { order = append(order, 2) })
	e.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("events ran out of order: %v", order)
	}
	if e.Now() != 300 {
		t.Fatalf("clock = %d, want 300", e.Now())
	}
}

func TestEngineSimultaneousFIFO(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(50, func() { order = append(order, i) })
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("simultaneous events not FIFO: %v", order)
		}
	}
}

func TestEngineCancel(t *testing.T) {
	e := NewEngine()
	fired := false
	ev := e.At(10, func() { fired = true })
	e.Cancel(ev)
	e.Run()
	if fired {
		t.Fatal("cancelled event fired")
	}
	// Double-cancel and cancel-after-run must be no-ops.
	e.Cancel(ev)
	ev2 := e.At(20, func() {})
	e.Run()
	e.Cancel(ev2)
}

func TestEngineNestedScheduling(t *testing.T) {
	e := NewEngine()
	count := 0
	var rec func()
	rec = func() {
		count++
		if count < 5 {
			e.After(10, rec)
		}
	}
	e.After(10, rec)
	e.Run()
	if count != 5 {
		t.Fatalf("count = %d, want 5", count)
	}
	if e.Now() != 50 {
		t.Fatalf("clock = %d, want 50", e.Now())
	}
}

func TestEnginePastSchedulingClamped(t *testing.T) {
	e := NewEngine()
	e.At(100, func() {})
	e.Run()
	fired := false
	e.At(50, func() { fired = true }) // in the past; must clamp to now
	e.Run()
	if !fired {
		t.Fatal("past-scheduled event did not fire")
	}
	if e.Now() != 100 {
		t.Fatalf("clock moved backwards: %d", e.Now())
	}
}

func TestEngineRunUntil(t *testing.T) {
	e := NewEngine()
	var fired []Time
	for _, at := range []Time{10, 20, 30, 40} {
		at := at
		e.At(at, func() { fired = append(fired, at) })
	}
	e.RunUntil(25)
	if len(fired) != 2 {
		t.Fatalf("fired %v, want events at 10,20", fired)
	}
	if e.Now() != 25 {
		t.Fatalf("clock = %d, want 25", e.Now())
	}
	e.Run()
	if len(fired) != 4 {
		t.Fatalf("remaining events lost: %v", fired)
	}
}

func TestEngineAdvancePanicsOverEvent(t *testing.T) {
	e := NewEngine()
	e.At(100, func() {})
	defer func() {
		if recover() == nil {
			t.Fatal("Advance over a pending event did not panic")
		}
	}()
	e.Advance(200)
}

func TestEngineAdvance(t *testing.T) {
	e := NewEngine()
	e.Advance(123)
	if e.Now() != 123 {
		t.Fatalf("clock = %d, want 123", e.Now())
	}
}

func TestEngineCancelSiblingFromCallback(t *testing.T) {
	// Two events scheduled for the same instant: the first one's
	// callback cancels the second while the engine is mid-dispatch at
	// that instant. The sibling must not fire, and cancelling the event
	// that is itself firing (already popped, index -1) must be safe.
	e := NewEngine()
	var aFired, bFired bool
	var evA, evB Event
	evA = e.At(10, func() {
		aFired = true
		e.Cancel(evB) // sibling at the same instant, still in the heap
		e.Cancel(evA) // self: already popped; must be a no-op
	})
	evB = e.At(10, func() { bFired = true })
	e.Run()
	if !aFired {
		t.Fatal("first event did not fire")
	}
	if bFired {
		t.Fatal("cancelled same-instant sibling fired anyway")
	}
	if e.Pending() != 0 {
		t.Fatalf("pending = %d after run", e.Pending())
	}
}

func TestEngineCancelSiblingUnderRunUntil(t *testing.T) {
	// Same scenario through the RunUntil dispatch path.
	e := NewEngine()
	var evB Event
	bFired := false
	e.At(10, func() { e.Cancel(evB) })
	evB = e.At(10, func() { bFired = true })
	e.RunUntil(10)
	if bFired {
		t.Fatal("cancelled sibling fired under RunUntil")
	}
	if e.Now() != 10 {
		t.Fatalf("clock = %d, want 10", e.Now())
	}
}

func TestEngineEventHook(t *testing.T) {
	e := NewEngine()
	var hooked []Time
	e.SetEventHook(func(at Time) {
		hooked = append(hooked, at)
		if e.Now() != at {
			t.Fatalf("hook at %d but clock is %d", at, e.Now())
		}
	})
	e.At(10, func() {})
	ev := e.At(20, func() {})
	e.At(30, func() {})
	e.Cancel(ev) // cancelled events must not reach the hook
	e.Run()
	if len(hooked) != 2 || hooked[0] != 10 || hooked[1] != 30 {
		t.Fatalf("hook saw %v, want [10 30]", hooked)
	}
	e.SetEventHook(nil) // disabling must not break dispatch
	e.At(40, func() {})
	e.Run()
	if len(hooked) != 2 {
		t.Fatal("hook fired after being cleared")
	}
}

func TestEnginePending(t *testing.T) {
	e := NewEngine()
	a := e.At(10, func() {})
	e.At(20, func() {})
	if e.Pending() != 2 {
		t.Fatalf("pending = %d, want 2", e.Pending())
	}
	e.Cancel(a)
	if e.Pending() != 1 {
		t.Fatalf("pending = %d, want 1 after cancel", e.Pending())
	}
}

func TestEngineEventPoolReuse(t *testing.T) {
	// After an event fires, its node returns to the free list; the next
	// schedule must reuse it with a bumped generation, and the stale
	// handle must read as not-pending.
	e := NewEngine()
	ev1 := e.At(10, func() {})
	n1 := ev1.n
	e.Run()
	if ev1.Pending() {
		t.Fatal("fired event still reports Pending")
	}
	ev2 := e.At(20, func() {})
	if ev2.n != n1 {
		t.Fatal("node was not recycled from the free list")
	}
	if ev2.gen == ev1.gen {
		t.Fatal("recycled node kept the same generation")
	}
	if !ev2.Pending() {
		t.Fatal("fresh event on recycled node not pending")
	}
}

func TestEngineStaleCancelIsNoOp(t *testing.T) {
	// A handle kept past its event's firing must not be able to cancel
	// the unrelated event that later reuses the slot.
	e := NewEngine()
	ev1 := e.At(10, func() {})
	e.Run()
	fired := false
	ev2 := e.At(20, func() { fired = true })
	if ev2.n != ev1.n {
		t.Fatal("test premise broken: slot not reused")
	}
	e.Cancel(ev1) // stale: generation mismatch, must not touch ev2
	e.Run()
	if !fired {
		t.Fatal("stale Cancel killed a recycled event")
	}
}

func TestEngineCancelThenFireReuse(t *testing.T) {
	// Cancel returns the node to the pool; the next schedule reuses it
	// and must fire normally. A second Cancel through the stale handle
	// must stay a no-op.
	e := NewEngine()
	ev1 := e.At(10, func() { t.Fatal("cancelled event fired") })
	e.Cancel(ev1)
	fired := false
	ev2 := e.At(15, func() { fired = true })
	if ev2.n != ev1.n {
		t.Fatal("cancelled node was not recycled")
	}
	e.Cancel(ev1) // stale
	e.Run()
	if !fired {
		t.Fatal("event on recycled node did not fire")
	}
	if e.Now() != 15 {
		t.Fatalf("clock = %d, want 15", e.Now())
	}
}

func TestEngineFIFOAfterChurn(t *testing.T) {
	// Heavy mixed-time scheduling with interleaved cancels: dispatch
	// order must equal the (at, seq) sort of the surviving events.
	e := NewEngine()
	type rec struct {
		at  Time
		seq int
	}
	var want []rec
	var got []rec
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
		at := Time(r.Intn(50)) // many collisions
		handles = append(handles, sched(at))
		if i%7 == 3 {
			// Cancel a random earlier survivor.
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
	sort.SliceStable(wantLive, func(i, j int) bool {
		if wantLive[i].at != wantLive[j].at {
			return wantLive[i].at < wantLive[j].at
		}
		return wantLive[i].seq < wantLive[j].seq
	})
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

func TestEngineAdvanceToExactBoundary(t *testing.T) {
	// An event scheduled exactly at the Advance target is NOT inside
	// the window (the window is half-open); Advance must succeed and
	// the event must still fire, at its own timestamp.
	e := NewEngine()
	fired := false
	e.At(100, func() { fired = true })
	e.Advance(100)
	if e.Now() != 100 {
		t.Fatalf("clock = %d, want 100", e.Now())
	}
	if fired {
		t.Fatal("Advance ran an event")
	}
	e.Run()
	if !fired {
		t.Fatal("boundary event lost")
	}
}

func TestEngineAfterArg(t *testing.T) {
	e := NewEngine()
	type box struct{ hits int }
	bx := &box{}
	bump := func(a any) { a.(*box).hits++ }
	ev := e.AfterArg(10, bump, bx)
	if !ev.Pending() {
		t.Fatal("AfterArg event not pending")
	}
	e.AfterArg(20, bump, bx)
	e.Run()
	if bx.hits != 2 {
		t.Fatalf("hits = %d, want 2", bx.hits)
	}
	// Cancel path.
	ev3 := e.AfterArg(30, bump, bx)
	e.Cancel(ev3)
	e.Run()
	if bx.hits != 2 {
		t.Fatal("cancelled AfterArg event fired")
	}
}

func TestEngineAfterArgAllocFree(t *testing.T) {
	// The common timer pattern — one long-lived callback, the receiver
	// through arg — must not allocate in steady state: nodes come from
	// the pool and no closure is created.
	e := NewEngine()
	type box struct{ hits int }
	bx := &box{}
	bump := func(a any) { a.(*box).hits++ }
	// Warm up: grow the heap slice and the pool.
	for i := 0; i < 64; i++ {
		e.AfterArg(Time(i), bump, bx)
	}
	e.Run()
	allocs := testing.AllocsPerRun(1000, func() {
		e.AfterArg(5, bump, bx)
		e.Step()
	})
	if allocs != 0 {
		t.Fatalf("steady-state AfterArg+Step allocates %.1f/op, want 0", allocs)
	}
}

func TestEngineHandleZeroValue(t *testing.T) {
	e := NewEngine()
	var ev Event
	if ev.Pending() {
		t.Fatal("zero Event pending")
	}
	e.Cancel(ev) // must not panic
}

// An event filed late under a reserved stamp ties with the events
// scheduled after the reservation exactly as if it had been queued at
// the reservation: first among them, after those stamped before it.
func TestEngineReservedStampKeepsFIFO(t *testing.T) {
	e := NewEngine()
	var order []string
	note := func(a any) { order = append(order, a.(string)) }
	e.AtArg(50, note, "before")
	first := e.Reserve(2)
	e.AtArg(50, note, "after")
	e.AtArg(10, func(any) {
		e.AtArgReserved(50, first+1, note, "reserved 1")
		e.AtArgReserved(50, first, note, "reserved 0")
	}, nil)
	e.AtArg(50, note, "later")
	e.Run()
	want := []string{"before", "reserved 0", "reserved 1", "after", "later"}
	if !slices.Equal(order, want) {
		t.Fatalf("fired %v, want %v", order, want)
	}
}
