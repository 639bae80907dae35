package sim

import (
	"slices"
	"testing"
)

// runAheadAt schedules one event at from whose callback calls
// RunAhead(d), drives the engine with drive, and reports what the call
// returned and the clock and event count it left behind.
func runAheadAt(e *Engine, from, d Time, drive func()) (ok bool, now Time, events int64) {
	e.At(from, func() {
		before := e.Dispatched()
		ok = e.RunAhead(d)
		now, events = e.Now(), e.Dispatched()-before
	})
	drive()
	return ok, now, events
}

// RunAhead succeeds only when the event it stands for would be the
// next one popped, and then looks exactly like that event firing.
func TestRunAheadRefusesQueuedEvents(t *testing.T) {
	for _, tc := range []struct {
		name   string
		queued Time // a second event's time, 0 for none
		want   bool
	}{
		{"empty queue", 0, true},
		{"event before", 149, false},
		{"tie", 150, false},
		{"event after", 151, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := NewEngine()
			var hooked []Time
			e.SetEventHook(func(at Time) { hooked = append(hooked, at) })
			if tc.queued != 0 {
				e.At(tc.queued, func() {})
			}
			ok, now, events := runAheadAt(e, 100, 50, e.Run)
			if ok != tc.want {
				t.Fatalf("RunAhead = %v, want %v", ok, tc.want)
			}
			wantNow, wantEvents, wantHooked := Time(100), int64(0), []Time{100}
			if ok {
				wantNow, wantEvents, wantHooked = 150, 1, []Time{100, 150}
			}
			if now != wantNow || events != wantEvents {
				t.Errorf("clock %d after %d events, want %d after %d", now, events, wantNow, wantEvents)
			}
			if len(hooked) < len(wantHooked) || !slices.Equal(hooked[:len(wantHooked)], wantHooked) {
				t.Errorf("hook saw %v, want it to begin %v", hooked, wantHooked)
			}
		})
	}
}

// A queued event parked in a timer-wheel bucket blocks RunAhead just
// as a heap resident does.
func TestRunAheadSeesWheelResidents(t *testing.T) {
	const far = 1 << 20
	for _, tc := range []struct {
		d    Time
		want bool
	}{{far - 1, true}, {far, false}, {far + 1, false}} {
		e := NewEngine()
		ev := e.At(far, func() {})
		if ev.n.index >= -1 {
			t.Fatalf("event at %d is not in a wheel bucket", far)
		}
		if ok, _, _ := runAheadAt(e, 0, tc.d, e.Run); ok != tc.want {
			t.Errorf("RunAhead(%d) with a wheel resident at %d = %v, want %v", tc.d, far, ok, tc.want)
		}
	}
}

// RunAhead may reach RunUntil's bound but never pass it, so a crash
// point stops the clock where the scheduled event would have.
func TestRunAheadStopsAtRunUntilBound(t *testing.T) {
	for _, tc := range []struct {
		d    Time
		want bool
	}{{99, true}, {100, true}, {101, false}} {
		e := NewEngine()
		ok, _, _ := runAheadAt(e, 100, tc.d, func() { e.RunUntil(200) })
		if ok != tc.want {
			t.Errorf("RunAhead(%d) from 100 under RunUntil(200) = %v, want %v", tc.d, ok, tc.want)
		}
		if e.Now() != 200 {
			t.Errorf("clock %d after RunUntil(200)", e.Now())
		}
	}
}

// Outside Run and RunUntil RunAhead always refuses: a caller driving
// Step by hand gets one event per Step. A run that ended, normally or
// by a panic, leaves no horizon behind.
func TestRunAheadOnlyInsideRun(t *testing.T) {
	e := NewEngine()
	if e.RunAhead(0) || e.RunAhead(5) {
		t.Error("RunAhead succeeded on an idle engine")
	}
	if ok, _, _ := runAheadAt(e, 10, 5, func() { e.Step() }); ok {
		t.Error("RunAhead succeeded inside a hand-driven Step")
	}
	e.Run()
	if e.RunAhead(5) {
		t.Error("RunAhead succeeded after Run returned")
	}
	e.At(e.Now(), func() { panic("boom") })
	func() {
		defer func() { _ = recover() }()
		e.Run()
	}()
	if e.RunAhead(5) {
		t.Error("RunAhead succeeded after a Run that panicked")
	}
	if e.Now() != 10 || e.Dispatched() != 2 {
		t.Errorf("clock %d after %d events, want 10 after 2", e.Now(), e.Dispatched())
	}
}
