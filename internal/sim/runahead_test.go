package sim

import (
	"fmt"
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

// runAheadLog schedules an event at from whose callback calls
// RunAhead(d) and logs "ahead@<clock>" once it returns; setup queues
// the other events, which log through the returned note. Run drives
// the engine. It reports what RunAhead returned, the log, and the
// times the event hook saw.
func runAheadLog(from, d Time, setup func(e *Engine, note func(string))) (ok bool, log []string, hooked []Time) {
	e := NewEngine()
	e.SetEventHook(func(at Time) { hooked = append(hooked, at) })
	note := func(what string) { log = append(log, fmt.Sprintf("%s@%d", what, e.Now())) }
	setup(e, note)
	e.At(from, func() {
		ok = e.RunAhead(d)
		note("ahead")
	})
	e.Run()
	return ok, log, hooked
}

// RunAhead(d) fires, before it returns, exactly the queued events the
// event it stands for would have followed: those before now+d, and a
// tie at now+d scheduled before the call. A tie scheduled after the
// call, and anything later, fires after it. The hook sees every fired
// event, the stand-in's at now+d among them, in that order.
func TestRunAheadRefusesQueuedEvents(t *testing.T) {
	at := func(t Time) func(*Engine, func(string)) {
		return func(e *Engine, note func(string)) { e.At(t, func() { note("ev") }) }
	}
	for _, tc := range []struct {
		name   string
		setup  func(*Engine, func(string))
		log    []string
		hooked []Time
	}{
		{"empty queue", func(*Engine, func(string)) {}, []string{"ahead@150"}, []Time{100, 150}},
		{"event before", at(149), []string{"ev@149", "ahead@150"}, []Time{100, 149, 150}},
		{"tie", at(150), []string{"ev@150", "ahead@150"}, []Time{100, 150, 150}},
		{"event after", at(151), []string{"ahead@150", "ev@151"}, []Time{100, 150, 151}},
		{"tie scheduled after", func(e *Engine, note func(string)) {
			// Filed at 120, while RunAhead fires the events before 150:
			// its stamp is the larger, so it follows the stand-in.
			e.At(120, func() {
				note("filer")
				e.At(150, func() { note("ev") })
				e.At(149, func() { note("early") })
			})
		}, []string{"filer@120", "early@149", "ahead@150", "ev@150"}, []Time{100, 120, 149, 150, 150}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ok, log, hooked := runAheadLog(100, 50, tc.setup)
			if !ok {
				t.Fatal("RunAhead refused under Run")
			}
			if !slices.Equal(log, tc.log) {
				t.Errorf("log %v, want %v", log, tc.log)
			}
			if !slices.Equal(hooked, tc.hooked) {
				t.Errorf("hook saw %v, want %v", hooked, tc.hooked)
			}
		})
	}
}

// An event parked in a timer-wheel bucket at or before now+d fires
// inside RunAhead just as a heap resident does.
func TestRunAheadSeesWheelResidents(t *testing.T) {
	const far = 1 << 20
	for _, tc := range []struct {
		d     Time
		first bool // the resident fires before RunAhead returns
	}{{far - 1, false}, {far, true}, {far + 1, true}} {
		var resident Event
		ok, log, hooked := runAheadLog(0, tc.d, func(e *Engine, note func(string)) {
			resident = e.At(far, func() { note("ev") })
			if resident.n.index >= -1 {
				t.Fatalf("event at %d is not in a wheel bucket", far)
			}
		})
		want := []string{fmt.Sprintf("ahead@%d", tc.d), fmt.Sprintf("ev@%d", far)}
		wantHooked := []Time{0, tc.d, far}
		if tc.first {
			want[0], want[1] = want[1], want[0]
			wantHooked[1], wantHooked[2] = far, tc.d
		}
		if !ok || !slices.Equal(log, want) || !slices.Equal(hooked, wantHooked) {
			t.Errorf("RunAhead(%d) with a wheel resident at %d: %v, log %v, hook %v; want true, %v, %v",
				tc.d, far, ok, log, hooked, want, wantHooked)
		}
	}
}

// A RunAhead called from an event that an outer RunAhead fires must end
// strictly before the outer target: its stand-in event would carry the
// larger stamp, so at the outer target it loses the tie, and the outer
// caller's continuation, below it on the stack, must run first. When
// accepted, it fires the events ahead of its own target as the outer
// call does.
func TestRunAheadNestedEndsBeforeOuter(t *testing.T) {
	for _, tc := range []struct {
		d    Time // the inner call's charge, from 120; the outer target is 150
		want bool
		log  []string
	}{
		{29, true, []string{"ev@130", "inner@149", "ahead@150"}},
		{30, false, []string{"inner@120", "ev@130", "ahead@150"}},
		{31, false, []string{"inner@120", "ev@130", "ahead@150"}},
	} {
		var inner bool
		ok, log, hooked := runAheadLog(100, 50, func(e *Engine, note func(string)) {
			e.At(120, func() {
				inner = e.RunAhead(tc.d)
				note("inner")
			})
			e.At(130, func() { note("ev") })
		})
		wantHooked := []Time{100, 120, 130, 150}
		if tc.want {
			wantHooked = []Time{100, 120, 130, 149, 150}
		}
		if !ok || inner != tc.want || !slices.Equal(log, tc.log) || !slices.Equal(hooked, wantHooked) {
			t.Errorf("inner RunAhead(%d) from 120 under an outer one to 150: outer %v, inner %v, log %v, hook %v; want true, %v, %v, %v",
				tc.d, ok, inner, log, hooked, tc.want, tc.log, wantHooked)
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
