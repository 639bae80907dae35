// Package sim provides the deterministic discrete-event foundation on
// which the entire exokernel reproduction runs: a virtual clock measured
// in CPU cycles, an event engine, a seeded random-number generator and
// the calibrated cost model for the simulated 200-MHz Pentium Pro
// machine described in the paper's evaluation (Section 6).
//
// All timing in the repository is expressed as sim.Time (cycles).
// Nothing in the simulation reads the host clock; identical seeds yield
// byte-identical runs.
package sim

import (
	"fmt"
	"strconv"
)

// Time is a point on (or a span of) the virtual clock, in CPU cycles of
// the simulated 200-MHz processor. One cycle is 5 ns.
type Time uint64

// CPUHz is the simulated processor frequency. The paper's testbed is a
// 200-MHz Intel Pentium Pro.
const CPUHz = 200_000_000

// Cycle conversion helpers. Micros/Millis/Seconds convert spans or
// timestamps to wall-clock units of the simulated machine.

// FromNanos converts nanoseconds of simulated time to cycles.
func FromNanos(ns float64) Time { return Time(ns * CPUHz / 1e9) }

// FromMicros converts microseconds of simulated time to cycles.
func FromMicros(us float64) Time { return Time(us * CPUHz / 1e6) }

// FromMillis converts milliseconds of simulated time to cycles.
func FromMillis(ms float64) Time { return Time(ms * CPUHz / 1e3) }

// FromSeconds converts seconds of simulated time to cycles.
func FromSeconds(s float64) Time { return Time(s * CPUHz) }

// Micros reports t in simulated microseconds.
func (t Time) Micros() float64 { return float64(t) * 1e6 / CPUHz }

// Millis reports t in simulated milliseconds.
func (t Time) Millis() float64 { return float64(t) * 1e3 / CPUHz }

// Seconds reports t in simulated seconds.
func (t Time) Seconds() float64 { return float64(t) / CPUHz }

// ParseTime parses a duration with a unit suffix — "250ms", "1.5s",
// "80us", "40ns" — or a bare cycle count ("1000" or "1000cy"). It is
// the inverse of String for flag values (cmd/xok-bench -faults).
func ParseTime(s string) (Time, error) {
	var scale func(float64) Time
	num := s
	switch {
	case len(s) > 2 && s[len(s)-2:] == "ms":
		scale, num = FromMillis, s[:len(s)-2]
	case len(s) > 2 && s[len(s)-2:] == "us":
		scale, num = FromMicros, s[:len(s)-2]
	case len(s) > 2 && s[len(s)-2:] == "ns":
		scale, num = FromNanos, s[:len(s)-2]
	case len(s) > 2 && s[len(s)-2:] == "cy":
		scale, num = func(v float64) Time { return Time(v) }, s[:len(s)-2]
	case len(s) > 1 && s[len(s)-1:] == "s":
		scale, num = FromSeconds, s[:len(s)-1]
	default:
		scale = func(v float64) Time { return Time(v) }
	}
	v, err := strconv.ParseFloat(num, 64)
	if err != nil || v < 0 {
		return 0, fmt.Errorf("sim: bad duration %q", s)
	}
	return scale(v), nil
}

// String formats t with an adaptive unit, e.g. "41.03s" or "13.2us".
func (t Time) String() string {
	switch {
	case t >= CPUHz:
		return fmt.Sprintf("%.2fs", t.Seconds())
	case t >= CPUHz/1000:
		return fmt.Sprintf("%.2fms", t.Millis())
	case t >= CPUHz/1_000_000:
		return fmt.Sprintf("%.2fus", t.Micros())
	default:
		return fmt.Sprintf("%dcy", uint64(t))
	}
}
