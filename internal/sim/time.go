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

import "fmt"

// Time is a point on (or a span of) the virtual clock, in CPU cycles of
// the simulated 200-MHz processor. One cycle is 5 ns.
type Time uint64

// CPUHz is the simulated processor frequency. The paper's testbed is a
// 200-MHz Intel Pentium Pro.
const CPUHz = 200_000_000

// Cycle conversion helpers. Micros/Millis/Seconds convert spans or
// timestamps to wall-clock units of the simulated machine.

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
