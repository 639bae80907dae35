// Package workload reproduces the paper's macrobenchmarks: the
// I/O-intensive lcc-install workload (Table 1 / Figure 2), the
// Modified Andrew Benchmark (Section 6.2), the cost-of-protection
// experiment (Section 6.3), the global-performance job mixes
// (Figures 4 and 5), the Section 7.2 copy comparison, and the
// crash-point enumeration harness. Each takes a machine.Machine — one
// of the systems under test, booted by the caller with machine.New —
// and returns measured virtual times.
package workload

import (
	"fmt"

	"xok/internal/machine"
	"xok/internal/sim"
	"xok/internal/unix"
)

// SystemConfigs returns the machine configurations of the four
// Figure-2 systems in the paper's presentation order. Callers that
// need per-machine state (a tracer, a fault plan) set it on a config
// before booting with machine.MustNew — the pattern parallel
// experiment legs use.
func SystemConfigs() []machine.Config {
	return []machine.Config{
		{Personality: machine.XokExOS},
		{Personality: machine.OpenBSDCFFS},
		{Personality: machine.OpenBSD},
		{Personality: machine.FreeBSD},
	}
}

// exec runs main as a process to completion and returns the elapsed
// virtual time. Errors inside are collected into errp.
func exec(m machine.Machine, name string, main func(unix.Proc) error, errp *error) sim.Time {
	start := m.Now()
	m.SpawnProc(name, 0, func(p unix.Proc) {
		if err := main(p); err != nil && *errp == nil {
			*errp = fmt.Errorf("%s: %s: %w", m.Name(), name, err)
		}
	})
	m.Run()
	return m.Now() - start
}
