package workload

import (
	"fmt"
	"sync"

	"xok/internal/apps"
	"xok/internal/machine"
	"xok/internal/sim"
	"xok/internal/unix"
)

// The I/O-intensive workload of Table 1: installing the lcc compiler.
// "copying a compressed archive file, uncompressing it, unpacking it
// (which results in a source tree), copying the resulting tree,
// comparing the two trees, compiling the source tree, deleting
// binaries, archiving the source tree, compressing the archive file,
// and deleting the source tree."

// Step names, in Table 1 order (with the program in parens, as in
// Figure 2's x-axis).
var IOStepNames = []string{
	"copy small file (cp)",
	"uncompress (gunzip)",
	"copy large file (cp)",
	"unpack (pax)",
	"copy large tree (cp -r)",
	"diff large tree (diff)",
	"compile (gcc)",
	"delete files (rm *.o)",
	"pack tree (pax -w)",
	"compress (gzip)",
	"delete (rm -rf)",
}

// StepResult is one measured step.
type StepResult struct {
	Name    string
	Elapsed sim.Time
}

// IOResult is a full run of the workload on one system.
type IOResult struct {
	System string
	Steps  []StepResult
	Total  sim.Time

	// Accounting for the Section 6.3 analysis.
	Syscalls  int64
	ProtCalls int64
}

// lccArchive is the lcc tree's archive stream, built once per process
// and shared, read-only, by every IOIntensive run.
var lccArchive = sync.OnceValue(func() []byte { return apps.ArchiveBytes(apps.LccTree()) })

// IOIntensive runs the Table 1 workload on m. Setup (creating the
// initial compressed archive) is excluded from the measurement, like
// the paper's pre-staged archive file.
func IOIntensive(m machine.Machine) (IOResult, error) {
	res := IOResult{System: m.Name()}
	plaintext := lccArchive()
	// The "compressed" archive: gzip-ratio-sized prefix of the stream.
	compressed := plaintext[:len(plaintext)*3/10]

	var err error
	// Setup: stage /lcc.tgz (untimed).
	m.SpawnProc("setup", 0, func(p unix.Proc) {
		if e := apps.WriteFile(p, "/lcc.tgz", compressed); e != nil && err == nil {
			err = e
		}
		if e := p.Sync(); e != nil && err == nil {
			err = e
		}
	})
	m.Run()
	if err != nil {
		return res, fmt.Errorf("setup: %w", err)
	}

	sys0 := m.Stats().Get(sim.CtrSyscalls)
	prot0 := m.Stats().Get(sim.CtrProtCalls)
	start := m.Now()

	steps := []func(p unix.Proc) error{
		func(p unix.Proc) error { return apps.Cp(p, "/lcc.tgz", "/lcc2.tgz") },
		func(p unix.Proc) error { return apps.Gunzip(p, "/lcc2.tgz", "/lcc.tar", plaintext) },
		func(p unix.Proc) error { return apps.Cp(p, "/lcc.tar", "/lcc2.tar") },
		func(p unix.Proc) error { return apps.PaxR(p, "/lcc.tar", "/lcc") },
		func(p unix.Proc) error { return apps.CpR(p, "/lcc", "/lcc2") },
		func(p unix.Proc) error {
			differs, e := apps.Diff(p, "/lcc", "/lcc2")
			if e != nil {
				return e
			}
			if differs {
				return fmt.Errorf("identical trees reported different")
			}
			return nil
		},
		func(p unix.Proc) error { return apps.Gcc(p, "/lcc") },
		func(p unix.Proc) error { return apps.RmGlob(p, "/lcc", ".o") },
		func(p unix.Proc) error { return apps.PaxW(p, "/lcc", "/lcc.tar2") },
		func(p unix.Proc) error { return apps.Gzip(p, "/lcc.tar2", "/lcc.tgz2") },
		func(p unix.Proc) error { return apps.RmRF(p, "/lcc") },
	}
	for i, step := range steps {
		elapsed := exec(m, IOStepNames[i], step, &err)
		if err != nil {
			return res, err
		}
		res.Steps = append(res.Steps, StepResult{Name: IOStepNames[i], Elapsed: elapsed})
	}
	res.Total = m.Now() - start
	res.Syscalls = m.Stats().Get(sim.CtrSyscalls) - sys0
	res.ProtCalls = m.Stats().Get(sim.CtrProtCalls) - prot0
	return res, nil
}

// ProtectionResult holds the Section 6.3 experiment: the I/O workload on
// stock Xok/ExOS (XN + shared-state protection calls) versus Xok/ExOS
// with both removed. The paper reports 41.1 s -> 39.7 s and 300,000 ->
// 81,000 system calls.
type ProtectionResult struct {
	WithProtection    IOResult
	WithoutProtection IOResult
}
