package workload

import (
	"fmt"

	"xok/internal/apps"
	"xok/internal/machine"
	"xok/internal/sim"
	"xok/internal/unix"
)

// The Modified Andrew Benchmark (Ousterhout 1990; paper Section 6.2):
// five phases over a small source tree — make directories, copy the
// files, stat every file, read every file, and compile. The compile
// phase forks a compiler process per source file, which is why "MAB
// stresses fork, an expensive function in Xok/ExOS" (6 ms vs <1 ms).

// MABPhases names the five phases.
var MABPhases = []string{"mkdir", "copy", "stat", "read", "compile"}

// MABResult is one run.
type MABResult struct {
	System string
	Phases []StepResult
	Total  sim.Time
}

// mabTree is the benchmark's small source tree (~70 files, ~280 KB).
func mabTree() apps.TreeSpec {
	rng := sim.NewRNG(0xAB)
	var t apps.TreeSpec
	for d := 0; d < 5; d++ {
		dir := fmt.Sprintf("sub%d", d)
		t.Dirs = append(t.Dirs, dir)
		for i := 0; i < 14; i++ {
			t.Files = append(t.Files, apps.FileSpec{
				Path: fmt.Sprintf("%s/m%02d.c", dir, i),
				Size: 2500 + rng.Intn(3000),
			})
		}
	}
	return t
}

// MAB runs the benchmark on m.
func MAB(m machine.Machine) (MABResult, error) {
	res := MABResult{System: m.Name()}
	spec := mabTree()

	var err error
	// Stage the source tree (untimed, like the benchmark's pristine
	// source directory).
	m.Spawn("mab-setup", 0, func(p unix.Proc) {
		if e := apps.WriteTree(p, "/mabsrc", spec); e != nil && err == nil {
			err = e
		}
		if e := p.Sync(); e != nil && err == nil {
			err = e
		}
	})
	m.Run()
	if err != nil {
		return res, fmt.Errorf("mab setup: %w", err)
	}

	start := m.Now()
	phases := mabPhaseFuncs(spec)
	for i, phase := range phases {
		elapsed := exec(m, "mab-"+MABPhases[i], phase, &err)
		if err != nil {
			return res, err
		}
		res.Phases = append(res.Phases, StepResult{Name: MABPhases[i], Elapsed: elapsed})
	}
	res.Total = m.Now() - start
	return res, nil
}

// mabSegment is one quiescent-to-quiescent unit of the benchmark: a
// single process, with the machine drained after it. Segment
// boundaries are where snapshots are legal — the crash-enumeration
// fork path and the replay-equivalence tests are built on them.
type mabSegment struct {
	name string
	body func(p unix.Proc) error
}

// mabSegmentList is the benchmark as segments: staging (with a sync)
// then the five phases.
func mabSegmentList(spec apps.TreeSpec) []mabSegment {
	segs := []mabSegment{{name: "mab-setup", body: func(p unix.Proc) error {
		if e := apps.WriteTree(p, "/mabsrc", spec); e != nil {
			return e
		}
		return p.Sync()
	}}}
	for i, phase := range mabPhaseFuncs(spec) {
		segs = append(segs, mabSegment{name: "mab-" + MABPhases[i], body: phase})
	}
	return segs
}

// mabPhaseFuncs builds the five phase bodies over spec, in MABPhases
// order. MAB runs each in its own process; the crash-enumeration
// harness runs them back to back inside one.
func mabPhaseFuncs(spec apps.TreeSpec) []func(p unix.Proc) error {
	return []func(p unix.Proc) error{
		// Phase 1: mkdir the target hierarchy.
		func(p unix.Proc) error {
			if e := p.Mkdir("/mab", 7); e != nil {
				return e
			}
			for _, d := range spec.Dirs {
				if e := p.Mkdir("/mab/"+d, 7); e != nil {
					return e
				}
			}
			return nil
		},
		// Phase 2: copy the source tree in.
		func(p unix.Proc) error {
			for _, f := range spec.Files {
				if e := apps.Cp(p, "/mabsrc/"+f.Path, "/mab/"+f.Path); e != nil {
					return e
				}
			}
			return nil
		},
		// Phase 3: stat every file (recursive ls -l).
		func(p unix.Proc) error {
			for pass := 0; pass < 4; pass++ {
				for _, f := range spec.Files {
					if _, e := p.Stat("/mab/" + f.Path); e != nil {
						return e
					}
				}
			}
			return nil
		},
		// Phase 4: read every byte (grep through the tree).
		func(p unix.Proc) error {
			_, e := apps.Grep(p, "/mab", "include")
			return e
		},
		// Phase 5: compile. The cc driver forks the toolchain pipeline
		// for every file — cpp, cc1, as — which is what makes MAB
		// fork-bound and why ExOS's 6-ms fork hurts here.
		func(p unix.Proc) error {
			for _, f := range spec.Files {
				path := "/mab/" + f.Path
				var src []byte
				stages := []struct {
					name string
					body func(c unix.Proc)
				}{
					{"cpp", func(c unix.Proc) {
						s, e := apps.ReadFile(c, path)
						if e != nil {
							return
						}
						c.Compute(sim.Time(len(s) * 40)) // preprocess
						src = s
					}},
					{"cc1", func(c unix.Proc) {
						c.Compute(sim.Time(len(src) * apps.CPUGcc))
					}},
					{"as", func(c unix.Proc) {
						c.Compute(sim.Time(len(src) * 30))
						obj := make([]byte, len(src)*9/20)
						_ = apps.WriteFile(c, path[:len(path)-2]+".o", obj)
					}},
				}
				for _, st := range stages {
					h, e := p.Spawn(st.name, st.body)
					if e != nil {
						return e
					}
					h.Wait()
				}
			}
			return nil
		},
	}
}
