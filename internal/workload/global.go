package workload

import (
	"fmt"
	"hash/crc32"
	"sync"

	"xok/internal/apps"
	"xok/internal/kernel"
	"xok/internal/machine"
	"xok/internal/sim"
	"xok/internal/unix"
)

// Global performance experiments (Section 8, Figures 4 and 5): a
// randomized schedule of jobs from a pool, held at a fixed concurrency
// by a launcher (the shell). "The pseudo-random number generators are
// identical and start with the same seed, thus producing identical
// schedules" across systems; "each application ... is run in a
// separate directory from the others (to avoid cooperative buffer
// cache reuse)". Outputs are total running time (throughput) and the
// max/min per-job latency (interactive performance).

// JobKind is one pool member: Stage prepares its input files in a
// private directory (untimed), Run is the measured program.
type JobKind struct {
	Name  string
	Stage func(p unix.Proc, dir string) error
	Run   func(p unix.Proc, dir string) error
}

func stageNothing(unix.Proc, string) error { return nil }

// stageFile creates dir/<name> with n bytes.
func stageFile(p unix.Proc, dir, name string, n int) error {
	data := make([]byte, n)
	return apps.WriteFile(p, dir+"/"+name, data)
}

// stageTree builds a small source tree under dir/src.
func stageTree(p unix.Proc, dir string, files, fileSize int) error {
	if err := p.Mkdir(dir+"/src", 7); err != nil {
		return err
	}
	for i := 0; i < files; i++ {
		if err := stageFile(p, dir+"/src", fmt.Sprintf("s%02d.c", i), fileSize); err != nil {
			return err
		}
	}
	return nil
}

// The cksum job sums four staged files of cksumFileSize zero bytes;
// cksumStaged is the CRC-32 of what it staged, which the job's sum must
// equal: a check that the file system returned what was written.
const cksumFileSize = 120_000

var cksumStaged = sync.OnceValue(func() uint32 {
	return crc32.ChecksumIEEE(make([]byte, 4*cksumFileSize))
})

// Pool1 is Figure 4's mix of I/O- and CPU-intensive programs: pax -w,
// grep, cksum, tsp, sor, wc, gcc, gzip, gunzip.
func Pool1() []JobKind {
	return []JobKind{
		{
			Name:  "pax -w",
			Stage: func(p unix.Proc, dir string) error { return stageTree(p, dir, 40, 40000) },
			Run:   func(p unix.Proc, dir string) error { return apps.PaxW(p, dir+"/src", dir+"/out.tar") },
		},
		{
			Name:  "grep",
			Stage: func(p unix.Proc, dir string) error { return stageFile(p, dir, "big.txt", 4_000_000) },
			Run: func(p unix.Proc, dir string) error {
				_, err := apps.Grep(p, dir+"/big.txt", "needle")
				return err
			},
		},
		{
			Name: "cksum",
			Stage: func(p unix.Proc, dir string) error {
				for i := 0; i < 4; i++ {
					if err := stageFile(p, dir, fmt.Sprintf("f%d", i), cksumFileSize); err != nil {
						return err
					}
				}
				return nil
			},
			Run: func(p unix.Proc, dir string) error {
				sum, err := apps.Cksum(p, 80, dir+"/f0", dir+"/f1", dir+"/f2", dir+"/f3")
				if err == nil && sum != cksumStaged() {
					err = fmt.Errorf("cksum %08x, but the staged files sum to %08x", sum, cksumStaged())
				}
				return err
			},
		},
		{
			Name:  "tsp",
			Stage: stageNothing,
			Run: func(p unix.Proc, dir string) error {
				apps.Tsp(p, 120, 900)
				return nil
			},
		},
		{
			Name:  "sor",
			Stage: stageNothing,
			Run: func(p unix.Proc, dir string) error {
				apps.Sor(p, 120, 2500)
				return nil
			},
		},
		{
			Name:  "wc",
			Stage: func(p unix.Proc, dir string) error { return stageFile(p, dir, "words.txt", 4_000_000) },
			Run: func(p unix.Proc, dir string) error {
				_, err := apps.Wc(p, dir+"/words.txt")
				return err
			},
		},
		{
			Name:  "gcc",
			Stage: func(p unix.Proc, dir string) error { return stageTree(p, dir, 20, 35000) },
			Run:   func(p unix.Proc, dir string) error { return apps.Gcc(p, dir+"/src") },
		},
		{
			Name:  "gzip",
			Stage: func(p unix.Proc, dir string) error { return stageFile(p, dir, "in.bin", 3_000_000) },
			Run:   func(p unix.Proc, dir string) error { return apps.Gzip(p, dir+"/in.bin", dir+"/out.gz") },
		},
		{
			Name:  "gunzip",
			Stage: func(p unix.Proc, dir string) error { return stageFile(p, dir, "in.gz", 1_200_000) },
			Run: func(p unix.Proc, dir string) error {
				plain := make([]byte, 4_000_000)
				return apps.Gunzip(p, dir+"/in.gz", dir+"/out.bin", plain)
			},
		},
	}
}

// Pool2 is Figure 5's mix, where the pax and cp jobs "represent the
// specialized applications" that benefit from C-FFS: tsp, sor,
// pax -r, cp -r, and diff over two identical 5-MB files.
func Pool2() []JobKind {
	archive := apps.ArchiveBytes(smallTree())
	return []JobKind{
		{
			Name:  "tsp",
			Stage: stageNothing,
			Run: func(p unix.Proc, dir string) error {
				apps.Tsp(p, 120, 900)
				return nil
			},
		},
		{
			Name:  "sor",
			Stage: stageNothing,
			Run: func(p unix.Proc, dir string) error {
				apps.Sor(p, 120, 2500)
				return nil
			},
		},
		{
			Name: "pax -r",
			Stage: func(p unix.Proc, dir string) error {
				return apps.WriteFile(p, dir+"/in.tar", archive)
			},
			Run: func(p unix.Proc, dir string) error { return apps.PaxR(p, dir+"/in.tar", dir+"/tree") },
		},
		{
			Name:  "cp -r",
			Stage: func(p unix.Proc, dir string) error { return stageTree(p, dir, 40, 40000) },
			Run:   func(p unix.Proc, dir string) error { return apps.CpR(p, dir+"/src", dir+"/copy") },
		},
		{
			Name: "diff",
			Stage: func(p unix.Proc, dir string) error {
				if err := p.Mkdir(dir+"/a", 7); err != nil {
					return err
				}
				if err := p.Mkdir(dir+"/b", 7); err != nil {
					return err
				}
				if err := stageFile(p, dir+"/a", "big", 5_000_000); err != nil {
					return err
				}
				return stageFile(p, dir+"/b", "big", 5_000_000)
			},
			Run: func(p unix.Proc, dir string) error {
				_, err := apps.Diff(p, dir+"/a", dir+"/b")
				return err
			},
		},
	}
}

func smallTree() apps.TreeSpec {
	rng := sim.NewRNG(0x77)
	var t apps.TreeSpec
	t.Dirs = []string{"d0", "d1", "d2"}
	for d := 0; d < 3; d++ {
		for i := 0; i < 12; i++ {
			t.Files = append(t.Files, apps.FileSpec{
				Path: fmt.Sprintf("d%d/f%02d", d, i),
				Size: 20000 + rng.Intn(30000),
			})
		}
	}
	return t
}

// GlobalResult is one experiment: number/number in the figures is
// TotalJobs/MaxConc.
type GlobalResult struct {
	System    string
	TotalJobs int
	MaxConc   int
	Total     sim.Time // throughput
	Max       sim.Time // worst job latency
	Min       sim.Time // best job latency
}

// GlobalPerf runs `total` jobs drawn pseudo-randomly from pool,
// holding `maxConc` running at once.
func GlobalPerf(m machine.Machine, pool []JobKind, total, maxConc int, seed uint64) (GlobalResult, error) {
	res := GlobalResult{System: m.Name(), TotalJobs: total, MaxConc: maxConc}

	// Identical seeds => identical schedules on every system.
	rng := sim.NewRNG(seed)
	seq := make([]int, total)
	for i := range seq {
		seq[i] = rng.Intn(len(pool))
	}

	// Stage all inputs (untimed), each job in its own directory.
	var err error
	m.Spawn("stage", 0, func(p unix.Proc) {
		for i, k := range seq {
			dir := fmt.Sprintf("/g%03d", i)
			if e := p.Mkdir(dir, 7); e != nil && err == nil {
				err = e
				return
			}
			if e := pool[k].Stage(p, dir); e != nil && err == nil {
				err = e
				return
			}
		}
		if e := p.Sync(); e != nil && err == nil {
			err = e
		}
	})
	m.Run()
	if err != nil {
		return res, fmt.Errorf("stage: %w", err)
	}

	starts := make([]sim.Time, total)
	ends := make([]sim.Time, total)
	begin := m.Now()

	// The launcher is itself a process (the driving shell): its spawns
	// pay the personality's fork+exec price.
	m.Spawn("launcher", 0, func(p unix.Proc) {
		type running struct {
			idx int
			env *kernel.Env
		}
		var live []running
		next := 0
		for next < total || len(live) > 0 {
			for next < total && len(live) < maxConc {
				i := next
				next++
				kind := pool[seq[i]]
				dir := fmt.Sprintf("/g%03d", i)
				starts[i] = p.Now()
				h, e := p.Spawn(kind.Name, func(c unix.Proc) {
					if e := kind.Run(c, dir); e != nil && err == nil {
						err = fmt.Errorf("%s job %d: %w", kind.Name, i, e)
					}
					ends[i] = c.Now()
				})
				if e != nil {
					if err == nil {
						err = e
					}
					return
				}
				live = append(live, running{i, h.(interface{ Env() *kernel.Env }).Env()})
			}
			envs := make([]*kernel.Env, len(live))
			for j, r := range live {
				envs[j] = r.env
			}
			waiter := p.(interface{ Env() *kernel.Env }).Env()
			waiter.WaitAnyOf(envs)
			survivors := live[:0]
			for _, r := range live {
				if !r.env.Dead() {
					survivors = append(survivors, r)
				}
			}
			live = survivors
		}
	})
	m.Run()
	if err != nil {
		return res, err
	}

	res.Total = m.Now() - begin
	res.Max, res.Min = 0, 0
	for i := 0; i < total; i++ {
		lat := ends[i] - starts[i]
		if lat > res.Max {
			res.Max = lat
		}
		if res.Min == 0 || lat < res.Min {
			res.Min = lat
		}
	}
	return res, nil
}
