package workload

import (
	"strings"
	"testing"

	"xok/internal/apps"
	"xok/internal/machine"
	"xok/internal/unix"
)

// boot starts a stock machine of personality p, closed when the test
// ends.
func boot(t *testing.T, p machine.Personality) machine.Machine {
	m := machine.MustNew(machine.Config{Personality: p})
	t.Cleanup(m.Close)
	return m
}

func TestIOIntensiveShape(t *testing.T) {
	// Figure 2's shape: Xok/ExOS fastest, OpenBSD/C-FFS second,
	// native-FFS BSDs slowest (41 s vs 51 s vs ~60 s in the paper).
	xok, err := IOIntensive(boot(t, machine.XokExOS))
	if err != nil {
		t.Fatal(err)
	}
	obsdCffs, err := IOIntensive(boot(t, machine.OpenBSDCFFS))
	if err != nil {
		t.Fatal(err)
	}
	fbsd, err := IOIntensive(boot(t, machine.FreeBSD))
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("Xok/ExOS total      = %v", xok.Total)
	t.Logf("OpenBSD/C-FFS total = %v", obsdCffs.Total)
	t.Logf("FreeBSD total       = %v", fbsd.Total)
	for i, s := range xok.Steps {
		t.Logf("step %-26s xok=%10v obsd/cffs=%10v fbsd=%10v",
			s.Name, s.Elapsed, obsdCffs.Steps[i].Elapsed, fbsd.Steps[i].Elapsed)
	}
	if xok.Total >= obsdCffs.Total {
		t.Errorf("Xok/ExOS (%v) not faster than OpenBSD/C-FFS (%v)", xok.Total, obsdCffs.Total)
	}
	if obsdCffs.Total >= fbsd.Total {
		t.Errorf("OpenBSD/C-FFS (%v) not faster than FreeBSD (%v)", obsdCffs.Total, fbsd.Total)
	}
	// The paper's gap: FreeBSD ~1.45x Xok total.
	ratio := float64(fbsd.Total) / float64(xok.Total)
	if ratio < 1.2 || ratio > 2.2 {
		t.Errorf("FreeBSD/Xok ratio = %.2f, want ~1.45", ratio)
	}
	// At least one step should show a large (>2.5x) win for Xok over
	// FreeBSD ("in one case by over a factor of four").
	best := 0.0
	for i := range xok.Steps {
		r := float64(fbsd.Steps[i].Elapsed) / float64(xok.Steps[i].Elapsed+1)
		if r > best {
			best = r
		}
	}
	if best < 2.5 {
		t.Errorf("largest per-step win = %.2fx, want > 2.5x", best)
	}
}

func TestMABShape(t *testing.T) {
	// Section 6.2: MAB totals 11.5 / 12.5 / 14.2 / 11.5 s for Xok,
	// OpenBSD/C-FFS, OpenBSD, FreeBSD — much closer than the I/O
	// workload "because MAB stresses fork, an expensive function in
	// Xok/ExOS".
	xok, err := MAB(boot(t, machine.XokExOS))
	if err != nil {
		t.Fatal(err)
	}
	fbsd, err := MAB(boot(t, machine.FreeBSD))
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("Xok MAB = %v, FreeBSD MAB = %v", xok.Total, fbsd.Total)
	for i := range xok.Phases {
		t.Logf("phase %-8s xok=%10v fbsd=%10v",
			xok.Phases[i].Name, xok.Phases[i].Elapsed, fbsd.Phases[i].Elapsed)
	}
	// The paper reports a tie (11.5 s both); our FFS model charges the
	// copy phase's synchronous creates more heavily than 1997 FreeBSD
	// apparently paid, so we accept a band around parity (documented
	// in EXPERIMENTS.md). The essential claim — MAB is far closer than
	// the I/O workload because fork drags Xok back — is asserted below.
	ratio := float64(xok.Total) / float64(fbsd.Total)
	if ratio < 0.55 || ratio > 1.3 {
		t.Errorf("Xok/FreeBSD MAB ratio = %.2f, want near parity", ratio)
	}
	// The compile phase must be relatively worse for Xok than the
	// copy phase (fork cost vs C-FFS win).
	xokCompile := float64(xok.Phases[4].Elapsed) / float64(fbsd.Phases[4].Elapsed)
	xokCopy := float64(xok.Phases[1].Elapsed) / float64(fbsd.Phases[1].Elapsed)
	if xokCompile <= xokCopy {
		t.Errorf("compile ratio %.2f should exceed copy ratio %.2f (fork penalty)",
			xokCompile, xokCopy)
	}
}

func TestGlobalPerfSmall(t *testing.T) {
	// A scaled-down Figure 4 cell: 7 jobs at concurrency 2. Xok and
	// FreeBSD should land within ~35% of each other, and identical
	// seeds must give identical schedules per system.
	xok1, err := GlobalPerf(boot(t, machine.XokExOS), Pool1(), 7, 2, 42)
	if err != nil {
		t.Fatal(err)
	}
	xok2, err := GlobalPerf(boot(t, machine.XokExOS), Pool1(), 7, 2, 42)
	if err != nil {
		t.Fatal(err)
	}
	if xok1.Total != xok2.Total || xok1.Max != xok2.Max || xok1.Min != xok2.Min {
		t.Errorf("nondeterministic: %+v vs %+v", xok1, xok2)
	}
	fbsd, err := GlobalPerf(boot(t, machine.FreeBSD), Pool1(), 7, 2, 42)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("Xok:     total=%v max=%v min=%v", xok1.Total, xok1.Max, xok1.Min)
	t.Logf("FreeBSD: total=%v max=%v min=%v", fbsd.Total, fbsd.Max, fbsd.Min)
	if xok1.Min == 0 || xok1.Max < xok1.Min {
		t.Errorf("latencies broken: %+v", xok1)
	}
	ratio := float64(xok1.Total) / float64(fbsd.Total)
	if ratio < 0.5 || ratio > 1.35 {
		t.Errorf("Xok/FreeBSD total ratio = %.2f, want roughly comparable", ratio)
	}
}

// Figure 4's cksum job fails when the file system returns bytes other
// than those staged.
func TestCksumJobChecksStagedBytes(t *testing.T) {
	var job JobKind
	for _, k := range Pool1() {
		if k.Name == "cksum" {
			job = k
		}
	}
	m := boot(t, machine.XokExOS)
	var clean, corrupt error
	m.SpawnProc("cksum", 0, func(p unix.Proc) {
		if clean = p.Mkdir("/j", 7); clean != nil {
			return
		}
		if clean = job.Stage(p, "/j"); clean != nil {
			return
		}
		clean = job.Run(p, "/j")
		other := make([]byte, cksumFileSize)
		other[cksumFileSize/2] = 1
		if corrupt = apps.WriteFile(p, "/j/f2", other); corrupt == nil {
			corrupt = job.Run(p, "/j")
		}
	})
	m.Run()
	if clean != nil {
		t.Fatalf("cksum over the staged files: %v", clean)
	}
	if corrupt == nil || !strings.Contains(corrupt.Error(), "staged files sum to") {
		t.Fatalf("cksum job over a file that differs from the one it staged: %v, want a sum mismatch", corrupt)
	}
}

func TestGlobalPerfPool2ConcurrencyHelpsXok(t *testing.T) {
	// Figure 5: "the relative performance difference between FreeBSD
	// and Xok/ExOS increases with job concurrency" when C-FFS-favoured
	// jobs are in the pool.
	xok, err := GlobalPerf(boot(t, machine.XokExOS), Pool2(), 8, 4, 7)
	if err != nil {
		t.Fatal(err)
	}
	fbsd, err := GlobalPerf(boot(t, machine.FreeBSD), Pool2(), 8, 4, 7)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("pool2: xok=%v fbsd=%v", xok.Total, fbsd.Total)
	if xok.Total >= fbsd.Total {
		t.Errorf("Xok (%v) should beat FreeBSD (%v) on the pool-2 mix", xok.Total, fbsd.Total)
	}
}
