package core

import (
	"slices"
	"testing"

	"xok/internal/sim"
	"xok/internal/workload"
)

func TestTable2PipeShape(t *testing.T) {
	// Table 2: Shared memory 13/150 us, Protection 30/148 us, OpenBSD
	// 34/160 us (1-byte / 8-KB latency). The shape: shared < protected
	// <= OpenBSD at 1 byte; at 8 KB the copy cost dominates and all
	// three converge, with the user-level pipes still at or below
	// OpenBSD ("even with gratuitous use of Xok's protection
	// mechanisms, user-level pipes can still outperform OpenBSD").
	rows, err := (&Bench{}).Table2()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		t.Logf("%-14s 1B=%8.1fus  8KB=%8.1fus", r.Impl, r.Lat1B.Micros(), r.Lat8KB.Micros())
	}
	shared, prot, bsd := rows[0], rows[1], rows[2]
	if !(shared.Lat1B < prot.Lat1B) {
		t.Errorf("1B: shared (%v) must beat protected (%v)", shared.Lat1B, prot.Lat1B)
	}
	if !(prot.Lat1B <= bsd.Lat1B) {
		t.Errorf("1B: protected (%v) must not exceed OpenBSD (%v)", prot.Lat1B, bsd.Lat1B)
	}
	if !(prot.Lat8KB <= bsd.Lat8KB) {
		t.Errorf("8KB: protected (%v) must not exceed OpenBSD (%v)", prot.Lat8KB, bsd.Lat8KB)
	}
	// 8-KB latencies converge within ~25% between shared and protected
	// (148 vs 150 us in the paper).
	ratio := float64(prot.Lat8KB) / float64(shared.Lat8KB)
	if ratio > 1.4 {
		t.Errorf("8KB shared/protected ratio = %.2f, want near 1", ratio)
	}
	// Magnitudes: within a factor ~2.5 of the published values.
	checks := []struct {
		name string
		got  sim.Time
		want float64 // microseconds
	}{
		{"shared 1B", shared.Lat1B, 13},
		{"protected 1B", prot.Lat1B, 30},
		{"openbsd 1B", bsd.Lat1B, 34},
		{"shared 8KB", shared.Lat8KB, 150},
		{"protected 8KB", prot.Lat8KB, 148},
		{"openbsd 8KB", bsd.Lat8KB, 160},
	}
	for _, c := range checks {
		us := c.got.Micros()
		if us < c.want/2.5 || us > c.want*2.5 {
			t.Errorf("%s = %.1fus, paper reports %.0fus", c.name, us, c.want)
		}
	}
}

func TestBootHelpers(t *testing.T) {
	if cells := Figure45Cells(); len(cells) != 5 || cells[4].TotalJobs != 35 {
		t.Fatal("figure 4/5 cells wrong")
	}
	if len(workload.Pool1()) != 9 || len(workload.Pool2()) != 5 {
		t.Fatal("pool sizes wrong")
	}
}

func TestRunFigure3Smoke(t *testing.T) {
	results, err := (&Bench{}).Figure3(8, 50*sim.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 25 {
		t.Fatalf("cells = %d, want 5 servers x 5 sizes", len(results))
	}
	for _, r := range results {
		if r.Requests == 0 {
			t.Errorf("%s@%d completed nothing", r.Server, r.DocSize)
		}
	}
}

func TestRunGlobalSmoke(t *testing.T) {
	rows, err := (&Bench{}).GlobalSweep(workload.Pool1(), []GlobalCell{{TotalJobs: 4, MaxConc: 2}}, 7)
	if err != nil {
		t.Fatal(err)
	}
	xok, fbsd := rows[0][0], rows[0][1]
	if xok.Total == 0 || fbsd.Total == 0 {
		t.Fatalf("empty results: %+v %+v", xok, fbsd)
	}
	if xok.TotalJobs != 4 || xok.MaxConc != 2 {
		t.Fatalf("cell echoed wrong: %+v", xok)
	}
}

func TestRunFigure2AndMABSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy")
	}
	f2, err := (&Bench{}).Figure2()
	if err != nil {
		t.Fatal(err)
	}
	if len(f2) != 4 || len(f2[0].Steps) != 11 {
		t.Fatalf("figure 2 shape: %d systems, %d steps", len(f2), len(f2[0].Steps))
	}
	mab, err := (&Bench{}).MAB()
	if err != nil {
		t.Fatal(err)
	}
	if len(mab) != 4 || len(mab[0].Phases) != 5 {
		t.Fatalf("MAB shape: %d systems, %d phases", len(mab), len(mab[0].Phases))
	}
}

func TestProtectionCost(t *testing.T) {
	// Section 6.3: protection costs a few percent (41.1 s vs 39.7 s)
	// and most system calls (300k -> 81k).
	res, err := (&Bench{}).ProtectionCost()
	if err != nil {
		t.Fatal(err)
	}
	with, without := res.WithProtection, res.WithoutProtection
	t.Logf("with protection:    %v, %d syscalls (%d protection calls)",
		with.Total, with.Syscalls, with.ProtCalls)
	t.Logf("without protection: %v, %d syscalls", without.Total, without.Syscalls)
	if with.Total <= without.Total {
		t.Error("protection should cost something")
	}
	overhead := float64(with.Total-without.Total) / float64(without.Total)
	if overhead > 0.15 {
		t.Errorf("protection overhead = %.1f%%, want a few percent", overhead*100)
	}
	if with.Syscalls < 2*without.Syscalls {
		t.Errorf("syscall reduction %d -> %d too small (paper: 300k -> 81k)",
			with.Syscalls, without.Syscalls)
	}
	if without.ProtCalls != 0 {
		t.Error("unprotected run made protection calls")
	}
}

// Section 7.1: an emulated getpid beats the native one (the paper's
// 100 vs 270 cycles), and the result is the same at any worker count.
func TestEmulator(t *testing.T) {
	serial, err := (&Bench{Parallel: 1}).Emulator()
	if err != nil {
		t.Fatal(err)
	}
	wide, err := (&Bench{Parallel: 4}).Emulator()
	if err != nil {
		t.Fatal(err)
	}
	if wide != serial {
		t.Fatalf("Parallel 4 = %+v, Parallel 1 = %+v", wide, serial)
	}
	if serial.Emulated == 0 || serial.Emulated >= serial.Native {
		t.Errorf("emulated getpid %d cycles, native %d: want emulated cheaper", serial.Emulated, serial.Native)
	}
}

// Section 7.2: XCP beats cp in core and on disk, and the rows are the
// same at any worker count.
func TestXCP(t *testing.T) {
	serial, err := (&Bench{Parallel: 1}).XCP()
	if err != nil {
		t.Fatal(err)
	}
	wide, err := (&Bench{Parallel: 4}).XCP()
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(wide, serial) {
		t.Fatalf("Parallel 4 = %+v, Parallel 1 = %+v", wide, serial)
	}
	if len(serial) != 2 || serial[0].Cold || !serial[1].Cold {
		t.Fatalf("rows = %+v, want in core then on disk", serial)
	}
	for _, r := range serial {
		t.Logf("cold=%v cp=%v xcp=%v speedup %.1fx", r.Cold, r.Cp, r.XCP, float64(r.Cp)/float64(r.XCP))
		if r.XCP == 0 || r.XCP >= r.Cp {
			t.Errorf("cold=%v: xcp %v, cp %v: want xcp faster", r.Cold, r.XCP, r.Cp)
		}
	}
}
