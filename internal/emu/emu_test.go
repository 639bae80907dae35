package emu

import (
	"testing"

	"xok/internal/apps"
	"xok/internal/bsdos"
	"xok/internal/exos"
	"xok/internal/ostest"
	"xok/internal/posix"
	"xok/internal/sim"
	"xok/internal/unix"
)

// boot boots a default Xok/ExOS machine for a test: a failed format
// fails t.
func boot(t testing.TB) *posix.System {
	t.Helper()
	s, err := exos.Boot(exos.Config{})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func runEmulated(t testing.TB, main func(unix.Proc)) *posix.System {
	s := boot(t)
	s.Spawn("emu", 0, func(p unix.Proc) {
		main(Emulate(p))
	})
	s.Run()
	return s
}

func TestEmulatedGetpidFasterThanNative(t *testing.T) {
	// Section 7.1: 270 cycles on OpenBSD, ~100 cycles emulated.
	var emulated sim.Time
	runEmulated(t, func(p unix.Proc) {
		const n = 1000
		p.Getpid()
		start := p.Now()
		for i := 0; i < n; i++ {
			p.Getpid()
		}
		emulated = (p.Now() - start) / n
	})

	bsd, err := bsdos.Boot(bsdos.OpenBSD, posix.Hardware{})
	if err != nil {
		t.Fatal(err)
	}
	native := ostest.GetpidCost(func(main func(unix.Proc)) {
		bsd.Spawn("native", 0, main)
		bsd.Run()
	})

	t.Logf("getpid: emulated on Xok/ExOS = %d cycles, native OpenBSD = %d cycles",
		emulated, native)
	if emulated >= native {
		t.Errorf("emulated getpid (%d) should beat native OpenBSD (%d)", emulated, native)
	}
	if emulated < 90 || emulated > 140 {
		t.Errorf("emulated getpid = %d cycles, want ~100-112", emulated)
	}
	if native < 240 || native > 300 {
		t.Errorf("native getpid = %d cycles, want ~270", native)
	}
}

func TestEmulatedProgramsRunCorrectly(t *testing.T) {
	// "It has been able to execute large programs such as Mosaic": a
	// real application (cp over a tree) must behave identically under
	// emulation.
	runEmulated(t, func(p unix.Proc) {
		spec := apps.TreeSpec{
			Dirs:  []string{"d"},
			Files: []apps.FileSpec{{Path: "d/a", Size: 20000}, {Path: "d/b", Size: 4096}},
		}
		if err := apps.WriteTree(p, "/src", spec); err != nil {
			t.Errorf("write tree: %v", err)
			return
		}
		if err := apps.CpR(p, "/src", "/dst"); err != nil {
			t.Errorf("cp -r: %v", err)
			return
		}
		differs, err := apps.Diff(p, "/src", "/dst")
		if err != nil || differs {
			t.Errorf("emulated copy wrong: differs=%v err=%v", differs, err)
		}
	})
}

func TestEmulationOverheadFewPercent(t *testing.T) {
	// "Most programs on the emulator run only a few percent slower
	// than the same programs running directly under Xok/ExOS."
	workload := func(p unix.Proc) {
		spec := apps.TreeSpec{Dirs: []string{"d"}}
		for i := 0; i < 10; i++ {
			spec.Files = append(spec.Files, apps.FileSpec{
				Path: "d/f" + string(rune('0'+i)), Size: 30000,
			})
		}
		if err := apps.WriteTree(p, "/t", spec); err != nil {
			t.Error(err)
			return
		}
		if _, err := apps.Grep(p, "/t", "x"); err != nil {
			t.Error(err)
		}
	}

	sNative := boot(t)
	sNative.Spawn("native", 0, workload)
	sNative.Run()
	native := sNative.Now()

	sEmu := runEmulated(t, workload)
	emulated := sEmu.Now()

	overhead := float64(emulated-native) / float64(native)
	t.Logf("native %v, emulated %v, overhead %.2f%%", native, emulated, overhead*100)
	if overhead < 0 {
		t.Error("emulation cannot be faster than native ExOS")
	}
	if overhead > 0.05 {
		t.Errorf("emulation overhead = %.1f%%, want a few percent", overhead*100)
	}
}

func TestSupportedCallCount(t *testing.T) {
	if SupportedCalls != 90 {
		t.Fatal("paper documents 90 supported calls")
	}
}

func TestEmulatorFullConformance(t *testing.T) {
	// The emulator must pass the same POSIX-surface and pipe checks as
	// the native personalities — 90 supported calls means real
	// programs run unmodified.
	runE := func(main func(unix.Proc)) {
		s := boot(t)
		s.Spawn("emu", 0, func(p unix.Proc) {
			main(Emulate(p))
		})
		s.Run()
	}
	if err := ostest.CheckFileOps("Xok/ExOS (emulated)", runE); err != nil {
		t.Fatalf("file ops under emulation: %v", err)
	}
	if err := ostest.CheckPipe(runE); err != nil {
		t.Fatalf("pipes under emulation: %v", err)
	}
}
