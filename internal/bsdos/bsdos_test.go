package bsdos

import (
	"testing"

	"xok/internal/ostest"
	"xok/internal/posix"
	"xok/internal/sim"
	"xok/internal/unix"
)

// boot is Boot for a test: a failed format fails t.
func boot(t testing.TB, v Variant, hw posix.Hardware) *posix.System {
	t.Helper()
	s, err := Boot(v, hw)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func runner(t testing.TB, v Variant) (ostest.RunFunc, *posix.System) {
	s := boot(t, v, posix.Hardware{})
	return func(main func(unix.Proc)) {
		s.Spawn("test", 0, main)
		s.Run()
	}, s
}

func TestFileOpsConformanceAllVariants(t *testing.T) {
	for _, v := range []Variant{FreeBSD, OpenBSD, OpenBSDCFFS} {
		run, _ := runner(t, v)
		if err := ostest.CheckFileOps(v.String(), run); err != nil {
			t.Errorf("%v: %v", v, err)
		}
	}
}

func TestPipeConformance(t *testing.T) {
	run, _ := runner(t, OpenBSD)
	if err := ostest.CheckPipe(run); err != nil {
		t.Fatal(err)
	}
}

func TestGetpidTraps(t *testing.T) {
	// Section 7.1: getpid = 270 cycles on OpenBSD (a kernel crossing).
	run, s := runner(t, OpenBSD)
	sysBefore := s.Stats().Get(sim.CtrSyscalls)
	cost := ostest.GetpidCost(run)
	if cost < 240 || cost > 300 {
		t.Fatalf("getpid = %d cycles, want ~270", cost)
	}
	if s.Stats().Get(sim.CtrSyscalls)-sysBefore < 2000 {
		t.Fatal("getpid did not trap")
	}
}

func TestForkCheaperThanExOS(t *testing.T) {
	// Section 6.2: BSD fork < 1 ms (ExOS's is 6 ms).
	run, _ := runner(t, FreeBSD)
	cost := ostest.ForkCost(run)
	if cost > sim.FromMillis(4) {
		t.Fatalf("fork+exec+wait = %v, want < 4ms", cost)
	}
}

func TestEveryFileOpTraps(t *testing.T) {
	run, s := runner(t, FreeBSD)
	before := s.Stats().Get(sim.CtrSyscalls)
	run(func(p unix.Proc) {
		fd, err := p.Create("/f", 6)
		if err != nil {
			t.Error(err)
			return
		}
		buf := make([]byte, 100)
		p.Write(fd, buf)
		p.Seek(fd, 0, unix.SeekSet)
		p.Read(fd, buf)
		p.Close(fd)
		p.Stat("/f")
		p.Unlink("/f")
	})
	if got := s.Stats().Get(sim.CtrSyscalls) - before; got < 7 {
		t.Fatalf("syscalls = %d, want >= 7 (one per operation)", got)
	}
}

func TestOpenBSDCacheSmallerThanFreeBSD(t *testing.T) {
	sf := boot(t, FreeBSD, posix.Hardware{})
	so := boot(t, OpenBSD, posix.Hardware{})
	if sf.X.MaxCachePages != 0 {
		t.Fatal("FreeBSD cache should be unified (uncapped)")
	}
	if so.X.MaxCachePages == 0 || so.X.MaxCachePages > 4000 {
		t.Fatalf("OpenBSD cache cap = %d, want small", so.X.MaxCachePages)
	}
}

func TestVariantFSProfiles(t *testing.T) {
	// FreeBSD/OpenBSD run FFS (sync metadata); OpenBSD/C-FFS runs the
	// co-locating profile.
	f := boot(t, FreeBSD, posix.Hardware{})
	if f.FS.Cfg.EmbeddedInodes || !f.FS.Cfg.SyncMeta {
		t.Fatalf("FreeBSD profile = %+v", f.FS.Cfg)
	}
	c := boot(t, OpenBSDCFFS, posix.Hardware{})
	if !c.FS.Cfg.EmbeddedInodes || c.FS.Cfg.SyncMeta {
		t.Fatalf("OpenBSD/C-FFS profile = %+v", c.FS.Cfg)
	}
}

func TestVariantString(t *testing.T) {
	if FreeBSD.String() != "FreeBSD" || OpenBSDCFFS.String() != "OpenBSD/C-FFS" {
		t.Fatal("variant names wrong")
	}
}
