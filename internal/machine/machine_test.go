package machine

import (
	"testing"

	"xok/internal/fault"
	"xok/internal/unix"
)

func TestNewBootsEveryPersonality(t *testing.T) {
	names := map[Personality]string{
		XokExOS:        "Xok/ExOS",
		XokUnprotected: "Xok/ExOS",
		FreeBSD:        "FreeBSD",
		OpenBSD:        "OpenBSD",
		OpenBSDCFFS:    "OpenBSD/C-FFS",
	}
	for _, p := range []Personality{XokExOS, XokUnprotected, FreeBSD, OpenBSD, OpenBSDCFFS} {
		m, err := New(Config{Personality: p, DiskBlocks: 1 << 15})
		if err != nil {
			t.Fatalf("%v: %v", p, err)
		}
		if m.K == nil || m.K.Disk == nil || m.FS == nil || m.Stats() == nil {
			t.Fatalf("%v: accessors returned nil", p)
		}
		if got := m.Name(); got != names[p] {
			t.Errorf("%v: Name() = %q, want %q", p, got, names[p])
		}
		if got := m.Personality(); got != p {
			t.Errorf("%v: Personality() = %v", p, got)
		}
		ok := false
		m.Spawn("probe", 0, func(pr unix.Proc) {
			if _, err := pr.Create("/probe", 6); err == nil {
				ok = true
			}
		})
		m.Run()
		if !ok {
			t.Fatalf("%v: file system not usable", p)
		}
		sn, err := m.Snapshot()
		if err != nil {
			t.Fatalf("%v: snapshot: %v", p, err)
		}
		f := Fork(sn)
		if got := f.Name(); got != names[p] {
			t.Errorf("%v: fork's Name() = %q, want %q", p, got, names[p])
		}
		if got := f.Personality(); got != p {
			t.Errorf("%v: fork's Personality() = %v", p, got)
		}
		f.Close()
		m.Close()
		sn.Release()
	}
}

func TestNewRejectsBadConfigs(t *testing.T) {
	if _, err := New(Config{Personality: FreeBSD, SharedMemPipes: true}); err == nil {
		t.Error("shared-memory pipes accepted on FreeBSD")
	}
	if _, err := New(Config{Personality: Personality(99)}); err == nil {
		t.Error("unknown personality accepted")
	}
}

func TestConfigThreadsGeometryAndFaults(t *testing.T) {
	plan := &fault.Plan{Seed: 1, TornWrites: true}
	m := MustNew(Config{
		Personality: XokExOS,
		DiskBlocks:  1 << 15,
		Faults:      plan,
	})
	if m.K.Faults != plan {
		t.Error("fault plan not threaded to the kernel")
	}
	if got := m.K.Disk.NumBlocks(); got != 1<<15 {
		t.Errorf("disk blocks = %d, want %d", got, 1<<15)
	}
	img := m.Crash(m.Now() + 1000)
	if img == nil {
		t.Error("crash image nil")
	}
}
