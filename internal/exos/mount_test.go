package exos

import (
	"errors"
	"strings"
	"testing"

	"xok/internal/cap"
	"xok/internal/cffs"
	"xok/internal/kernel"
	"xok/internal/posix"
	"xok/internal/unix"
)

func TestMountTable(t *testing.T) {
	s := boot(t, Config{})
	// Build a memory-based file system and mount it at /tmp
	// (Section 5.2.1's mount table mapping directories across file
	// systems).
	var memfs *cffs.FS
	s.K.Spawn("mktmp", func(e *kernel.Env) {
		e.Creds = cap.UnixCreds(0)
		var err error
		memfs, err = cffs.Mkfs(e, s.X, "tmpfs", cffs.MemConfig())
		if err != nil {
			t.Error(err)
		}
	})
	s.Run()
	s.Mount("/tmp", memfs)

	s.Spawn("user", 0, func(p unix.Proc) {
		// Files under /tmp land on the memfs; others on the root FS.
		fd, err := p.Create("/tmp/scratch", 6)
		if err != nil {
			t.Errorf("create on mount: %v", err)
			return
		}
		if _, err := p.Write(fd, []byte("temp data")); err != nil {
			t.Error(err)
			return
		}
		p.Close(fd)
		fd2, err := p.Create("/persistent", 6)
		if err != nil {
			t.Error(err)
			return
		}
		p.Close(fd2)

		// The file is visible through the mount...
		if _, err := p.Stat("/tmp/scratch"); err != nil {
			t.Errorf("stat via mount: %v", err)
		}
		// ...lives on the memfs...
		ents, err := p.Readdir("/tmp")
		if err != nil || len(ents) != 1 || ents[0].Name != "scratch" {
			t.Errorf("readdir mount root = %v, %v", ents, err)
		}
		// ...and not on the root file system.
		rootEnts, err := p.Readdir("/")
		if err != nil {
			t.Error(err)
			return
		}
		for _, ent := range rootEnts {
			if ent.Name == "scratch" {
				t.Error("mounted file leaked onto the root FS")
			}
		}
		// Cross-device rename is rejected.
		if err := p.Rename("/tmp/scratch", "/stolen"); err == nil ||
			!strings.Contains(err.Error(), "cross-device") {
			t.Errorf("cross-device rename err = %v", err)
		}
	})
	s.Run()

	// Unmount: /tmp paths fall through to the root FS again.
	s.Unmount("/tmp")
	s.Spawn("after", 0, func(p unix.Proc) {
		if _, err := p.Stat("/tmp/scratch"); !errors.Is(err, cffs.ErrNotFound) {
			t.Errorf("after unmount, stat = %v, want ErrNotFound", err)
		}
	})
	s.Run()
}

func TestLongestPrefixWins(t *testing.T) {
	s := boot(t, Config{})
	var fsA, fsB *cffs.FS
	s.K.Spawn("mk", func(e *kernel.Env) {
		e.Creds = cap.UnixCreds(0)
		var err error
		if fsA, err = cffs.Mkfs(e, s.X, "a", cffs.MemConfig()); err != nil {
			t.Error(err)
			return
		}
		if fsB, err = cffs.Mkfs(e, s.X, "b", cffs.MemConfig()); err != nil {
			t.Error(err)
		}
	})
	s.Run()
	s.Mount("/mnt", fsA)
	s.Mount("/mnt/inner", fsB)

	s.Spawn("user", 0, func(p unix.Proc) {
		if fd, err := p.Create("/mnt/outer-file", 6); err != nil {
			t.Error(err)
		} else {
			p.Close(fd)
		}
		if fd, err := p.Create("/mnt/inner/inner-file", 6); err != nil {
			t.Error(err)
		} else {
			p.Close(fd)
		}
		// inner-file must be on fsB's root, not under fsA.
		entsB, err := p.Readdir("/mnt/inner")
		if err != nil || len(entsB) != 1 || entsB[0].Name != "inner-file" {
			t.Errorf("inner mount readdir = %v, %v", entsB, err)
		}
		entsA, err := p.Readdir("/mnt")
		if err != nil || len(entsA) != 1 || entsA[0].Name != "outer-file" {
			t.Errorf("outer mount readdir = %v, %v", entsA, err)
		}
	})
	s.Run()
}

// TestSnapshotForkKeepsMountAliases forks a machine whose one memory
// file system is mounted at two prefixes: the fork must keep it one
// file system, and must not share it with the original.
func TestSnapshotForkKeepsMountAliases(t *testing.T) {
	s := boot(t, Config{})
	var memfs *cffs.FS
	s.K.Spawn("mktmp", func(e *kernel.Env) {
		e.Creds = cap.UnixCreds(0)
		var err error
		if memfs, err = cffs.Mkfs(e, s.X, "tmpfs", cffs.MemConfig()); err != nil {
			t.Error(err)
		}
	})
	s.Run()
	s.Mount("/tmp", memfs)
	s.Mount("/scratch", memfs)

	s.Spawn("live", 0, func(unix.Proc) {
		if _, err := s.Snapshot(); err == nil {
			t.Error("snapshot with a live process succeeded")
		}
	})
	s.Run()

	sn, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	f := posix.Fork(sn)
	f.Spawn("user", 0, func(p unix.Proc) {
		fd, err := p.Create("/tmp/a", 6)
		if err != nil {
			t.Errorf("create: %v", err)
			return
		}
		p.Close(fd)
		if _, err := p.Stat("/scratch/a"); err != nil {
			t.Errorf("file created through /tmp not visible through /scratch: %v", err)
		}
		if err := p.Rename("/tmp/a", "/scratch/b"); err != nil {
			t.Errorf("rename between aliases of one FS: %v", err)
		}
		if err := p.Rename("/scratch/b", "/b"); !errors.Is(err, unix.ErrXDev) {
			t.Errorf("rename onto the root FS = %v, want ErrXDev", err)
		}
	})
	f.Run()

	s.Spawn("original", 0, func(p unix.Proc) {
		for _, path := range []string{"/tmp/a", "/tmp/b", "/scratch/b"} {
			if _, err := p.Stat(path); !errors.Is(err, cffs.ErrNotFound) {
				t.Errorf("original machine sees the fork's %s: %v", path, err)
			}
		}
	})
	s.Run()
	f.K.Release()
	s.K.Release()
	sn.Release()
}
