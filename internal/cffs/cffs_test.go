package cffs

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"xok/internal/cap"
	"xok/internal/kernel"
	"xok/internal/sim"
	"xok/internal/xn"
)

type world struct {
	k  *kernel.Kernel
	x  *xn.XN
	fs *FS
}

func newWorld(t *testing.T, cfg Config) *world {
	t.Helper()
	k := kernel.New(kernel.Config{Name: "xok", MemPages: 8192, DiskSize: 65536})
	x := xn.New(k)
	w := &world{k: k, x: x}
	w.run(t, "mkfs", func(e *kernel.Env) error {
		fs, err := Mkfs(e, x, "cffs", cfg)
		if err != nil {
			return err
		}
		w.fs = fs
		return nil
	})
	return w
}

func (w *world) run(t *testing.T, name string, body func(*kernel.Env) error) {
	t.Helper()
	w.k.Spawn(name, func(e *kernel.Env) {
		if e.Creds == nil {
			e.Creds = cap.UnixCreds(0)
		}
		if err := body(e); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	})
	w.k.Run()
}

func pattern(n int, seed byte) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i)*7 + seed
	}
	return b
}

func TestCreateWriteReadSmall(t *testing.T) {
	w := newWorld(t, DefaultConfig())
	data := pattern(1000, 3)
	w.run(t, "rw", func(e *kernel.Env) error {
		ref, err := w.fs.Create(e, "/hello.txt", 100, 100, 6)
		if err != nil {
			return err
		}
		if n, err := w.fs.WriteAt(e, ref, 0, data); err != nil || n != len(data) {
			return fmt.Errorf("write = %d, %v", n, err)
		}
		buf := make([]byte, len(data))
		if n, err := w.fs.ReadAt(e, ref, 0, buf); err != nil || n != len(data) {
			return fmt.Errorf("read = %d, %v", n, err)
		}
		if !bytes.Equal(buf, data) {
			t.Error("read data mismatch")
		}
		in, err := w.fs.Stat(e, "/hello.txt")
		if err != nil {
			return err
		}
		if in.Size != 1000 || in.UID != 100 || in.Kind != KindFile {
			t.Errorf("stat = %+v", in)
		}
		return nil
	})
}

func TestLargeFileSpillsToIndirect(t *testing.T) {
	w := newWorld(t, DefaultConfig())
	// Force extent fragmentation so the file needs >3 extents: allocate
	// a large file while a competitor grabs interleaving blocks.
	big := pattern(300*sim.DiskBlockSize, 1) // 300 blocks = 1.2 MB
	w.run(t, "big", func(e *kernel.Env) error {
		ref, err := w.fs.Create(e, "/big.bin", 0, 0, 6)
		if err != nil {
			return err
		}
		// Write in interleaved chunks with other files to fragment.
		chunk := 10 * sim.DiskBlockSize
		for off := 0; off < len(big); off += chunk {
			end := off + chunk
			if end > len(big) {
				end = len(big)
			}
			if _, err := w.fs.WriteAt(e, ref, int64(off), big[off:end]); err != nil {
				return err
			}
			if off%(chunk*4) == 0 {
				name := fmt.Sprintf("/frag%d", off)
				fref, err := w.fs.Create(e, name, 0, 0, 6)
				if err != nil {
					return err
				}
				if _, err := w.fs.WriteAt(e, fref, 0, pattern(sim.DiskBlockSize, byte(off))); err != nil {
					return err
				}
			}
		}
		in, err := w.fs.Stat(e, "/big.bin")
		if err != nil {
			return err
		}
		if in.Ind == 0 {
			t.Error("large fragmented file did not use the indirect block")
		}
		buf := make([]byte, len(big))
		if _, err := w.fs.ReadAt(e, ref, 0, buf); err != nil {
			return err
		}
		if !bytes.Equal(buf, big) {
			t.Error("large file readback mismatch")
		}
		return nil
	})
}

func TestPersistenceAcrossRemount(t *testing.T) {
	w := newWorld(t, DefaultConfig())
	data := pattern(3*sim.DiskBlockSize+17, 9)
	w.run(t, "write", func(e *kernel.Env) error {
		if err := w.fs.Mkdir(e, "/sub", 0, 0, 7); err != nil {
			return err
		}
		ref, err := w.fs.Create(e, "/sub/file", 0, 0, 6)
		if err != nil {
			return err
		}
		if _, err := w.fs.WriteAt(e, ref, 0, data); err != nil {
			return err
		}
		return w.fs.Sync(e)
	})

	// Simulated reboot: remount XN from the disk image, reattach.
	x2, err := xn.Mount(w.k)
	if err != nil {
		t.Fatal(err)
	}
	w.x = x2
	w.run(t, "reattach", func(e *kernel.Env) error {
		fs2, err := Attach(e, x2, "cffs", DefaultConfig())
		if err != nil {
			return err
		}
		ref, _, err := fs2.Lookup(e, "/sub/file")
		if err != nil {
			return err
		}
		buf := make([]byte, len(data))
		if n, err := fs2.ReadAt(e, ref, 0, buf); err != nil || n != len(data) {
			return fmt.Errorf("read = %d, %v", n, err)
		}
		if !bytes.Equal(buf, data) {
			t.Error("data corrupted across remount")
		}
		return nil
	})
}

func TestUnsyncedDataLostButConsistentAfterCrash(t *testing.T) {
	w := newWorld(t, DefaultConfig())
	w.run(t, "setup", func(e *kernel.Env) error {
		ref, err := w.fs.Create(e, "/durable", 0, 0, 6)
		if err != nil {
			return err
		}
		if _, err := w.fs.WriteAt(e, ref, 0, pattern(100, 1)); err != nil {
			return err
		}
		if err := w.fs.Sync(e); err != nil {
			return err
		}
		// Written but never synced: must vanish at crash, without
		// corrupting anything.
		ref2, err := w.fs.Create(e, "/ephemeral", 0, 0, 6)
		if err != nil {
			return err
		}
		_, err = w.fs.WriteAt(e, ref2, 0, pattern(5000, 2))
		return err
	})
	x2, err := xn.Mount(w.k)
	if err != nil {
		t.Fatal(err)
	}
	free := x2.FreeBlocks()
	w.run(t, "verify", func(e *kernel.Env) error {
		fs2, err := Attach(e, x2, "cffs", DefaultConfig())
		if err != nil {
			return err
		}
		if _, _, err := fs2.Lookup(e, "/durable"); err != nil {
			t.Errorf("durable file lost: %v", err)
		}
		if _, _, err := fs2.Lookup(e, "/ephemeral"); !errors.Is(err, ErrNotFound) {
			t.Errorf("ephemeral file err = %v, want ErrNotFound", err)
		}
		return nil
	})
	if x2.FreeBlocks() != free {
		t.Error("lookup changed the free map")
	}
}

func TestMkdirTreeAndReaddir(t *testing.T) {
	w := newWorld(t, DefaultConfig())
	w.run(t, "tree", func(e *kernel.Env) error {
		if err := w.fs.Mkdir(e, "/a", 0, 0, 7); err != nil {
			return err
		}
		if err := w.fs.Mkdir(e, "/a/b", 0, 0, 7); err != nil {
			return err
		}
		for i := 0; i < 5; i++ {
			if _, err := w.fs.Create(e, fmt.Sprintf("/a/b/f%d", i), 0, 0, 6); err != nil {
				return err
			}
		}
		ents, err := w.fs.Readdir(e, "/a/b")
		if err != nil {
			return err
		}
		if len(ents) != 5 {
			t.Errorf("readdir = %d entries, want 5", len(ents))
		}
		ents, err = w.fs.Readdir(e, "/")
		if err != nil {
			return err
		}
		if len(ents) != 1 || ents[0].Name != "a" || ents[0].Kind != KindDir {
			t.Errorf("root readdir = %+v", ents)
		}
		_, err = w.fs.Readdir(e, "/a/b/f0")
		if !errors.Is(err, ErrNotDir) {
			t.Errorf("readdir(file) err = %v", err)
		}
		return nil
	})
}

func TestNameUniquenessEnforced(t *testing.T) {
	w := newWorld(t, DefaultConfig())
	w.run(t, "dup", func(e *kernel.Env) error {
		if _, err := w.fs.Create(e, "/x", 0, 0, 6); err != nil {
			return err
		}
		if _, err := w.fs.Create(e, "/x", 0, 0, 6); !errors.Is(err, ErrExists) {
			t.Errorf("duplicate create err = %v", err)
		}
		if err := w.fs.Mkdir(e, "/x", 0, 0, 7); !errors.Is(err, ErrExists) {
			t.Errorf("mkdir over file err = %v", err)
		}
		return nil
	})
}

func TestDirectoryChainGrowth(t *testing.T) {
	// More files than one block's 31 slots forces continuation blocks.
	w := newWorld(t, DefaultConfig())
	const n = 75
	w.run(t, "many", func(e *kernel.Env) error {
		for i := 0; i < n; i++ {
			if _, err := w.fs.Create(e, fmt.Sprintf("/f%03d", i), 0, 0, 6); err != nil {
				return err
			}
		}
		ents, err := w.fs.Readdir(e, "/")
		if err != nil {
			return err
		}
		if len(ents) != n {
			t.Errorf("readdir = %d, want %d", len(ents), n)
		}
		// All must be findable.
		for i := 0; i < n; i += 7 {
			if _, _, err := w.fs.Lookup(e, fmt.Sprintf("/f%03d", i)); err != nil {
				t.Errorf("lookup f%03d: %v", i, err)
			}
		}
		return nil
	})
}

func TestUnlinkFreesBlocks(t *testing.T) {
	w := newWorld(t, DefaultConfig())
	var before int64
	w.run(t, "cycle", func(e *kernel.Env) error {
		before = w.x.FreeBlocks()
		ref, err := w.fs.Create(e, "/victim", 0, 0, 6)
		if err != nil {
			return err
		}
		if _, err := w.fs.WriteAt(e, ref, 0, pattern(20*sim.DiskBlockSize, 4)); err != nil {
			return err
		}
		if err := w.fs.Unlink(e, "/victim"); err != nil {
			return err
		}
		if _, _, err := w.fs.Lookup(e, "/victim"); !errors.Is(err, ErrNotFound) {
			t.Errorf("lookup after unlink: %v", err)
		}
		// Nothing hit the disk, so everything frees immediately.
		if got := w.x.FreeBlocks(); got != before {
			t.Errorf("free blocks = %d, want %d", got, before)
		}
		return nil
	})
}

func TestUnlinkSyncedFileFreesAfterSync(t *testing.T) {
	w := newWorld(t, DefaultConfig())
	w.run(t, "cycle", func(e *kernel.Env) error {
		ref, err := w.fs.Create(e, "/victim", 0, 0, 6)
		if err != nil {
			return err
		}
		if _, err := w.fs.WriteAt(e, ref, 0, pattern(10*sim.DiskBlockSize, 4)); err != nil {
			return err
		}
		if err := w.fs.Sync(e); err != nil {
			return err
		}
		before := w.x.FreeBlocks()
		if err := w.fs.Unlink(e, "/victim"); err != nil {
			return err
		}
		// The dir block's on-disk copy still points at the data: the
		// blocks sit on the will-free list until the dir is written.
		if w.x.WillFreeCount() == 0 {
			t.Error("expected will-free blocks after unlinking synced file")
		}
		if err := w.fs.Sync(e); err != nil {
			return err
		}
		if w.x.WillFreeCount() != 0 {
			t.Errorf("will-free = %d after sync", w.x.WillFreeCount())
		}
		if got := w.x.FreeBlocks(); got != before+10 {
			t.Errorf("free delta = %d, want 10", got-before)
		}
		return nil
	})
}

func TestRmdir(t *testing.T) {
	w := newWorld(t, DefaultConfig())
	w.run(t, "rmdir", func(e *kernel.Env) error {
		if err := w.fs.Mkdir(e, "/d", 0, 0, 7); err != nil {
			return err
		}
		if _, err := w.fs.Create(e, "/d/f", 0, 0, 6); err != nil {
			return err
		}
		if err := w.fs.Rmdir(e, "/d"); !errors.Is(err, ErrNotEmpty) {
			t.Errorf("rmdir non-empty err = %v", err)
		}
		if err := w.fs.Unlink(e, "/d/f"); err != nil {
			return err
		}
		if err := w.fs.Rmdir(e, "/d"); err != nil {
			return err
		}
		if _, _, err := w.fs.Lookup(e, "/d"); !errors.Is(err, ErrNotFound) {
			t.Errorf("lookup after rmdir: %v", err)
		}
		return nil
	})
}

func TestRenameSameDir(t *testing.T) {
	w := newWorld(t, DefaultConfig())
	w.run(t, "rename", func(e *kernel.Env) error {
		ref, err := w.fs.Create(e, "/old", 0, 0, 6)
		if err != nil {
			return err
		}
		if _, err := w.fs.WriteAt(e, ref, 0, []byte("payload")); err != nil {
			return err
		}
		if err := w.fs.Rename(e, "/old", "/new"); err != nil {
			return err
		}
		if _, _, err := w.fs.Lookup(e, "/old"); !errors.Is(err, ErrNotFound) {
			t.Errorf("old name still resolves: %v", err)
		}
		ref2, _, err := w.fs.Lookup(e, "/new")
		if err != nil {
			return err
		}
		buf := make([]byte, 7)
		if _, err := w.fs.ReadAt(e, ref2, 0, buf); err != nil {
			return err
		}
		if string(buf) != "payload" {
			t.Errorf("renamed content = %q", buf)
		}
		return nil
	})
}

func TestOverwriteInPlace(t *testing.T) {
	w := newWorld(t, DefaultConfig())
	w.run(t, "overwrite", func(e *kernel.Env) error {
		ref, err := w.fs.Create(e, "/f", 0, 0, 6)
		if err != nil {
			return err
		}
		if _, err := w.fs.WriteAt(e, ref, 0, pattern(2*sim.DiskBlockSize, 1)); err != nil {
			return err
		}
		free := w.x.FreeBlocks()
		// Partial overwrite spanning the block boundary.
		patch := []byte("XYZZY")
		if _, err := w.fs.WriteAt(e, ref, sim.DiskBlockSize-2, patch); err != nil {
			return err
		}
		if w.x.FreeBlocks() != free {
			t.Error("in-place overwrite allocated blocks")
		}
		buf := make([]byte, 5)
		if _, err := w.fs.ReadAt(e, ref, sim.DiskBlockSize-2, buf); err != nil {
			return err
		}
		if string(buf) != "XYZZY" {
			t.Errorf("patch = %q", buf)
		}
		return nil
	})
}

func TestColocationKeepsDataNearDirectory(t *testing.T) {
	w := newWorld(t, DefaultConfig())
	w.run(t, "coloc", func(e *kernel.Env) error {
		if err := w.fs.Mkdir(e, "/proj", 0, 0, 7); err != nil {
			return err
		}
		ref, _, err := w.fs.Lookup(e, "/proj")
		if err != nil {
			return err
		}
		_ = ref
		fref, err := w.fs.Create(e, "/proj/src.c", 0, 0, 6)
		if err != nil {
			return err
		}
		if _, err := w.fs.WriteAt(e, fref, 0, pattern(4*sim.DiskBlockSize, 2)); err != nil {
			return err
		}
		exts, err := w.fs.FileExtents(e, fref)
		if err != nil {
			return err
		}
		if len(exts) != 1 {
			t.Errorf("fresh file has %d extents, want 1 contiguous", len(exts))
		}
		dist := int64(exts[0].Start) - int64(fref.Dir)
		if dist < 0 {
			dist = -dist
		}
		if dist > 64 {
			t.Errorf("data %d blocks from its directory; co-location broken", dist)
		}
		return nil
	})
}

func TestFFSProfileSyncWritesAndSplitInodes(t *testing.T) {
	// The FFS profile must do synchronous metadata writes (slow) where
	// C-FFS does none; creates must be dramatically slower.
	elapsed := func(cfg Config) (sim.Time, int64) {
		k := kernel.New(kernel.Config{Name: "m", MemPages: 8192, DiskSize: 65536})
		x := xn.New(k)
		var fs *FS
		k.Spawn("mkfs", func(e *kernel.Env) {
			e.Creds = cap.UnixCreds(0)
			var err error
			fs, err = Mkfs(e, x, "fs", cfg)
			if err != nil {
				t.Error(err)
			}
		})
		k.Run()
		start := k.Now()
		k.Spawn("creates", func(e *kernel.Env) {
			e.Creds = cap.UnixCreds(0)
			for i := 0; i < 20; i++ {
				if _, err := fs.Create(e, fmt.Sprintf("/f%d", i), 0, 0, 6); err != nil {
					t.Error(err)
					return
				}
			}
		})
		k.Run()
		return k.Now() - start, k.Stats.Get(sim.CtrSyncWrites)
	}
	cffsTime, cffsSync := elapsed(DefaultConfig())
	ffsTime, ffsSync := elapsed(FFSConfig())
	if cffsSync != 0 {
		t.Errorf("C-FFS did %d sync writes, want 0", cffsSync)
	}
	if ffsSync == 0 {
		t.Error("FFS profile did no sync writes")
	}
	if ffsTime < 3*cffsTime {
		t.Errorf("FFS creates (%v) not much slower than C-FFS (%v)", ffsTime, cffsTime)
	}
}

func TestPermissionDenied(t *testing.T) {
	w := newWorld(t, DefaultConfig())
	// Root creates a private directory (no "other" bits).
	w.run(t, "setup", func(e *kernel.Env) error {
		return w.fs.Mkdir(e, "/private", 0, 0, 0)
	})
	w.k.Spawn("intruder", func(e *kernel.Env) {
		e.Creds = cap.UnixCreds(503)
		_, err := w.fs.Create(e, "/private/evil", 503, 503, 6)
		if !errors.Is(err, xn.ErrAccessDenied) {
			t.Errorf("create in private dir err = %v, want ErrAccessDenied", err)
		}
	})
	w.k.Run()
	// A directory with other-write allows it.
	w.run(t, "setup2", func(e *kernel.Env) error {
		return w.fs.Mkdir(e, "/public", 0, 0, 7)
	})
	w.k.Spawn("user", func(e *kernel.Env) {
		e.Creds = cap.UnixCreds(503)
		if _, err := w.fs.Create(e, "/public/mine", 503, 503, 6); err != nil {
			t.Errorf("create in public dir: %v", err)
		}
	})
	w.k.Run()
}

func TestNotFoundPaths(t *testing.T) {
	w := newWorld(t, DefaultConfig())
	w.run(t, "missing", func(e *kernel.Env) error {
		if _, _, err := w.fs.Lookup(e, "/nope"); !errors.Is(err, ErrNotFound) {
			t.Errorf("missing file err = %v", err)
		}
		if _, _, err := w.fs.Lookup(e, "/no/such/dir"); !errors.Is(err, ErrNotFound) {
			t.Errorf("missing dir err = %v", err)
		}
		if _, err := w.fs.Create(e, "/no/file", 0, 0, 6); !errors.Is(err, ErrNotFound) {
			t.Errorf("create under missing dir err = %v", err)
		}
		return nil
	})
}

func TestNameTooLong(t *testing.T) {
	w := newWorld(t, DefaultConfig())
	w.run(t, "longname", func(e *kernel.Env) error {
		long := "/" + string(bytes.Repeat([]byte("x"), MaxNameLen+1))
		if _, err := w.fs.Create(e, long, 0, 0, 6); !errors.Is(err, ErrNameLen) {
			t.Errorf("err = %v, want ErrNameLen", err)
		}
		return nil
	})
}

func TestSlotRoundTripProperty(t *testing.T) {
	cases := []Inode{
		{},
		{Used: true, Kind: KindFile, Name: "a", UID: 1, GID: 2, Mode: 6, Size: 42, MTime: 7},
		{Used: true, Kind: KindDir, Name: "sub-directory.name", Mode: 7,
			Ext: [DirectExtents]Extent{{100, 5}, {900, 1}, {0, 0}}, Ind: 1234},
	}
	for _, in := range cases {
		got := DecodeSlot(append(make([]byte, 0, 4096),
			append(make([]byte, SlotsOff), append(EncodeSlot(in), make([]byte, 4096-SlotsOff-SlotSize)...)...)...), 0)
		if got != in {
			t.Errorf("slot round trip: got %+v want %+v", got, in)
		}
	}
}

// A lookup the name cache answers allocates nothing: it needs only the
// path's last component, and the slot's name is compared in place.
func TestCachedLookupAllocs(t *testing.T) {
	w := newWorld(t, DefaultConfig())
	w.run(t, "lookup", func(e *kernel.Env) error {
		if err := w.fs.Mkdir(e, "/dir", 0, 0, 7); err != nil {
			return err
		}
		if _, err := w.fs.Create(e, "/dir/file.txt", 0, 0, 6); err != nil {
			return err
		}
		const path = "/dir/./file.txt/"
		want, _, err := w.fs.LookupNoFollow(e, path) // fills the cache
		if err != nil {
			return err
		}
		var got Ref
		var in Inode
		allocs := testing.AllocsPerRun(100, func() {
			got, in, err = w.fs.LookupNoFollow(e, path)
		})
		if err != nil || got != want || in.Name != "file.txt" {
			return fmt.Errorf("cached lookup = %+v %q %v, want %+v \"file.txt\"", got, in.Name, err, want)
		}
		if allocs != 0 {
			t.Errorf("cached lookup: %v allocs, want 0", allocs)
		}
		return nil
	})
}

// A read served from the cache allocates nothing: the slot decodes
// without its name and the extent list goes into a stack buffer.
func TestCachedReadAtAllocs(t *testing.T) {
	w := newWorld(t, DefaultConfig())
	w.run(t, "read", func(e *kernel.Env) error {
		ref, err := w.fs.Create(e, "/doc", 0, 0, 6)
		if err != nil {
			return err
		}
		want := pattern(3*sim.DiskBlockSize+100, 7)
		if _, err := w.fs.WriteAt(e, ref, 0, want); err != nil {
			return err
		}
		buf := make([]byte, len(want))
		var n int
		allocs := testing.AllocsPerRun(100, func() {
			n, err = w.fs.ReadAt(e, ref, 0, buf)
		})
		if err != nil || n != len(want) || !bytes.Equal(buf, want) {
			return fmt.Errorf("cached ReadAt = %d, %v; content match %v", n, err, bytes.Equal(buf, want))
		}
		if allocs != 0 {
			t.Errorf("cached ReadAt: %v allocs, want 0", allocs)
		}
		return nil
	})
}

// Overwriting bytes inside a file's already-allocated, cached blocks
// allocates nothing. The size/mtime Modify rewrites no word the
// directory's owns-udf loads, so XN keeps the directory block's owns
// result instead of interpreting it again; the slot image is encoded on
// the stack, and XN's acl-uf bytes and shadow copy come from pooled
// scratch.
func TestWriteAtAllocatedBlockAllocs(t *testing.T) {
	w := newWorld(t, DefaultConfig())
	w.run(t, "write", func(e *kernel.Env) error {
		ref, err := w.fs.Create(e, "/doc", 0, 0, 6)
		if err != nil {
			return err
		}
		if _, err := w.fs.WriteAt(e, ref, 0, pattern(2*sim.DiskBlockSize, 1)); err != nil {
			return err
		}
		data := pattern(1000, 9)
		var n int
		allocs := testing.AllocsPerRun(100, func() {
			n, err = w.fs.WriteAt(e, ref, sim.DiskBlockSize-300, data)
		})
		if err != nil || n != len(data) {
			return fmt.Errorf("WriteAt = %d, %v", n, err)
		}
		if allocs != 0 && !raceEnabled {
			t.Errorf("WriteAt into allocated blocks: %v allocs, want 0", allocs)
		}
		got := make([]byte, len(data))
		if _, err := w.fs.ReadAt(e, ref, sim.DiskBlockSize-300, got); err != nil || !bytes.Equal(got, data) {
			return fmt.Errorf("read back after overwrite: %v, match %v", err, bytes.Equal(got, data))
		}
		return nil
	})
}

func TestLastComp(t *testing.T) {
	for _, path := range []string{"", "/", "//", "/.", "./.", "a", "/a", "a/", "/a/b", "/a/b/", "/a/./b/.", "/a//b", "a/.", "/a/../b"} {
		want := ""
		if c := split(path); len(c) > 0 {
			want = c[len(c)-1]
		}
		if got := lastComp(path); got != want {
			t.Errorf("lastComp(%q) = %q, want %q", path, got, want)
		}
	}
}
