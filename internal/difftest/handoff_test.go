package difftest

import (
	"slices"
	"testing"

	"xok/internal/cap"
	"xok/internal/cffs"
	"xok/internal/disk"
	"xok/internal/kernel"
	"xok/internal/machine"
	"xok/internal/unix"
)

// auditBoth audits a crash image in place (the hand-off every program
// ends in) and flattened onto the forensic disk (the reference).
func auditBoth(ci *disk.CrashImage, blocks int64, fs *cffs.FS) (got, want []string) {
	got = cffs.AuditImage(ci, blocks, fs.Name, fs.Cfg)
	img := ci.Flatten()
	want = cffs.AuditFlat(img, blocks, fs.Name, fs.Cfg)
	disk.RecycleImage(img)
	return got, want
}

// Every program of a 20-program campaign, on every personality, audits
// the same from its crash image as from the flattened reference.
func TestCrashHandoffMatchesFlatAudit(t *testing.T) {
	o := Options{Seeds: 20, Snapshot: true}.Defaults()
	release, err := o.bootSnapshots()
	if err != nil {
		t.Fatal(err)
	}
	defer release()
	for i := 0; i < o.Seeds; i++ {
		seed := o.BaseSeed + uint64(i)
		steps := Generate(seed, o.Steps)
		keep := allSteps(len(steps))
		prefixes := stepPrefixes(steps, keep)
		for _, pers := range o.Personalities {
			m := machine.Fork(o.snaps[pers])
			res, ci := o.runToCrash(m, pers.String(), steps, keep, prefixes)
			got, want := auditBoth(ci, o.DiskBlocks, m.FS)
			m.Close()
			ci.Release()
			if len(res.Outcomes) != len(keep) || len(res.Tree) == 0 {
				t.Fatalf("seed %d on %s: %d outcomes, %d tree lines", seed, pers, len(res.Outcomes), len(res.Tree))
			}
			if !slices.Equal(got, want) {
				t.Errorf("seed %d on %s: audit %q from the crash image, %q flattened", seed, pers, got, want)
			}
		}
	}
}

// editSlot rewrites the on-disk directory slot of r.
func editSlot(d *disk.Disk, r cffs.Ref, edit func(*cffs.Inode)) {
	blk := d.PeekBlock(r.Dir)
	in := cffs.DecodeSlot(blk, r.Slot)
	edit(&in)
	copy(blk[cffs.SlotOff(r.Slot):], cffs.EncodeSlot(in))
	d.PokeBlock(r.Dir, blk)
}

// Corruptions written into a fork's overlay, and so into the crash
// layer over the snapshot's, give the same violation lists from the
// crash image as from the flattened reference. Recovery reclaims a
// leaked block (an unreachable block is free after the reachability
// scan), so that audit is clean both ways; the others are not.
func TestCrashHandoffCorruptedOverlay(t *testing.T) {
	o := Options{Snapshot: true}.Defaults()
	release, err := o.bootSnapshots()
	if err != nil {
		t.Fatal(err)
	}
	defer release()
	corruptions := []struct {
		name  string
		clean bool
		apply func(d *disk.Disk, a, b cffs.Ref)
	}{
		{"dangling pointer", false, func(d *disk.Disk, a, _ cffs.Ref) {
			editSlot(d, a, func(in *cffs.Inode) { in.Ext[0].Start = uint64(d.NumBlocks()) + 100 })
		}},
		{"leaked block", true, func(d *disk.Disk, a, _ cffs.Ref) {
			editSlot(d, a, func(in *cffs.Inode) { in.Used = false })
		}},
		{"wrong link count", false, func(d *disk.Disk, a, b cffs.Ref) {
			ext := cffs.DecodeSlot(d.PeekBlock(a.Dir), a.Slot).Ext
			editSlot(d, b, func(in *cffs.Inode) { in.Ext = ext })
		}},
	}
	data := make([]byte, 3*4096)
	for _, pers := range o.Personalities {
		for _, c := range corruptions {
			m := machine.Fork(o.snaps[pers])
			m.Spawn("setup", 0, func(p unix.Proc) {
				for _, path := range []string{"/a", "/b"} {
					fd, err := p.Create(path, 6)
					if err != nil {
						t.Errorf("create %s: %v", path, err)
						return
					}
					if _, err := p.Write(fd, data); err != nil {
						t.Errorf("write %s: %v", path, err)
					}
					p.Close(fd)
				}
				if err := p.Sync(); err != nil {
					t.Errorf("sync: %v", err)
				}
			})
			m.Run()
			var a, b cffs.Ref
			m.K.Spawn("lookup", func(e *kernel.Env) {
				e.Creds = cap.UnixCreds(0)
				var errA, errB error
				a, _, errA = m.FS.LookupNoFollow(e, "/a")
				b, _, errB = m.FS.LookupNoFollow(e, "/b")
				if errA != nil || errB != nil {
					t.Errorf("lookup: %v, %v", errA, errB)
				}
			})
			m.Run()
			c.apply(m.K.Disk, a, b)
			ci := m.Crash(m.Now())
			got, want := auditBoth(ci, o.DiskBlocks, m.FS)
			m.Close()
			ci.Release()
			if !slices.Equal(got, want) {
				t.Errorf("%s on %s: audit %q from the crash image, %q flattened", c.name, pers, got, want)
			}
			if clean := len(got) == 0; clean != c.clean {
				t.Errorf("%s on %s: audit %q, want clean=%v", c.name, pers, got, c.clean)
			}
		}
	}
}
