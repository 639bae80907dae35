package cffs

import (
	"fmt"

	"xok/internal/disk"
	"xok/internal/kernel"
	"xok/internal/xn"
)

// Fsck walks the entire file system and checks its structural
// invariants — the libFS-level guarantees C-FFS layers above XN's
// block-ownership protection (Section 4.5): name uniqueness and
// well-formedness within every directory, no block shared by two
// files, all extents inside the volume, and sizes consistent with the
// allocated blocks. The crash-consistency tests run it after simulated
// crashes; it is also a reusable utility (examples and tools may call
// it on any mounted volume).
type FsckReport struct {
	Dirs   int
	Files  int
	Blocks int64
	Errors []string
}

func (r *FsckReport) errorf(format string, args ...any) {
	r.Errors = append(r.Errors, fmt.Sprintf(format, args...))
}

// Fsck checks the whole tree rooted at fs.Root.
func (fs *FS) Fsck(e *kernel.Env) (*FsckReport, error) {
	r := &FsckReport{}
	owners := make(map[disk.BlockNo]string) // block -> path that owns it
	if err := fs.fsckDir(e, fs.Root, xn.NoParent, "/", r, owners); err != nil {
		return r, err
	}
	return r, nil
}

func (fs *FS) fsckDir(e *kernel.Env, head, parent disk.BlockNo, path string, r *FsckReport, owners map[disk.BlockNo]string) error {
	r.Dirs++
	blk, par := head, parent
	seen := map[string]bool{}
	for {
		if err := fs.ensureDir(e, blk, par); err != nil {
			return fmt.Errorf("fsck: reading %s block %d: %w", path, blk, err)
		}
		if prev, dup := owners[blk]; dup {
			r.errorf("%s: directory block %d already owned by %s", path, blk, prev)
		}
		owners[blk] = path
		r.Blocks++
		data := fs.dirData(blk)
		for i := 0; i < SlotsPerBlock; i++ {
			if data[SlotOff(i)] == 0 {
				continue
			}
			in := DecodeSlot(data, i)
			full := path + in.Name
			// Well-formed names (the "legal, aligned file names"
			// guarantee).
			if in.Name == "" || len(in.Name) > MaxNameLen {
				r.errorf("%s: slot %d has malformed name %q", path, i, in.Name)
			}
			for j := 0; j < len(in.Name); j++ {
				if in.Name[j] == '/' || in.Name[j] == 0 {
					r.errorf("%s: slot %d name contains illegal byte", path, i)
					break
				}
			}
			// Name uniqueness within the directory chain.
			if seen[in.Name] {
				r.errorf("%s: duplicate name %q", path, in.Name)
			}
			seen[in.Name] = true

			switch in.Kind {
			case KindDir:
				if in.Ext[0].Count != 1 {
					r.errorf("%s: directory with %d-block head extent", full, in.Ext[0].Count)
					continue
				}
				if err := fs.fsckDir(e, disk.BlockNo(in.Ext[0].Start), blk, full+"/", r, owners); err != nil {
					return err
				}
			case KindFile, KindLink:
				// A symlink is structurally a file whose data block
				// holds the target path; the same extent checks apply.
				r.Files++
				fs.fsckFile(e, Ref{Dir: blk, Slot: i}, in, full, r, owners)
			default:
				r.errorf("%s: slot %d has unknown kind %d", path, i, in.Kind)
			}
		}
		next := DirNext(data)
		if next == 0 {
			return nil
		}
		par = blk
		blk = disk.BlockNo(next)
	}
}

func (fs *FS) fsckFile(e *kernel.Env, ref Ref, in Inode, path string, r *FsckReport, owners map[disk.BlockNo]string) {
	exts, err := fs.FileExtents(e, ref)
	if err != nil {
		r.errorf("%s: extents unreadable: %v", path, err)
		return
	}
	var blocks int64
	vol := fs.X.D.NumBlocks()
	for _, ext := range exts {
		if int64(ext.Start) <= 0 || int64(ext.Start)+int64(ext.Count) > vol {
			r.errorf("%s: extent [%d,+%d) outside volume", path, ext.Start, ext.Count)
			continue
		}
		for j := uint32(0); j < ext.Count; j++ {
			b := disk.BlockNo(ext.Start + uint64(j))
			if prev, dup := owners[b]; dup {
				r.errorf("%s: block %d already owned by %s", path, b, prev)
			}
			owners[b] = path
			blocks++
			r.Blocks++
		}
	}
	if in.Ind != 0 {
		b := disk.BlockNo(in.Ind)
		if prev, dup := owners[b]; dup {
			r.errorf("%s: indirect block %d already owned by %s", path, b, prev)
		}
		owners[b] = path + "(ind)"
		r.Blocks++
	}
	// Size must fit in the allocated blocks.
	maxBytes := blocks * int64(udfBlockSize)
	if int64(in.Size) > maxBytes {
		r.errorf("%s: size %d exceeds %d allocated bytes", path, in.Size, maxBytes)
	}
}

const udfBlockSize = 4096
