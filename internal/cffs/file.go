package cffs

import (
	"encoding/binary"
	"fmt"

	"xok/internal/disk"
	"xok/internal/kernel"
	"xok/internal/sim"
	"xok/internal/udf"
	"xok/internal/xn"
)

// File data paths: ReadAt / WriteAt move bytes between caller buffers
// and cached pages; extent allocation implements the co-location
// policy. Lower-level consumers (XCP, Cheetah's XIO) use FileExtents
// and the XN registry directly to avoid the copies entirely.

// RefInode re-reads the inode a descriptor-held Ref points at,
// verifying the reference still names the same incarnation of the
// file. After unlink the slot may be unused, recycled for another file
// (generation mismatch), or its whole directory block freed and
// reallocated as something else (ensureDir fails); all three collapse
// to ErrStale so I/O through a dead descriptor fails deterministically
// instead of reading — or corrupting — whatever reused the blocks.
func (fs *FS) RefInode(e *kernel.Env, ref Ref) (Inode, error) {
	in, err := fs.refSlot(e, ref)
	if err == nil {
		in.Name = string(slotName(fs.dirData(ref.Dir), ref.Slot))
	}
	return in, err
}

// refSlot is RefInode without the name, so it allocates nothing.
func (fs *FS) refSlot(e *kernel.Env, ref Ref) (Inode, error) {
	if err := fs.ensureDir(e, ref.Dir, xn.NoParent); err != nil {
		return Inode{}, ErrStale
	}
	in := decodeSlotFields(fs.dirData(ref.Dir), ref.Slot)
	if !in.Used || in.Gen != ref.Gen {
		return Inode{}, ErrStale
	}
	return in, nil
}

// decodeIndirect parses an indirect block's extent table.
func decodeIndirect(data []byte) []Extent {
	return appendIndirect(make([]Extent, 0, indirectLen(data)), data)
}

// indirectLen is the entry count of an indirect block's table.
func indirectLen(data []byte) int {
	return min(int(binary.LittleEndian.Uint32(data[0:])), IndMaxEntries)
}

// appendIndirect appends an indirect block's extent table to dst.
func appendIndirect(dst []Extent, data []byte) []Extent {
	for i := range indirectLen(data) {
		off := IndEntriesOff + i*IndEntrySize
		dst = append(dst, Extent{
			Start: binary.LittleEndian.Uint64(data[off:]),
			Count: binary.LittleEndian.Uint32(data[off+8:]),
		})
	}
	return dst
}

// blockCount sums an extent list.
func blockCount(exts []Extent) uint32 {
	var n uint32
	for _, e := range exts {
		n += e.Count
	}
	return n
}

// ensureIndCached loads the file's indirect block.
func (fs *FS) ensureIndCached(e *kernel.Env, ref Ref, ind disk.BlockNo) error {
	if fs.X.Cached(ind) {
		fs.X.Pin(ind)
		return nil
	}
	if _, ok := fs.X.Lookup(ind); !ok {
		if err := fs.X.Insert(e, ref.Dir, udf.Extent{Start: int64(ind), Count: 1, Type: int64(fs.IndT)}); err != nil {
			return err
		}
	}
	if err := fs.X.Read(e, []disk.BlockNo{ind}, nil); err != nil {
		return err
	}
	fs.X.Pin(ind)
	return nil
}

// FileExtents returns the file's full extent list in order (direct
// then indirect). Exposed for zero-touch consumers like XCP.
func (fs *FS) FileExtents(e *kernel.Env, ref Ref) ([]Extent, error) {
	return fs.appendExtents(e, nil, ref)
}

// appendExtents appends the file's extent list to dst, as FileExtents
// returns it. A caller passing a stack array's slice with room for
// the direct extents lists a file without an indirect block without
// allocating.
func (fs *FS) appendExtents(e *kernel.Env, dst []Extent, ref Ref) ([]Extent, error) {
	if err := fs.ensureDir(e, ref.Dir, xn.NoParent); err != nil {
		return nil, err
	}
	in := decodeSlotFields(fs.dirData(ref.Dir), ref.Slot)
	for _, ext := range in.Ext {
		if ext.Count > 0 {
			dst = append(dst, ext)
		}
	}
	if in.Ind != 0 {
		if err := fs.ensureIndCached(e, ref, disk.BlockNo(in.Ind)); err != nil {
			return nil, err
		}
		dst = appendIndirect(dst, fs.X.PageData(disk.BlockNo(in.Ind)))
	}
	return dst, nil
}

// blockAt maps a file block index to its disk block.
func blockAt(exts []Extent, idx uint32) (disk.BlockNo, bool) {
	for _, e := range exts {
		if idx < e.Count {
			return disk.BlockNo(e.Start + uint64(idx)), true
		}
		idx -= e.Count
	}
	return 0, false
}

// owner returns which metadata block owns file block index idx: the
// directory block (direct extents) or the indirect block.
func (fs *FS) ownerOf(in Inode, ref Ref, idx uint32) disk.BlockNo {
	var direct uint32
	for _, e := range in.Ext {
		direct += e.Count
	}
	if idx < direct || in.Ind == 0 {
		return ref.Dir
	}
	return disk.BlockNo(in.Ind)
}

// ReadAt reads up to len(buf) bytes at offset off, returning the count.
func (fs *FS) ReadAt(e *kernel.Env, ref Ref, off int64, buf []byte) (int, error) {
	e.LibCall(100)
	if off < 0 {
		return 0, ErrInvalOp
	}
	in, err := fs.refSlot(e, ref)
	if err != nil {
		return 0, err
	}
	size := int64(in.Size)
	if off >= size {
		return 0, nil
	}
	if off+int64(len(buf)) > size {
		buf = buf[:size-off]
	}
	var extBuf [DirectExtents]Extent
	exts, err := fs.appendExtents(e, extBuf[:0], ref)
	if err != nil {
		return 0, err
	}

	// Gather the needed blocks and fetch the missing ones in one
	// batched, sorted read (contiguous runs coalesce at the disk).
	first := uint32(off / sim.DiskBlockSize)
	last := uint32((off + int64(len(buf)) - 1) / sim.DiskBlockSize)
	var need []disk.BlockNo
	for idx := first; idx <= last; idx++ {
		b, ok := blockAt(exts, idx)
		if !ok {
			return 0, fmt.Errorf("cffs: hole at block %d", idx)
		}
		if !fs.X.Cached(b) {
			if _, inReg := fs.X.Lookup(b); !inReg {
				owner := fs.ownerOf(in, ref, idx)
				if err := fs.X.Insert(e, owner, udf.Extent{Start: int64(b), Count: 1, Type: int64(fs.DataT)}); err != nil {
					return 0, err
				}
			}
			need = append(need, b)
		}
	}
	if len(need) > 0 {
		if err := fs.X.Read(e, need, nil); err != nil {
			return 0, err
		}
	}

	// Copy out. Under severe cache pressure a block that was resident
	// at gather time may have been recycled while the misses were
	// read; fetch it again.
	n := 0
	for idx := first; idx <= last; idx++ {
		b, _ := blockAt(exts, idx)
		if !fs.X.Cached(b) {
			if _, inReg := fs.X.Lookup(b); !inReg {
				owner := fs.ownerOf(in, ref, idx)
				if err := fs.X.Insert(e, owner, udf.Extent{Start: int64(b), Count: 1, Type: int64(fs.DataT)}); err != nil {
					return n, err
				}
			}
			if err := fs.X.Read(e, []disk.BlockNo{b}, nil); err != nil {
				return n, err
			}
		}
		data := fs.X.PageData(b)
		lo := int64(0)
		if idx == first {
			lo = off % sim.DiskBlockSize
		}
		hi := int64(sim.DiskBlockSize)
		if rem := off + int64(len(buf)) - int64(idx)*sim.DiskBlockSize; rem < hi {
			hi = rem
		}
		n += copy(buf[n:], data[lo:hi])
	}
	e.Use(sim.CopyCost(n))
	fs.X.K.Stats.Add(sim.CtrBytesCopied, int64(n))
	return n, nil
}

// extendDirect records a new or extended direct extent in the inode.
// Returns false if no direct slot can take it.
func extendDirect(in Inode, start disk.BlockNo, count uint32) (Inode, bool) {
	for i := 0; i < DirectExtents; i++ {
		ext := in.Ext[i]
		if ext.Count > 0 && ext.Start+uint64(ext.Count) == uint64(start) {
			in.Ext[i].Count += count
			return in, true
		}
		if ext.Count == 0 {
			in.Ext[i] = Extent{Start: uint64(start), Count: count}
			return in, true
		}
	}
	return in, false
}

// growFile allocates `need` more blocks for the file, co-locating near
// the directory (or after the last extent) per policy. Returns the
// updated inode.
func (fs *FS) growFile(e *kernel.Env, ref Ref, in Inode, need uint32) (Inode, error) {
	for need > 0 {
		// Refresh the slot image: earlier loop iterations (and any
		// sharer) may have changed it.
		in = DecodeSlot(fs.dirData(ref.Dir), ref.Slot)
		var extBuf [DirectExtents]Extent
		exts, err := fs.appendExtents(e, extBuf[:0], ref)
		if err != nil {
			return in, err
		}
		// Pick a target: extend the tail, or start near the directory
		// (C-FFS) / at the roaming cursor (FFS profile).
		var hint disk.BlockNo
		if len(exts) > 0 {
			tail := exts[len(exts)-1]
			hint = disk.BlockNo(tail.Start + uint64(tail.Count))
		} else if fs.Cfg.Colocate {
			hint = ref.Dir + 1
		} else {
			hint = fs.dataCursor
			fs.dataCursor += 64
			if int64(fs.dataCursor) >= fs.X.D.NumBlocks()-64 {
				fs.dataCursor = fs.Root + 512
			}
		}
		start, ok := fs.X.FindFree(hint, 1)
		if !ok {
			return in, xn.ErrNotFree
		}
		// How long a contiguous run can we take from here?
		run := uint32(1)
		for run < need && fs.X.IsFree(start+disk.BlockNo(run)) {
			run++
		}

		if ni, ok := extendDirect(in, start, run); ok {
			var img [SlotSize]byte
			if err := fs.X.Alloc(e, ref.Dir,
				[]xn.Mod{{Off: SlotOff(ref.Slot), Bytes: encodeSlotInto(img[:], ni, ni.Name)}},
				udf.Extent{Start: int64(start), Count: int64(run), Type: int64(fs.DataT)}); err != nil {
				return in, err
			}
		} else {
			// Spill to the indirect block.
			if in.Ind == 0 {
				ib, ok := fs.X.FindFree(start+disk.BlockNo(run), 1)
				if !ok {
					return in, xn.ErrNotFree
				}
				ni := in
				ni.Ind = uint64(ib)
				var img [SlotSize]byte
				if err := fs.X.Alloc(e, ref.Dir,
					[]xn.Mod{{Off: SlotOff(ref.Slot), Bytes: encodeSlotInto(img[:], ni, ni.Name)}},
					udf.Extent{Start: int64(ib), Count: 1, Type: int64(fs.IndT)}); err != nil {
					return in, err
				}
				zero := make([]byte, 8)
				if err := fs.X.InitMetadata(e, ib, zero); err != nil {
					return in, err
				}
				in = ni
			}
			ind := disk.BlockNo(in.Ind)
			if err := fs.ensureIndCached(e, ref, ind); err != nil {
				return in, err
			}
			table := decodeIndirect(fs.X.PageData(ind))
			// Merge with the last entry when contiguous.
			if n := len(table); n > 0 && table[n-1].Start+uint64(table[n-1].Count) == uint64(start) {
				var cnt [4]byte
				binary.LittleEndian.PutUint32(cnt[:], table[n-1].Count+run)
				off := IndEntriesOff + (n-1)*IndEntrySize + 8
				if err := fs.X.Alloc(e, ind, []xn.Mod{{Off: off, Bytes: cnt[:]}},
					udf.Extent{Start: int64(start), Count: int64(run), Type: int64(fs.DataT)}); err != nil {
					return in, err
				}
			} else {
				if len(table) >= IndMaxEntries {
					return in, ErrFileLimit
				}
				var entry [IndEntrySize]byte
				binary.LittleEndian.PutUint64(entry[0:], uint64(start))
				binary.LittleEndian.PutUint32(entry[8:], run)
				var cnt [4]byte
				binary.LittleEndian.PutUint32(cnt[:], uint32(len(table)+1))
				mods := []xn.Mod{
					{Off: IndEntriesOff + len(table)*IndEntrySize, Bytes: entry[:]},
					{Off: 0, Bytes: cnt[:]},
				}
				if err := fs.X.Alloc(e, ind, mods,
					udf.Extent{Start: int64(start), Count: int64(run), Type: int64(fs.DataT)}); err != nil {
					return in, err
				}
			}
		}
		need -= run
	}
	return DecodeSlot(fs.dirData(ref.Dir), ref.Slot), nil
}

// Preallocate grows the file to hold size bytes (allocating blocks
// with the usual co-location policy) and records the size, without
// writing any data — the XCP path that overlaps allocation with reads.
func (fs *FS) Preallocate(e *kernel.Env, ref Ref, size int64) error {
	e.LibCall(100)
	if err := fs.ensureDir(e, ref.Dir, xn.NoParent); err != nil {
		return err
	}
	in := DecodeSlot(fs.dirData(ref.Dir), ref.Slot)
	if !in.Used || in.Kind != KindFile {
		return ErrNotFound
	}
	exts, err := fs.FileExtents(e, ref)
	if err != nil {
		return err
	}
	want := uint32((size + sim.DiskBlockSize - 1) / sim.DiskBlockSize)
	if have := blockCount(exts); want > have {
		if in, err = fs.growFile(e, ref, in, want-have); err != nil {
			return err
		}
	}
	if int64(in.Size) < size {
		in.Size = uint32(size)
		var img [SlotSize]byte
		if err := fs.X.Modify(e, ref.Dir, []xn.Mod{{Off: SlotOff(ref.Slot), Bytes: encodeSlotInto(img[:], in, in.Name)}}); err != nil {
			return err
		}
	}
	return nil
}

// WriteAt writes data at offset off, allocating blocks as needed, and
// updates size and mtime ("modification times are updated when file
// data are changed" — C-FFS implicit updates, Section 4.5).
func (fs *FS) WriteAt(e *kernel.Env, ref Ref, off int64, data []byte) (int, error) {
	e.LibCall(100)
	if off < 0 {
		return 0, ErrInvalOp
	}
	if len(data) == 0 {
		return 0, nil
	}
	in, err := fs.refSlot(e, ref)
	if err != nil {
		return 0, err
	}
	// The slot's name as of this decode, for the size/mtime re-encode
	// at the end, copied rather than made a string.
	var nameBuf [MaxNameLen]byte
	name := append(nameBuf[:0], slotName(fs.dirData(ref.Dir), ref.Slot)...)
	if in.Kind != KindFile {
		return 0, ErrIsDir
	}
	end := off + int64(len(data))
	if end > int64(IndMaxEntries+DirectExtents)*sim.DiskBlockSize*64 {
		return 0, ErrFileLimit
	}

	var extBuf [DirectExtents]Extent
	exts, err := fs.appendExtents(e, extBuf[:0], ref)
	if err != nil {
		return 0, err
	}
	have := blockCount(exts)
	wantBlocks := uint32((end + sim.DiskBlockSize - 1) / sim.DiskBlockSize)
	if wantBlocks > have {
		in, err = fs.growFile(e, ref, in, wantBlocks-have)
		if err != nil {
			return 0, err
		}
		name = append(nameBuf[:0], in.Name...)
		exts, err = fs.appendExtents(e, extBuf[:0], ref)
		if err != nil {
			return 0, err
		}
		// Blocks this grow allocated that the copy loop below will not
		// touch are file holes. Their on-disk content is garbage:
		// attach zero pages and mark them dirty so reads see the UNIX
		// zeros contract and the next sync initializes them on disk —
		// untainting the metadata that points at them (XN refuses to
		// persist pointers to uninitialized blocks).
		for idx := have; idx < uint32(off/sim.DiskBlockSize); idx++ {
			b, ok := blockAt(exts, idx)
			if !ok {
				return 0, fmt.Errorf("cffs: missing block %d after grow", idx)
			}
			if en, inReg := fs.X.Lookup(b); inReg && en.State == xn.StateResident {
				continue
			}
			if _, err := fs.X.AttachPage(e, b); err != nil {
				return 0, err
			}
			if err := fs.X.MarkDirty(e, b); err != nil {
				return 0, err
			}
		}
	}

	first := uint32(off / sim.DiskBlockSize)
	last := uint32((end - 1) / sim.DiskBlockSize)
	n := 0
	for idx := first; idx <= last; idx++ {
		b, ok := blockAt(exts, idx)
		if !ok {
			return n, fmt.Errorf("cffs: missing block %d after grow", idx)
		}
		lo := int64(0)
		if idx == first {
			lo = off % sim.DiskBlockSize
		}
		hi := int64(sim.DiskBlockSize)
		if rem := end - int64(idx)*sim.DiskBlockSize; rem < hi {
			hi = rem
		}
		fullBlock := lo == 0 && hi == sim.DiskBlockSize

		en, inReg := fs.X.Lookup(b)
		switch {
		case inReg && en.State == xn.StateResident:
			// cached: write through the mapping
		case inReg && en.Uninit:
			if _, err := fs.X.AttachPage(e, b); err != nil {
				return n, err
			}
		case fullBlock:
			// Full overwrite of an uncached block: no read needed.
			if !inReg {
				owner := fs.ownerOf(in, ref, idx)
				if err := fs.X.Insert(e, owner, udf.Extent{Start: int64(b), Count: 1, Type: int64(fs.DataT)}); err != nil {
					return n, err
				}
			}
			if _, err := fs.X.AttachPage(e, b); err != nil {
				return n, err
			}
		default:
			// Partial overwrite: read-modify-write.
			if !inReg {
				owner := fs.ownerOf(in, ref, idx)
				if err := fs.X.Insert(e, owner, udf.Extent{Start: int64(b), Count: 1, Type: int64(fs.DataT)}); err != nil {
					return n, err
				}
			}
			if err := fs.X.Read(e, []disk.BlockNo{b}, nil); err != nil {
				return n, err
			}
		}
		page := fs.X.PageData(b)
		n += copy(page[lo:hi], data[n:])
		if err := fs.X.MarkDirty(e, b); err != nil {
			return n, err
		}
	}
	e.Use(sim.CopyCost(n))
	fs.X.K.Stats.Add(sim.CtrBytesCopied, int64(n))

	// Implicit size/mtime update.
	if end > int64(in.Size) {
		in.Size = uint32(end)
	}
	in.MTime = uint32(fs.X.K.Now().Seconds())
	var img [SlotSize]byte
	if err := fs.X.Modify(e, ref.Dir, []xn.Mod{{Off: SlotOff(ref.Slot), Bytes: encodeSlotInto(img[:], in, name)}}); err != nil {
		return n, err
	}
	return n, nil
}

// Unlink removes a file and deallocates its blocks (indirect contents
// first, then the indirect block, then the direct extents, then the
// slot).
func (fs *FS) Unlink(e *kernel.Env, path string) error {
	ref, in, err := fs.LookupNoFollow(e, path) // unlink removes the link itself
	if err != nil {
		return err
	}
	if in.Kind == KindDir {
		return ErrIsDir
	}
	if in.Ind != 0 {
		ind := disk.BlockNo(in.Ind)
		if err := fs.ensureIndCached(e, ref, ind); err != nil {
			return err
		}
		table := decodeIndirect(fs.X.PageData(ind))
		for i := len(table) - 1; i >= 0; i-- {
			var cnt [4]byte
			binary.LittleEndian.PutUint32(cnt[:], uint32(i))
			if err := fs.X.Dealloc(e, ind, []xn.Mod{{Off: 0, Bytes: cnt[:]}},
				udf.Extent{Start: int64(table[i].Start), Count: int64(table[i].Count), Type: int64(fs.DataT)}); err != nil {
				return err
			}
		}
		ni := in
		ni.Ind = 0
		var img [SlotSize]byte
		if err := fs.X.Dealloc(e, ref.Dir,
			[]xn.Mod{{Off: SlotOff(ref.Slot), Bytes: encodeSlotInto(img[:], ni, ni.Name)}},
			udf.Extent{Start: int64(ind), Count: 1, Type: int64(fs.IndT)}); err != nil {
			return err
		}
		in = ni
	}
	for i := DirectExtents - 1; i >= 0; i-- {
		if in.Ext[i].Count == 0 {
			continue
		}
		ext := in.Ext[i]
		ni := in
		ni.Ext[i] = Extent{}
		var img [SlotSize]byte
		if err := fs.X.Dealloc(e, ref.Dir,
			[]xn.Mod{{Off: SlotOff(ref.Slot), Bytes: encodeSlotInto(img[:], ni, ni.Name)}},
			udf.Extent{Start: int64(ext.Start), Count: int64(ext.Count), Type: int64(fs.DataT)}); err != nil {
			return err
		}
		in = ni
	}
	var zero [SlotSize]byte
	if err := fs.X.Modify(e, ref.Dir,
		[]xn.Mod{{Off: SlotOff(ref.Slot), Bytes: zero[:]}}); err != nil {
		return err
	}
	delete(fs.nameCache, path) // implicit name-cache update
	fs.touchItable(e, ref, true)
	fs.syncMeta(e, ref.Dir)
	return nil
}

// Rmdir removes an empty directory.
func (fs *FS) Rmdir(e *kernel.Env, path string) error {
	ref, in, err := fs.LookupNoFollow(e, path) // a link to a dir is ENOTDIR
	if err != nil {
		return err
	}
	if in.Kind != KindDir {
		return ErrNotDir
	}
	head := disk.BlockNo(in.Ext[0].Start)
	// Walk the chain: every block must be slot-free.
	var chain []disk.BlockNo
	blk, par := head, ref.Dir
	for {
		if err := fs.ensureDir(e, blk, par); err != nil {
			return err
		}
		chain = append(chain, blk)
		data := fs.dirData(blk)
		for i := 0; i < SlotsPerBlock; i++ {
			if data[SlotOff(i)] != 0 {
				return ErrNotEmpty
			}
		}
		next := DirNext(data)
		if next == 0 {
			break
		}
		par = blk
		blk = disk.BlockNo(next)
	}
	// Release continuation blocks tail-first (each owned by its
	// predecessor), then the head from the parent slot.
	for i := len(chain) - 1; i >= 1; i-- {
		zero := make([]byte, 8)
		if err := fs.X.Dealloc(e, chain[i-1], []xn.Mod{{Off: hoNext, Bytes: zero}},
			udf.Extent{Start: int64(chain[i]), Count: 1, Type: int64(fs.DirT)}); err != nil {
			return err
		}
	}
	ni := in
	ni.Ext[0] = Extent{}
	ni.Used = false
	ni.Name = ""
	ni.Kind = 0
	var img [SlotSize]byte
	if err := fs.X.Dealloc(e, ref.Dir,
		[]xn.Mod{{Off: SlotOff(ref.Slot), Bytes: encodeSlotInto(img[:], ni, ni.Name)}},
		udf.Extent{Start: int64(head), Count: 1, Type: int64(fs.DirT)}); err != nil {
		return err
	}
	delete(fs.nameCache, path)
	fs.touchItable(e, ref, true)
	fs.syncMeta(e, ref.Dir)
	return nil
}
