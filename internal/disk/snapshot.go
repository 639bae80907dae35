package disk

import "xok/internal/bufpool"

// Copy-on-write snapshot support. Checkpoint freezes the live media
// overlay into an immutable layer; the disk (and any disk forked from
// the checkpoint via Adopt) continues on an empty overlay chained over
// it. Reads fall through the chain; the first write to a frozen block
// copies it up into the live overlay (see writeMedia). Taking a
// checkpoint is O(1) in media size, and a fork that writes nothing
// copies nothing. Crash freezes the media the same way, so a crashed
// fork hands its recovery audit the fork's own layers plus the blocks
// it wrote, not a flattened copy of the whole disk.

// cowLayer is one frozen media layer. Its block buffers are immutable
// and may be read concurrently by every machine forked from the
// checkpoint that froze it.
type cowLayer struct {
	store  map[BlockNo][]byte
	parent *cowLayer
}

// Checkpoint is frozen disk state: the media as a layer chain plus the
// per-spindle head positions and the scheduler mode. The checkpoint
// owns the buffers of the one layer it froze (earlier layers belong to
// earlier checkpoints); Release returns them to bufpool.
type Checkpoint struct {
	base  *cowLayer
	heads []BlockNo
	fifo  bool
}

// Checkpoint freezes the live overlay and returns the disk's snapshot
// state. Call only at quiescence (no request in service or queued —
// guaranteed when the engine has no pending events); in-flight
// requests are not captured. The disk keeps running afterwards on a
// fresh overlay, copying frozen blocks up on first write.
func (d *Disk) Checkpoint() *Checkpoint {
	l := &cowLayer{store: d.store, parent: d.base}
	d.base = l
	d.store = make(map[BlockNo][]byte)
	cp := &Checkpoint{base: l, fifo: d.FIFO, heads: make([]BlockNo, len(d.spindles))}
	for i := range d.spindles {
		cp.heads[i] = d.spindles[i].head
	}
	return cp
}

// Adopt attaches a freshly built disk (same geometry options as the
// checkpointed one) to a checkpoint: media reads resolve through the
// frozen layers and the arm positions continue where the snapshot left
// them. Safe to call for many forks of one checkpoint, concurrently —
// the frozen layers are only read.
func (d *Disk) Adopt(cp *Checkpoint) {
	if len(cp.heads) != len(d.spindles) {
		panic("disk: Adopt with mismatched spindle count")
	}
	d.base = cp.base
	d.FIFO = cp.fifo
	for i := range d.spindles {
		d.spindles[i].head = cp.heads[i]
	}
}

// Release returns the checkpoint's frozen layer to the buffer pool.
// Only legal once every disk chained over it (the checkpointed disk
// and all forks, plus any later checkpoints' forks) is done for good.
func (cp *Checkpoint) Release() {
	if cp.base == nil {
		return
	}
	for _, blk := range cp.base.store {
		bufpool.Put(blk)
	}
	cp.base.store = nil
	cp.base = nil
}

// CowCopies reports how many blocks this disk has copied up from
// frozen snapshot layers — zero for a fork that never wrote a
// snapshotted block.
func (d *Disk) CowCopies() int64 { return d.cowCopies }

// CrashImage is the media a power failure left (Disk.Crash): the
// crashed disk's live overlay frozen over its snapshot layers, plus the
// blocks that torn in-flight writes changed. It owns the buffers of
// the layer it froze and of the torn blocks; earlier layers belong to
// their checkpoints.
type CrashImage struct {
	base *cowLayer
	torn Image // torn-write blocks over base; nil without torn writes
}

// Crash freezes the media a power failure at this instant would leave:
// queued and in-flight requests vanish, so the media is whole-block
// consistent, unless the fault plan arms torn writes: then a write in
// mid-transfer has its already-transferred whole blocks applied, plus
// the transferred byte prefix of the block under the head — the
// torn-write case recovery code must survive. Like Checkpoint it is
// O(1) in media size, and the disk continues on an empty overlay.
func (d *Disk) Crash() *CrashImage {
	ci := &CrashImage{torn: d.tornWrites()}
	ci.base = &cowLayer{store: d.store, parent: d.base}
	d.base = ci.base
	d.store = make(map[BlockNo][]byte)
	return ci
}

// AdoptCrash attaches a freshly built disk to a crash image's media:
// reads resolve through its frozen layers and the torn blocks are
// copied into the live overlay. Only the media carries over; the arm
// positions and the queue are a fresh disk's. A crash image may be
// adopted any number of times, concurrently.
func (d *Disk) AdoptCrash(ci *CrashImage) {
	d.base = ci.base
	for b, blk := range ci.torn {
		cp := bufpool.GetDirty()
		copy(cp, blk)
		d.store[b] = cp
	}
}

// Flatten deep-copies the crash image's media into one self-contained
// Image: the flattened form the crash hand-off is tested against.
func (ci *CrashImage) Flatten() Image { return flatten(ci.base, ci.torn) }

// Release returns the buffers of the frozen layer and of the torn
// blocks to the buffer pool. Only legal once the crashed machine is
// closed and every disk that adopted the image is done for good.
func (ci *CrashImage) Release() {
	if ci.base != nil {
		for _, blk := range ci.base.store {
			bufpool.Put(blk)
		}
		ci.base.store = nil
		ci.base = nil
	}
	for _, blk := range ci.torn {
		bufpool.Put(blk)
	}
	ci.torn = nil
}
