package disk

import "xok/internal/bufpool"

// Copy-on-write snapshot support. Checkpoint freezes the live media
// overlay into an immutable layer; the disk (and any disk forked from
// the checkpoint via Adopt) continues on an empty overlay chained over
// it. Reads fall through the chain; the first write to a frozen block
// copies it up into the live overlay (see writeMedia). Taking a
// checkpoint is O(1) in media size, and a fork that writes nothing
// copies nothing.

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
