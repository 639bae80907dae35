// Package disk models the machine's SCSI disk: a Quantum Atlas
// XP32150-like drive (7200 rpm, ~8 ms average seek, ~10 MB/s media
// rate) behind an NCR 815-style controller with a driver queue.
//
// The model captures exactly the properties the paper's results depend
// on:
//
//   - positional timing: a request pays controller overhead, a
//     distance-dependent seek, half-rotation latency, and per-block
//     transfer time — except that a request starting where the previous
//     one ended is sequential and pays transfer time only. This is what
//     rewards C-FFS's co-location and XCP's sorted schedules.
//   - a driver queue with CSCAN ordering and contiguity detection:
//     "if multiple instances of XCP run concurrently, the disk driver
//     will merge the schedules" (Section 7.2).
//   - DMA: data moves between disk and memory pages without consuming
//     simulated CPU (the CPU cost of copies is charged by whoever
//     touches the data, not by the disk).
//
// All completion is delivered through the event engine, so disk I/O is
// fully deterministic.
package disk

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strconv"

	"xok/internal/bufpool"
	"xok/internal/fault"
	"xok/internal/sim"
	"xok/internal/trace"
)

// BlockNo names a physical disk block (4 KB). Physical names are used
// throughout — the exokernel way.
type BlockNo int64

// Request is one I/O: Count contiguous blocks starting at Block.
// For reads, Pages receives the data; for writes, Pages supplies it.
// Done fires at completion-interrupt time.
type Request struct {
	Write bool
	Block BlockNo
	Count int
	Pages [][]byte // one 4-KB slice per block; may be nil (timing-only I/O)
	Done  func(*Request)

	// Err carries a media error to the completion callback: the drive
	// serviced the request but could not read the sectors
	// (fault.ErrMedia, injected by an attached fault plan). Writes
	// never fail this way; a dying write is modelled as a torn write in
	// the crash image instead.
	Err error

	pos      BlockNo // physical position on its spindle, set when queued
	queuedAt sim.Time
	svcStart sim.Time // when the spindle began servicing this request
	seekT    sim.Time // seek component of the service time
	rotT     sim.Time // rotational-latency component

	// Completion routing for the allocation-free timer path: set by
	// startNext so the package-level completeArg callback can find its
	// way back without a per-request closure.
	svcDisk *Disk
	svcSp   *spindle
}

// spindle is one physical drive: its own head, queue and service
// loop. A single-spindle Disk is the paper's configuration; striped
// configurations (RAID-0, Section 4.6's "range of file systems ...
// RAID") fan logical blocks across several spindles.
type spindle struct {
	idx  int
	head BlockNo
	busy bool
	// queue holds the waiting requests in service order: by physical
	// position (arrival order among equal positions) for CSCAN, or in
	// arrival order when fifo. fifo is the discipline the queue was
	// filled under; it is fixed while the queue is non-empty.
	queue []*Request
	fifo  bool
	cur   *Request // the request in service (CrashImage's torn writes)
}

// Disk is the drive (or striped drive set) plus its driver queues.
type Disk struct {
	eng     *sim.Engine
	stats   *sim.Stats
	nblocks int64

	spindles   []spindle
	stripeUnit int64 // blocks per stripe unit (striped configs)

	// FIFO disables the driver's CSCAN sorting and services requests
	// in arrival order — an ablation knob for measuring what the
	// scheduler is worth (the bench ablations use it). Set it before
	// the first Submit: each spindle's queue is kept in the order of
	// the mode it was filled under, and the driver panics if FIFO
	// changes while requests are queued.
	FIFO bool

	tr    *trace.Tracer // span/histogram sink; nil = tracing off
	trPID int64

	faults *fault.Plan // fault plan; nil = no injection

	store map[BlockNo][]byte // live (mutable) media overlay, allocated lazily
	base  *cowLayer          // frozen snapshot layers under the overlay; nil = none
	// cowCopies counts blocks copied up from frozen layers on first
	// post-fork write — the "fork is O(state actually written)" number
	// the snapshot test suite gates on.
	cowCopies int64
}

// Option configures a Disk at construction (functional options).
type Option func(*Disk)

// WithStriping builds the disk as a RAID-0 set: the logical space
// striped across n spindles in stripeUnit-block units (default 16).
// The logical block interface is unchanged; requests are split at
// stripe boundaries and serviced by the owning spindles in parallel
// (Section 4.6's "range of file systems ... RAID").
func WithStriping(n int, stripeUnit int64) Option {
	return func(d *Disk) {
		if n < 1 {
			n = 1
		}
		if stripeUnit < 1 {
			stripeUnit = 16
		}
		d.spindles = make([]spindle, n)
		for i := range d.spindles {
			d.spindles[i].idx = i
		}
		d.stripeUnit = stripeUnit
	}
}

// WithFaults attaches a fault plan: read media errors (Request.Err)
// and torn writes in CrashImage. A nil plan is the default — no
// injection, one nil check per request.
func WithFaults(p *fault.Plan) Option {
	return func(d *Disk) { d.faults = p }
}

// WithTrace attaches a tracer at construction: each spindle becomes a
// trace lane and every request gets queue and service spans plus
// latency-histogram samples. Option order does not matter — lanes are
// named once the spindle count is final.
func WithTrace(tr *trace.Tracer, pid int64) Option {
	return func(d *Disk) {
		d.tr = tr
		d.trPID = pid
	}
}

// New returns a disk with nblocks 4-KB blocks: a single spindle unless
// WithStriping says otherwise, silent unless WithTrace, fault-free
// unless WithFaults.
func New(eng *sim.Engine, stats *sim.Stats, nblocks int64, opts ...Option) *Disk {
	d := &Disk{
		eng:        eng,
		stats:      stats,
		nblocks:    nblocks,
		spindles:   make([]spindle, 1),
		stripeUnit: nblocks,
		store:      make(map[BlockNo][]byte),
	}
	for _, opt := range opts {
		opt(d)
	}
	if d.tr.Enabled() {
		d.SetTrace(d.tr, d.trPID)
	}
	return d
}

// SetTrace attaches a tracer after construction (prefer WithTrace). A
// nil tracer turns tracing off.
func (d *Disk) SetTrace(tr *trace.Tracer, pid int64) {
	d.tr = tr
	d.trPID = pid
	if tr.Enabled() {
		for i := range d.spindles {
			tr.NameLane(pid, d.laneOf(i), fmt.Sprintf("disk spindle %d", i))
		}
	}
}

// laneOf maps a spindle index to its trace lane (TID). Lanes 1..n are
// the spindles; the kernel's environments use 100+.
func (d *Disk) laneOf(spindle int) int64 { return int64(1 + spindle) }

// Spindles reports the number of physical drives in the set.
func (d *Disk) Spindles() int { return len(d.spindles) }

// spindleOf maps a logical block to its owning spindle.
func (d *Disk) spindleOf(b BlockNo) int {
	return int((int64(b) / d.stripeUnit) % int64(len(d.spindles)))
}

// physOf maps a logical block to its position on the owning spindle's
// platter (consecutive stripe units interleave across spindles but are
// contiguous within each one).
func (d *Disk) physOf(b BlockNo) BlockNo {
	n := int64(len(d.spindles))
	return BlockNo((int64(b)/(d.stripeUnit*n))*d.stripeUnit + int64(b)%d.stripeUnit)
}

// NumBlocks returns the media size in blocks.
func (d *Disk) NumBlocks() int64 { return d.nblocks }

// QueueLen reports how many requests are waiting (excluding those in
// service). Exposed information.
func (d *Disk) QueueLen() int {
	n := 0
	for i := range d.spindles {
		n += len(d.spindles[i].queue)
	}
	return n
}

// Submit queues a request. The driver keeps the queue in CSCAN order,
// so large schedules submitted together are serviced in near-optimal
// order.
func (d *Disk) Submit(r *Request) {
	if r.Count <= 0 {
		panic("disk: request with non-positive count")
	}
	if r.Block < 0 || int64(r.Block)+int64(r.Count) > d.nblocks {
		panic(fmt.Sprintf("disk: request [%d,+%d) outside media", r.Block, r.Count))
	}
	if r.Pages != nil && len(r.Pages) != r.Count {
		panic("disk: Pages length does not match Count")
	}
	r.queuedAt = d.eng.Now()
	if d.stats != nil {
		if r.Write {
			d.stats.Add(sim.CtrDiskWrites, int64(r.Count))
		} else {
			d.stats.Add(sim.CtrDiskReads, int64(r.Count))
		}
	}
	// Split at stripe boundaries; each piece goes to its spindle. The
	// original Done fires when the last piece completes.
	pieces := d.split(r)
	for _, pc := range pieces {
		sp := &d.spindles[d.spindleOf(pc.Block)]
		d.enqueue(sp, pc)
		if !sp.busy {
			d.startNext(sp)
		}
	}
}

// split cuts a request at stripe-unit boundaries, wiring a countdown
// completion so the caller sees one Done.
func (d *Disk) split(r *Request) []*Request {
	if len(d.spindles) == 1 {
		return []*Request{r}
	}
	var pieces []*Request
	b := r.Block
	remaining := r.Count
	idx := 0
	for remaining > 0 {
		unitEnd := (int64(b)/d.stripeUnit + 1) * d.stripeUnit
		n := int(unitEnd - int64(b))
		if n > remaining {
			n = remaining
		}
		var pages [][]byte
		if r.Pages != nil {
			pages = r.Pages[idx : idx+n]
		}
		pieces = append(pieces, &Request{
			Write: r.Write, Block: b, Count: n, Pages: pages,
			queuedAt: r.queuedAt,
		})
		b += BlockNo(n)
		idx += n
		remaining -= n
	}
	if len(pieces) == 1 {
		pieces[0].Done = r.Done
		return pieces
	}
	outstanding := len(pieces)
	for _, pc := range pieces {
		pc.Done = func(done *Request) {
			if done.Err != nil && r.Err == nil {
				r.Err = done.Err // first piece error wins
			}
			outstanding--
			if outstanding == 0 && r.Done != nil {
				r.Done(r)
			}
		}
	}
	return pieces
}

// enqueue adds r to sp's queue in service order. In CSCAN mode that is
// by physical position, after any request already queued at the same
// position: exactly the order a stable sort of the arrival sequence
// gives. Positions are spindle-local and *physical* (physOf), like the
// head: logical block numbers interleave across spindles and are ~n
// times larger than any physical position, so an elevator comparing
// them with the head would pick requests behind it on a striped set.
func (d *Disk) enqueue(sp *spindle, r *Request) {
	if len(sp.queue) == 0 {
		sp.fifo = d.FIFO
	}
	r.pos = d.physOf(r.Block)
	i := len(sp.queue)
	if !sp.fifo {
		i = sort.Search(len(sp.queue), func(i int) bool { return sp.queue[i].pos > r.pos })
	}
	sp.queue = slices.Insert(sp.queue, i, r)
}

// pickNext removes and returns the CSCAN-next request for a spindle:
// the lowest position at or beyond the head, wrapping to the lowest
// overall (the head of the queue in FIFO mode).
func (d *Disk) pickNext(sp *spindle) *Request {
	if len(sp.queue) == 0 {
		return nil
	}
	if sp.fifo != d.FIFO {
		panic("disk: FIFO changed while requests were queued; set it before the first Submit")
	}
	i := 0
	if !sp.fifo {
		i = sort.Search(len(sp.queue), func(i int) bool { return sp.queue[i].pos >= sp.head })
		if i == len(sp.queue) {
			i = 0 // wrap
		}
	}
	r := sp.queue[i]
	sp.queue = slices.Delete(sp.queue, i, i+1)
	return r
}

// serviceTime computes the positional cost of r given a spindle's
// head (positions in spindle-local physical space). The seek and
// rotation components are recorded on the request so completion spans
// can attribute them.
func (d *Disk) serviceTime(sp *spindle, r *Request) sim.Time {
	t := sim.DiskControllerOverhead
	r.seekT, r.rotT = 0, 0
	pos := d.physOf(r.Block)
	if pos != sp.head {
		dist := int64(pos - sp.head)
		if dist < 0 {
			dist = -dist
		}
		// The seek curve is calibrated against one *platter*: each
		// spindle of a striped set holds nblocks/n of the logical
		// space. (Calibrating against the total used to make every
		// spindle behave as if its platter were n times its real size,
		// systematically underestimating seeks on striped sets.)
		r.seekT = seekTime(dist, d.spindleBlocks())
		r.rotT = sim.DiskRotationPeriod / 2 // average rotational latency
		t += r.seekT + r.rotT
		if d.stats != nil {
			d.stats.Inc(sim.CtrDiskSeeks)
		}
	}
	t += sim.DiskTransferPerBlock * sim.Time(r.Count)
	return t
}

// spindleBlocks is the capacity of one physical drive in the set.
func (d *Disk) spindleBlocks() int64 {
	per := d.nblocks / int64(len(d.spindles))
	if per < 1 {
		per = 1
	}
	return per
}

// seekTime is the classic a + b*sqrt(distance) seek curve, calibrated
// so the one-third-stroke seek is DiskSeekAvg.
func seekTime(distBlocks, nblocks int64) sim.Time {
	if distBlocks == 0 {
		return 0
	}
	frac := math.Sqrt(float64(distBlocks) / (float64(nblocks) / 3))
	if frac > 1.8 {
		frac = 1.8 // full-stroke cap
	}
	return sim.DiskSeekMin + sim.Time(float64(sim.DiskSeekAvg-sim.DiskSeekMin)*frac)
}

func (d *Disk) startNext(sp *spindle) {
	r := d.pickNext(sp)
	if r == nil {
		sp.busy = false
		sp.cur = nil
		return
	}
	sp.busy = true
	sp.cur = r
	r.svcStart = d.eng.Now()
	t := d.serviceTime(sp, r)
	r.svcDisk, r.svcSp = d, sp
	d.eng.AfterArg(t, completeArg, r)
}

// completeArg is the completion timer callback in sim.Engine's
// allocation-free AfterArg form (disk transfers are the simulator's
// highest-volume timer source after the scheduler).
func completeArg(a any) {
	r := a.(*Request)
	r.svcDisk.complete(r.svcSp, r)
}

func (d *Disk) complete(sp *spindle, r *Request) {
	sp.cur = nil
	if !r.Write && d.faults.ReadError() {
		// The drive could not read the sectors: no data transfers, the
		// completion carries the error.
		r.Err = fault.ErrMedia
	}
	// DMA the data at completion time.
	for i := 0; r.Err == nil && i < r.Count; i++ {
		b := r.Block + BlockNo(i)
		if r.Write {
			if r.Pages != nil {
				d.writeMedia(b, r.Pages[i])
			}
		} else if r.Pages != nil {
			blk, ok := d.lookup(b)
			if ok {
				copy(r.Pages[i], blk)
			} else {
				for j := range r.Pages[i] {
					r.Pages[i][j] = 0
				}
			}
		}
	}
	if r.Write {
		// Report the synchronous-write boundary to the fault plan's
		// observer (the crash-enumeration harness collects these).
		d.faults.NoteWrite(d.eng.Now(), int64(r.Block), r.Count)
	}
	sp.head = d.physOf(r.Block) + BlockNo(r.Count)
	if d.tr.Enabled() {
		d.traceRequest(sp, r)
	}
	done := r.Done
	d.startNext(sp) // keep the spindle busy before running the callback
	if done != nil {
		done(r)
	}
}

// traceRequest emits the queue and service spans for a completed
// request, with the positional breakdown (seek vs. rotation vs.
// transfer) as span args, and feeds the latency histograms.
func (d *Disk) traceRequest(sp *spindle, r *Request) {
	now := d.eng.Now()
	lane := d.laneOf(sp.idx)
	op := "read"
	if r.Write {
		op = "write"
	}
	if r.svcStart > r.queuedAt {
		d.tr.Span(d.trPID, lane, "disk", "queue", r.queuedAt, r.svcStart,
			trace.Arg{Key: "block", Val: strconv.FormatInt(int64(r.Block), 10)})
	}
	d.tr.Span(d.trPID, lane, "disk", op, r.svcStart, now,
		trace.Arg{Key: "block", Val: strconv.FormatInt(int64(r.Block), 10)},
		trace.Arg{Key: "count", Val: strconv.Itoa(r.Count)},
		trace.Arg{Key: "seek", Val: r.seekT.String()},
		trace.Arg{Key: "rotation", Val: r.rotT.String()},
		trace.Arg{Key: "transfer", Val: (sim.DiskTransferPerBlock * sim.Time(r.Count)).String()})
	d.tr.Observe(d.trPID, "disk.queue", r.svcStart-r.queuedAt)
	d.tr.Observe(d.trPID, "disk.service", now-r.svcStart)
	if r.seekT > 0 {
		d.tr.Observe(d.trPID, "disk.seek", r.seekT)
	}
}

// lookup finds block b's current media contents: the live overlay
// first, then the frozen snapshot layers, newest first. The returned
// slice may alias a frozen (shared, read-only) buffer.
func (d *Disk) lookup(b BlockNo) ([]byte, bool) {
	if blk, ok := d.store[b]; ok {
		return blk, true
	}
	return d.frozenBlock(b)
}

// frozenBlock finds block b in the frozen snapshot layers, newest
// first.
func (d *Disk) frozenBlock(b BlockNo) ([]byte, bool) {
	for l := d.base; l != nil; l = l.parent {
		if blk, ok := l.store[b]; ok {
			return blk, true
		}
	}
	return nil, false
}

// writeMedia copies data over the start of block b in the live
// overlay. A block whose current contents live in a frozen layer is
// copied up first (the copy-on-write in "COW disk image"); a block
// never written anywhere materializes zeroed past data, so a
// whole-block write clears nothing.
func (d *Disk) writeMedia(b BlockNo, data []byte) {
	blk, ok := d.store[b]
	if !ok {
		blk = bufpool.GetDirty()
		if old, frozen := d.frozenBlock(b); frozen {
			copy(blk, old)
			d.cowCopies++
		} else {
			clear(blk[min(len(data), len(blk)):])
		}
		d.store[b] = blk
	}
	copy(blk, data)
}

// PeekBlock returns the media contents of block b without timing (test
// and crash-recovery support; the "crashed machine's" disk is read this
// way when simulating reboot).
func (d *Disk) PeekBlock(b BlockNo) []byte {
	out := make([]byte, sim.DiskBlockSize)
	if blk, ok := d.lookup(b); ok {
		copy(out, blk)
	}
	return out
}

// zeroBlock is the all-zero media a never-written block reads as.
// Callers of ViewBlock receive it read-only.
var zeroBlock [sim.DiskBlockSize]byte

// ViewBlock returns the media contents of block b without timing and
// without copying. The slice aliases the live media (or a shared
// all-zero block if b was never written): callers must treat it as
// read-only and must not hold it across media writes. Recovery-time
// scans (XN's reachability GC reads every reachable block) use this to
// avoid a 4-KB copy per block; everything else should PeekBlock.
func (d *Disk) ViewBlock(b BlockNo) []byte {
	if blk, ok := d.lookup(b); ok {
		return blk
	}
	return zeroBlock[:]
}

// PokeBlock writes media contents directly (mkfs-style initialization
// without timing).
func (d *Disk) PokeBlock(b BlockNo, data []byte) {
	d.writeMedia(b, data)
}

// Image is a disk's media contents at one instant — what Snapshot and
// CrashImage return and Restore transplants into a fresh machine.
type Image = map[BlockNo][]byte

// Snapshot deep-copies the media contents at this instant. Requests
// still in the driver queue are NOT reflected — exactly the state a
// power failure would leave. Crash tests transplant the snapshot into
// a fresh machine with Restore.
func (d *Disk) Snapshot() Image {
	// Flatten the frozen layers (deepest first, so newer layers win)
	// under the live overlay into one self-contained image.
	var layers []*cowLayer
	for l := d.base; l != nil; l = l.parent {
		layers = append(layers, l)
	}
	out := make(Image, len(d.store))
	put := func(b BlockNo, blk []byte) {
		cp, ok := out[b]
		if !ok {
			cp = bufpool.GetDirty()[:len(blk)]
			out[b] = cp
		}
		copy(cp, blk)
	}
	for i := len(layers) - 1; i >= 0; i-- {
		for b, blk := range layers[i].store {
			put(b, blk)
		}
	}
	for b, blk := range d.store {
		put(b, blk)
	}
	return out
}

// CrashImage is the media contents a power failure at this instant
// would leave. Without a fault plan (or with TornWrites off) it equals
// Snapshot: queued and in-flight requests vanish, media is whole-block
// consistent. With TornWrites armed, a write that is mid-transfer has
// its already-transferred whole blocks applied, plus the transferred
// byte prefix of the block under the head — the torn-write case
// recovery code must survive.
func (d *Disk) CrashImage() Image {
	img := d.Snapshot()
	if !d.faults.Torn() {
		return img
	}
	now := d.eng.Now()
	for i := range d.spindles {
		r := d.spindles[i].cur
		if r == nil || !r.Write || r.Pages == nil {
			continue
		}
		// Positioning (controller overhead, seek, rotation) precedes
		// any media transfer; only time past it moves data.
		pre := sim.DiskControllerOverhead + r.seekT + r.rotT
		elapsed := now - r.svcStart
		if elapsed <= pre {
			continue
		}
		xfer := elapsed - pre
		full := int(xfer / sim.DiskTransferPerBlock)
		if full > r.Count {
			full = r.Count
		}
		for j := 0; j < full; j++ {
			blk := bufpool.GetDirty()
			copy(blk, r.Pages[j])
			if old, ok := img[r.Block+BlockNo(j)]; ok {
				bufpool.Put(old)
			}
			img[r.Block+BlockNo(j)] = blk
		}
		if full < r.Count {
			frac := xfer - sim.Time(full)*sim.DiskTransferPerBlock
			nbytes := int(int64(frac) * sim.DiskBlockSize / int64(sim.DiskTransferPerBlock))
			if nbytes > 0 {
				b := r.Block + BlockNo(full)
				blk := bufpool.Get()
				if old, ok := img[b]; ok {
					copy(blk, old)
					bufpool.Put(old)
				}
				copy(blk[:nbytes], r.Pages[full])
				img[b] = blk
			}
		}
	}
	return img
}

// Restore replaces the media contents with a deep copy of a snapshot;
// the caller keeps ownership of snap.
func (d *Disk) Restore(snap Image) {
	for _, blk := range d.store {
		bufpool.Put(blk)
	}
	// A full media replacement supersedes any frozen layers; they stay
	// owned by (and are released through) their checkpoints.
	d.base = nil
	d.store = make(map[BlockNo][]byte, len(snap))
	for b, blk := range snap {
		cp := bufpool.GetDirty()[:len(blk)]
		copy(cp, blk)
		d.store[b] = cp
	}
}

// RestoreOwned is Restore without the copy: the disk takes ownership
// of snap and of every block buffer in it. The caller must not touch
// snap afterwards — the buffers are recycled by the next Restore or by
// Recycle. This is the crash-audit fast path: a crash image is
// transplanted into the audit machine exactly once and then discarded.
func (d *Disk) RestoreOwned(snap Image) {
	for _, blk := range d.store {
		bufpool.Put(blk)
	}
	d.base = nil
	d.store = snap
}

// Recycle returns every media block to the buffer pool and leaves the
// disk empty. Call only when the machine is finished for good:
// teardown-for-reuse, not an operation the simulation models.
// Frozen snapshot layers are not recycled here: their buffers belong
// to the checkpoints that froze them (Checkpoint.Release).
func (d *Disk) Recycle() {
	for _, blk := range d.store {
		bufpool.Put(blk)
	}
	d.store = nil
	d.base = nil
}

// RecycleImage returns a detached crash image's buffers to the pool —
// for callers that audited an image they own and are done with it.
func RecycleImage(img Image) {
	for _, blk := range img {
		bufpool.Put(blk)
	}
}
