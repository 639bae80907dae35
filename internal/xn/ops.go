package xn

import (
	"encoding/binary"
	"fmt"
	"sort"
	"sync"

	"xok/internal/cap"
	"xok/internal/disk"
	"xok/internal/fault"
	"xok/internal/kernel"
	"xok/internal/mem"
	"xok/internal/sim"
	"xok/internal/udf"
)

// Mod is one piece of a proposed metadata modification: "specified as a
// list of bytes to write into m" (Section 4.1).
type Mod struct {
	Off   int
	Bytes []byte
}

// applyMods writes the modification into data, checking bounds.
func applyMods(data []byte, mods []Mod) error {
	for _, m := range mods {
		if m.Off < 0 || m.Off+len(m.Bytes) > len(data) {
			return fmt.Errorf("xn: modification [%d,+%d) outside metadata", m.Off, len(m.Bytes))
		}
		copy(data[m.Off:], m.Bytes)
	}
	return nil
}

// appendModsAux appends the acl-uf serialization of a modification to
// dst: repeated (off:le32, len:le32, bytes).
func appendModsAux(dst []byte, mods []Mod) []byte {
	for _, m := range mods {
		dst = binary.LittleEndian.AppendUint32(dst, uint32(m.Off))
		dst = binary.LittleEndian.AppendUint32(dst, uint32(len(m.Bytes)))
		dst = append(dst, m.Bytes...)
	}
	return dst
}

// metaScratch is one mutateMeta call's working storage: the acl-uf
// serialization of the modification and the shadow copy of the block
// it is trial-applied to. Each call takes its own from metaScratches
// and holds it to the end, across the parks its UDF charges make, so
// an env that enters mutateMeta meanwhile gets another; a forked XN
// draws on the same pool instead of growing buffers of its own.
type metaScratch struct {
	aux, shadow []byte
}

var metaScratches = sync.Pool{New: func() any { return new(metaScratch) }}

// getPage obtains a physical page for buffer-cache use, recycling the
// LRU buffer when the cache cap (MaxCachePages; the OpenBSD
// personality's small, non-unified buffer cache) or physical memory is
// exhausted.
func (x *XN) getPage(e *kernel.Env) (mem.PageNo, error) {
	if x.MaxCachePages > 0 && len(x.reg) >= x.MaxCachePages {
		if p, ok := x.RecycleLRU(e); ok {
			return p, nil
		}
	}
	p, err := x.M.Alloc(cap.Root(true))
	if err == nil {
		return p, nil
	}
	if p, ok := x.RecycleLRU(e); ok {
		return p, nil
	}
	// Memory pressure with nothing clean: flush some dirty buffers
	// (write-back under pressure) and retry.
	if n, werr := x.WriteBack(e, 64); werr == nil && n > 0 {
		if p, ok := x.RecycleLRU(e); ok {
			return p, nil
		}
	}
	return mem.NoPage, err
}

// Read is the second stage of reading (Section 4.4): supply pages and
// issue disk requests for the listed blocks, blocking the environment
// until all complete. Entries must already exist (Insert, LoadRoot or
// RawRead). pages may be nil (XN allocates a page, or recycles its
// LRU buffer); if given, pages[i] backs blocks[i] — applications
// control placement.
func (x *XN) Read(e *kernel.Env, blocks []disk.BlockNo, pages []mem.PageNo) error {
	x.charge(e, sim.Time(50*len(blocks)))
	x.K.Stats.Inc(sim.CtrRegistryOps)

	type readOp struct {
		block disk.BlockNo
		entry *Entry
	}
	var ops []readOp
	for i, b := range blocks {
		en, ok := x.reg[b]
		if !ok {
			return ErrNotInRegistry
		}
		switch en.State {
		case StateResident:
			x.K.Stats.Inc(sim.CtrCacheHits)
			x.touch(en)
			continue
		case StateInTransit:
			// Another environment's read is in flight; wait for it.
			if e != nil {
				x.waiters[en] = append(x.waiters[en], e)
			}
			continue
		}
		if en.Uninit {
			// The block was allocated but its on-disk content never
			// initialized: whatever lives there belongs to a previous
			// owner. Serve a zero page without touching the disk — the
			// UNIX hole contract (reading past what was written sees
			// zeros) and stale-data containment in one. Uninit stays
			// set: it describes the *disk*, which is still garbage.
			x.K.Stats.Inc(sim.CtrCacheHits)
			if err := x.backPage(e, en, pages, i); err != nil {
				return err
			}
			d := x.M.Data(en.Page)
			for j := range d {
				d[j] = 0
			}
			en.setState(StateResident)
			x.touch(en)
			continue
		}
		x.K.Stats.Inc(sim.CtrCacheMisses)
		if err := x.backPage(e, en, pages, i); err != nil {
			return err
		}
		en.setState(StateInTransit)
		ops = append(ops, readOp{b, en})
	}

	// Coalesce contiguous runs so large sorted schedules hit the disk
	// as large requests.
	sort.Slice(ops, func(i, j int) bool { return ops[i].block < ops[j].block })
	submit := func(run []readOp) {
		pagesData := make([][]byte, len(run))
		for i, op := range run {
			pagesData[i] = x.M.Data(op.entry.Page)
		}
		x.D.Submit(&disk.Request{
			Block: run[0].block,
			Count: len(run),
			Pages: pagesData,
			Done: func(req *disk.Request) {
				x.K.ChargeInterrupt(sim.DiskInterruptCost)
				for _, op := range run {
					if req.Err != nil {
						// Media error: no data arrived. The entry
						// falls back out of core so a later read can
						// retry; waiters wake and see the failure.
						op.entry.setState(StateOutOfCore)
					} else {
						op.entry.setState(StateResident)
						wasBad := op.entry.bad()
						op.entry.Uninit = false
						op.entry.noteBad(wasBad)
						x.touch(op.entry)
					}
					if ws, ok := x.waiters[op.entry]; ok {
						for _, w := range ws {
							x.K.Wake(w)
						}
						delete(x.waiters, op.entry)
					}
				}
				if e != nil {
					x.K.Wake(e)
				}
			},
		})
	}
	start := 0
	nreq := 0
	for i := 1; i <= len(ops); i++ {
		if i == len(ops) || ops[i].block != ops[i-1].block+1 {
			submit(ops[start:i])
			nreq++
			start = i
		}
	}
	x.chargeIO(e, nreq)
	if e != nil {
		for {
			pending := false
			for _, b := range blocks {
				en, ok := x.reg[b]
				if !ok {
					return ErrNotInRegistry
				}
				switch en.State {
				case StateResident:
				case StateInTransit:
					pending = true
				default:
					// We (or the read we piggybacked on) hit a media
					// error and the entry fell back out of core.
					return fault.ErrMedia
				}
			}
			if !pending {
				return nil
			}
			e.Block()
		}
	}
	return nil
}

// backPage gives en a page to read into if it has none: pages[i] when
// the caller chose one, else one from getPage. A chosen page must be
// one the caller may write that backs nothing else; any other would
// make the read rewrite that content, metadata included, past acl-uf
// and owns-udf.
func (x *XN) backPage(e *kernel.Env, en *Entry, pages []mem.PageNo, i int) error {
	if en.Page != mem.NoPage {
		return nil
	}
	var p mem.PageNo
	if i < len(pages) && pages[i] != mem.NoPage {
		p = pages[i]
		creds := cap.Credentials{cap.Root(true)} // a nil env is the kernel itself
		if e != nil {
			creds = e.Creds
		}
		if err := x.M.Access(p, creds, true); err != nil {
			return err
		}
		if x.M.RefCount(p) != 0 {
			return mem.ErrPageInUse
		}
	} else {
		var err error
		if p, err = x.getPage(e); err != nil {
			return err
		}
	}
	if err := x.M.Ref(p); err != nil {
		return err
	}
	en.Page = p
	return nil
}

// chargeIO charges the unavoidable kernel crossing that starts a disk
// request even when protection-boundary charging is off (FreeCost):
// "without XN" still means trapping to program the controller. This is
// what keeps the Section 6.3 comparison honest — removing XN removes
// most system calls, not all of them (300,000 -> 81,000 in the paper).
func (x *XN) chargeIO(e *kernel.Env, nreq int) {
	if e == nil || nreq == 0 || !x.FreeCost {
		return
	}
	x.K.Stats.Add(sim.CtrSyscalls, int64(nreq))
	e.Use(sim.Time(nreq) * x.K.TrapCost())
}

// RawRead speculatively reads a block before its parent is known
// (Section 4.4). The entry is marked "unknown type" and cannot be used
// until Insert binds it to a parent.
func (x *XN) RawRead(e *kernel.Env, b disk.BlockNo) error {
	if int64(b) < reservedEnd || int64(b) >= x.D.NumBlocks() {
		return ErrOutOfRange
	}
	if _, ok := x.reg[b]; !ok {
		x.reg[b] = &Entry{
			Block:    b,
			Page:     mem.NoPage,
			State:    StateOutOfCore,
			Tmpl:     TmplUnknown,
			Parent:   NoParent,
			LockedBy: NoEnv,
		}
	}
	return x.Read(e, []disk.BlockNo{b}, nil)
}

// MapData performs the bind-time access check for mapping a cached
// block into an environment (secure bindings: "the permission to read
// a cached disk block is checked when the page is inserted into the
// page table ... rather than on every access", Section 4.3.1).
// Metadata blocks may never be mapped writable.
func (x *XN) MapData(e *kernel.Env, b disk.BlockNo, write bool) (mem.PageNo, error) {
	x.charge(e, 100)
	en, ok := x.reg[b]
	if !ok {
		return mem.NoPage, ErrNotInRegistry
	}
	if en.State != StateResident {
		return mem.NoPage, ErrNotResident
	}
	if write && x.isMetadata(en.Tmpl) {
		return mem.NoPage, ErrMetadataRW
	}
	if err := x.checkAccess(e, en, write); err != nil {
		return mem.NoPage, err
	}
	x.touch(en)
	return en.Page, nil
}

// checkAccess runs the appropriate acl-uf for the entry: its own
// template's, or — for types with AclAtParent, such as bare data
// blocks — the parent's over the parent's metadata.
func (x *XN) checkAccess(e *kernel.Env, en *Entry, write bool) error {
	t, ok := x.templates[en.Tmpl]
	if !ok {
		return ErrNoTemplate
	}
	op := int64(OpRead)
	if write {
		op = OpModify
	}
	target := en
	if t.AclAtParent {
		if en.Parent == NoParent {
			return ErrNotOwned
		}
		pen, ok := x.reg[en.Parent]
		if !ok || pen.State != StateResident {
			return ErrNotResident
		}
		target = pen
		t, ok = x.templates[pen.Tmpl]
		if !ok {
			return ErrNoTemplate
		}
	}
	// A freshly allocated block has no content yet; its acl-uf runs
	// over empty metadata (self-describing types that need their own
	// bytes for access control must check after InitMetadata).
	var meta []byte
	if target.Page != mem.NoPage && target.State == StateResident {
		meta = x.M.Data(target.Page)
	}
	okAcl, err := x.runAcl(e, t, meta, nil, op)
	if err != nil {
		return err
	}
	if !okAcl {
		return ErrAccessDenied
	}
	return nil
}

// AttachPage supplies a zeroed page for a freshly allocated block so
// the application can fill it (data path). The write-access check
// happens here, at bind time.
func (x *XN) AttachPage(e *kernel.Env, b disk.BlockNo) (mem.PageNo, error) {
	x.charge(e, 100)
	en, ok := x.reg[b]
	if !ok {
		return mem.NoPage, ErrNotInRegistry
	}
	if en.State == StateResident {
		return mem.NoPage, fmt.Errorf("xn: block %d already resident", b)
	}
	if x.isMetadata(en.Tmpl) {
		return mem.NoPage, ErrMetadataRW
	}
	if err := x.checkAccess(e, en, true); err != nil {
		return mem.NoPage, err
	}
	p, err := x.getPage(e)
	if err != nil {
		return mem.NoPage, err
	}
	en.Page = p
	x.M.Ref(p)
	en.setState(StateResident)
	d := x.M.Data(p)
	for i := range d {
		d[i] = 0
	}
	x.touch(en)
	return p, nil
}

// MarkDirty flags a data block modified through its writable mapping.
func (x *XN) MarkDirty(e *kernel.Env, b disk.BlockNo) error {
	x.charge(e, 30)
	en, ok := x.reg[b]
	if !ok {
		return ErrNotInRegistry
	}
	if en.State != StateResident {
		return ErrNotResident
	}
	x.setDirty(en)
	x.touch(en)
	return nil
}

// maybeFlushBehind starts asynchronous write-back of the writable
// dirty blocks when the dirty set exceeds the threshold. It walks only
// the dirty blocks with no flush-behind write in flight. The caller
// does not wait; completions arrive through disk events.
func (x *XN) maybeFlushBehind() {
	if x.FlushBehind <= 0 || x.dirty.n <= x.FlushBehind {
		return
	}
	var flush []disk.BlockNo
	limit := x.dirty.n - x.FlushBehind/2 // flush down to half-threshold
	x.flushable.each(func(b disk.BlockNo) bool {
		en := x.reg[b]
		if en.LockedBy != NoEnv || en.State != StateResident {
			return true
		}
		if x.taintCheck(en) != nil {
			return true
		}
		flush = append(flush, b)
		return len(flush) < limit
	})
	for _, b := range flush {
		x.reg[b].flushing = true
		x.flushable.remove(b)
	}
	if len(flush) > 0 {
		// Write with a nil environment: fire and forget.
		_ = x.Write(nil, flush)
	}
}

// AdoptPage makes dest's registry entry share src's physical page and
// marks dest dirty — the zero-touch copy path (Section 7.2): "this
// strategy eliminates all copies; the file is DMAed into and out of
// the buffer cache by the disk controller — the CPU never touches the
// data". Requires read access to src and write access to dest, checked
// at bind time; neither may be metadata.
func (x *XN) AdoptPage(e *kernel.Env, dest, src disk.BlockNo) error {
	x.charge(e, 60) // page remap, no data movement
	sen, ok := x.reg[src]
	if !ok || sen.State != StateResident || sen.Page == mem.NoPage {
		return ErrNotResident
	}
	den, ok := x.reg[dest]
	if !ok {
		return ErrNotInRegistry
	}
	// A metadata source would alias its page into a block that can be
	// mapped writable, changing metadata past acl-uf and owns-udf.
	if x.isMetadata(den.Tmpl) || x.isMetadata(sen.Tmpl) {
		return ErrMetadataRW
	}
	if err := x.checkAccess(e, sen, false); err != nil {
		return err
	}
	if err := x.checkAccess(e, den, true); err != nil {
		return err
	}
	// The access checks charge and so park the caller; either entry
	// may have left the registry meanwhile.
	if sen.dropped || den.dropped {
		return ErrNotInRegistry
	}
	if den.Page != mem.NoPage {
		x.M.Unref(den.Page)
	}
	den.Page = sen.Page
	x.M.Ref(den.Page)
	den.setState(StateResident)
	x.setDirty(den)
	x.touch(den)
	return nil
}

// InitMetadata supplies the initial content of a freshly allocated
// metadata block. The content must own nothing (pointers are added
// later through Alloc, keeping the ownership audit trail intact), and
// must satisfy its own template's acl-uf (well-formedness).
func (x *XN) InitMetadata(e *kernel.Env, b disk.BlockNo, content []byte) error {
	x.charge(e, sim.CopyCost(len(content)))
	en, ok := x.reg[b]
	if !ok {
		return ErrNotInRegistry
	}
	if !en.Uninit {
		return fmt.Errorf("xn: block %d is not awaiting initialization", b)
	}
	t, ok := x.templates[en.Tmpl]
	if !ok {
		return ErrNoTemplate
	}
	if len(content) > sim.DiskBlockSize {
		return fmt.Errorf("xn: init content larger than a block")
	}
	buf := make([]byte, sim.DiskBlockSize)
	copy(buf, content)
	owned, err := x.runOwns(e, t, buf)
	if err != nil {
		return err
	}
	if len(owned) != 0 {
		return fmt.Errorf("%w: initial content may not own blocks", ErrBadDelta)
	}
	okAcl, err := x.runAcl(e, t, buf, nil, OpModify)
	if err != nil {
		return err
	}
	if !okAcl {
		return ErrAccessDenied
	}
	if en.dropped { // deallocated while the UDFs were charged
		return ErrNotInRegistry
	}
	if en.Page == mem.NoPage {
		p, err := x.getPage(e)
		if err != nil {
			return err
		}
		if en.dropped {
			return ErrNotInRegistry
		}
		en.Page = p
		x.M.Ref(p)
	}
	copy(x.M.Data(en.Page), buf)
	en.setState(StateResident)
	x.setDirty(en)
	x.touch(en)
	return nil
}

// mutateMeta is the shared guts of Alloc, Dealloc and Modify: run
// acl-uf, verify the ownership delta of the proposed modification via
// owns-udf before/after (Section 4.1), then commit it to the cached
// page.
func (x *XN) mutateMeta(e *kernel.Env, meta disk.BlockNo, mods []Mod, add, remove udf.Extent, op int64) (*Entry, error) {
	en, ok := x.reg[meta]
	if !ok {
		return nil, ErrNotInRegistry
	}
	if en.State != StateResident {
		return nil, ErrNotResident
	}
	if x.lockedByOther(e, en) {
		return nil, ErrLocked
	}
	t, ok := x.templates[en.Tmpl]
	if !ok {
		return nil, ErrNoTemplate
	}
	data := x.M.Data(en.Page)
	sc := metaScratches.Get().(*metaScratch)
	defer metaScratches.Put(sc)
	sc.aux = appendModsAux(sc.aux[:0], mods)
	okAcl, err := x.runAcl(e, t, data, sc.aux, op)
	if err != nil {
		return nil, err
	}
	if !okAcl {
		return nil, ErrAccessDenied
	}
	oldOwns, err := x.ownsOf(e, en, t, data)
	if err != nil {
		return nil, err
	}
	// Trial-apply into the shadow copy. Charging (chargeUDF below)
	// parks this goroutine, so a second env can enter mutateMeta while
	// we are mid-flight; trials counts the envs at this stage.
	if len(sc.shadow) < len(data) {
		sc.shadow = make([]byte, len(data))
	}
	tmp := sc.shadow[:len(data)]
	x.trials++
	defer func() { x.trials-- }()
	copy(tmp, data)
	if err := applyMods(tmp, mods); err != nil {
		return nil, err
	}
	newOwns, newSteps, err := evalOwns(t, tmp)
	x.chargeUDF(e, newSteps)
	if err != nil {
		return nil, err
	}
	rs := x.takeRuns()
	err = rs.checkDelta(oldOwns, newOwns, add, remove)
	x.releaseRuns(rs)
	if err != nil {
		return nil, err
	}
	// The charged UDF runs let other envs in: one may have recycled or
	// deallocated meta, and data may now back another block.
	if en.dropped {
		return nil, ErrNotInRegistry
	}
	// Commit.
	copy(data, tmp)
	en.setOwns(newOwns, newSteps)
	x.detachChildren(remove)
	x.setDirty(en)
	x.touch(en)
	return en, nil
}

// Alloc allocates the extent's blocks into metadata block meta by
// applying the proposed modification, after verifying (1) acl-uf
// approves, (2) the blocks are free, and (3) owns-udf confirms the
// modification allocates exactly those blocks (Section 4.4).
func (x *XN) Alloc(e *kernel.Env, meta disk.BlockNo, mods []Mod, ext udf.Extent) error {
	x.charge(e, 200)
	for i := int64(0); i < ext.Count; i++ {
		b := ext.Start + i
		if b < reservedEnd || b >= x.D.NumBlocks() {
			return ErrOutOfRange
		}
		if !x.free.get(b) {
			return ErrNotFree
		}
	}
	en, err := x.mutateMeta(e, meta, mods, ext, udf.Extent{}, OpAlloc)
	if err != nil {
		return err
	}
	x.addChildren(meta, en, ext)
	if ext.Count > 0 {
		x.K.Stats.Add(sim.CtrTaintedBlocks, ext.Count)
	}
	x.recomputeTaint(meta)
	return nil
}

// addChildren takes ext's blocks off the free map and installs their
// registry entries, uninitialized and bound to parent meta (entry en).
// A speculative entry a block already had is dropped first.
func (x *XN) addChildren(meta disk.BlockNo, en *Entry, ext udf.Extent) {
	temporary := en.Temporary || x.templates[en.Tmpl].Temporary
	for i := int64(0); i < ext.Count; i++ {
		b := disk.BlockNo(ext.Start + i)
		x.free.set(int64(b), false)
		if old, ok := x.reg[b]; ok {
			x.dropEntry(old)
		}
		cen := &Entry{
			Block:     b,
			Page:      mem.NoPage,
			State:     StateOutOfCore,
			Uninit:    true,
			Tmpl:      TemplateID(ext.Type),
			Parent:    meta,
			Attached:  en.Attached,
			Temporary: temporary,
			LockedBy:  NoEnv,
		}
		x.reg[b] = cen
		x.bind(cen, meta)
	}
}

// freeChildren drops ext's registry entries and releases its blocks.
func (x *XN) freeChildren(ext udf.Extent) {
	for i := int64(0); i < ext.Count; i++ {
		b := disk.BlockNo(ext.Start + i)
		if cen, ok := x.reg[b]; ok {
			x.dropEntry(cen)
		}
		x.releaseBlock(b)
	}
}

// Dealloc removes the extent from meta's ownership. Freed blocks whose
// on-disk reference count is non-zero go to the will-free list until
// the pointers are nullified by a write (Section 4.4).
func (x *XN) Dealloc(e *kernel.Env, meta disk.BlockNo, mods []Mod, ext udf.Extent) error {
	x.charge(e, 200)
	if _, err := x.mutateMeta(e, meta, mods, udf.Extent{}, ext, OpDealloc); err != nil {
		return err
	}
	x.freeChildren(ext)
	x.recomputeTaint(meta)
	return nil
}

// releaseBlock frees b if nothing on disk points to it, else queues it
// on the will-free list.
func (x *XN) releaseBlock(b disk.BlockNo) {
	if x.diskRefs[b] > 0 {
		x.willFree[b] = true
		return
	}
	delete(x.willFree, b)
	x.free.set(int64(b), true)
	// Freeing a metadata block kills its on-disk pointers.
	if owns, ok := x.onDiskOwns[b]; ok {
		delete(x.onDiskOwns, b)
		for _, ext := range owns {
			for i := int64(0); i < ext.Count; i++ {
				c := disk.BlockNo(ext.Start + i)
				x.decDiskRef(c)
			}
		}
	}
}

func (x *XN) decDiskRef(b disk.BlockNo) {
	if x.diskRefs[b] > 0 {
		x.diskRefs[b]--
	}
	if x.diskRefs[b] == 0 {
		delete(x.diskRefs, b)
		if x.willFree[b] {
			x.releaseBlock(b)
		}
	}
}

// Modify applies a metadata modification that must not change
// ownership at all (sizes, timestamps, directory names, ...).
func (x *XN) Modify(e *kernel.Env, meta disk.BlockNo, mods []Mod) error {
	x.charge(e, 100)
	_, err := x.mutateMeta(e, meta, mods, udf.Extent{}, udf.Extent{}, OpModify)
	return err
}

// WillFreeCount reports blocks parked on the will-free list.
func (x *XN) WillFreeCount() int { return len(x.willFree) }

// Write flushes the listed blocks to disk, enforcing the ordering
// rules, and blocks the environment until the I/O completes. "The
// write also fails if any of the blocks are tainted and reachable from
// a persistent root" (Section 4.4). Contiguous runs coalesce into
// single disk requests.
func (x *XN) Write(e *kernel.Env, blocks []disk.BlockNo) error {
	x.charge(e, sim.Time(50*len(blocks)))
	type writeOp struct {
		block disk.BlockNo
		entry *Entry
		owns  []udf.Extent
	}
	var ops []writeOp
	for _, b := range blocks {
		en, ok := x.reg[b]
		if !ok {
			return ErrNotInRegistry
		}
		if en.State != StateResident || en.Page == mem.NoPage {
			return ErrNotResident
		}
		if x.lockedByOther(e, en) {
			return ErrLocked
		}
		if err := x.taintCheck(en); err != nil {
			return err
		}
		var owns []udf.Extent
		if x.isMetadata(en.Tmpl) {
			t := x.templates[en.Tmpl]
			var err error
			owns, err = x.ownsOf(e, en, t, x.M.Data(en.Page))
			if err != nil {
				return err
			}
		}
		ops = append(ops, writeOp{b, en, owns})
	}
	if len(ops) == 0 {
		return nil
	}
	sort.Slice(ops, func(i, j int) bool { return ops[i].block < ops[j].block })

	remaining := 0
	submit := func(run []writeOp) {
		pagesData := make([][]byte, len(run))
		for i, op := range run {
			pagesData[i] = x.M.Data(op.entry.Page)
		}
		remaining++
		x.D.Submit(&disk.Request{
			Write: true,
			Block: run[0].block,
			Count: len(run),
			Pages: pagesData,
			Done: func(*disk.Request) {
				x.K.ChargeInterrupt(sim.DiskInterruptCost)
				for _, op := range run {
					x.completeWrite(op.block, op.entry, op.owns)
				}
				remaining--
				if remaining == 0 && e != nil {
					x.K.Wake(e)
				}
			},
		})
	}
	start := 0
	nreq := 0
	for i := 1; i <= len(ops); i++ {
		if i == len(ops) || ops[i].block != ops[i-1].block+1 {
			submit(ops[start:i])
			nreq++
			start = i
		}
	}
	x.chargeIO(e, nreq)
	if e != nil {
		for remaining > 0 {
			e.Block()
		}
	}
	return nil
}

// completeWrite runs at disk-completion time: maintain on-disk
// reference counts from the ownership diff, release will-free blocks
// whose last pointer died, clear dirty/uninit, and refresh taint up
// the tree.
func (x *XN) completeWrite(b disk.BlockNo, en *Entry, newOwns []udf.Extent) {
	rs := x.takeRuns()
	gained, lost := rs.refDelta(x.onDiskOwns[b], newOwns)
	for _, r := range gained {
		for c := r.first; ; c++ {
			x.diskRefs[disk.BlockNo(c)]++
			if c == r.last {
				break
			}
		}
	}
	for _, r := range lost {
		for c := r.first; ; c++ {
			x.decDiskRef(disk.BlockNo(c))
			if c == r.last {
				break
			}
		}
	}
	x.releaseRuns(rs)
	if len(newOwns) > 0 {
		x.onDiskOwns[b] = newOwns
	} else {
		delete(x.onDiskOwns, b)
	}
	x.clearDirty(en)
	en.flushing = false
	wasUninit, wasBad := en.Uninit, en.bad()
	en.Uninit = false
	en.noteBad(wasBad)
	if wasUninit && en.Parent != NoParent {
		x.recomputeTaint(en.Parent)
	}
}

// WriteBack flushes up to max dirty, unlocked, untainted blocks — the
// asynchronous write-back daemon's operation. "XN allows any process
// to write 'unowned' dirty blocks to disk ... even if that process
// does not have write permission for the dirty blocks" (Section
// 4.3.3): no acl check here, flushing committed state is always safe.
func (x *XN) WriteBack(e *kernel.Env, max int) (int, error) {
	var flush []disk.BlockNo
	x.dirty.each(func(b disk.BlockNo) bool {
		en := x.reg[b]
		if en.State != StateResident || en.LockedBy != NoEnv {
			return true
		}
		if x.taintCheck(en) != nil {
			return true // not yet writable; its children must go first
		}
		flush = append(flush, b)
		return max <= 0 || len(flush) < max
	})
	if len(flush) == 0 {
		return 0, nil
	}
	if err := x.Write(e, flush); err != nil {
		return 0, err
	}
	return len(flush), nil
}

// Sync flushes all dirty blocks in dependency order: repeatedly write
// everything writable until nothing is dirty (children before tainted
// parents; each pass un-taints the next level).
func (x *XN) Sync(e *kernel.Env) error {
	for {
		n, err := x.WriteBack(e, 0)
		if err != nil {
			return err
		}
		if n == 0 {
			break
		}
	}
	if rest := x.DirtyBlocks(); len(rest) > 0 {
		return fmt.Errorf("xn: %d dirty blocks cannot be synced (locked or tainted)", len(rest))
	}
	return nil
}
