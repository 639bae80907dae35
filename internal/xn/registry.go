package xn

import (
	"xok/internal/disk"
	"xok/internal/kernel"
	"xok/internal/mem"
	"xok/internal/sim"
	"xok/internal/udf"
)

// The buffer cache registry (Section 4.3.3): a system-wide, protected
// map from cached disk blocks to the physical pages holding them.
// "Unlike traditional buffer caches, it only records the mapping, not
// the disk blocks themselves" — pages are application-managed. The
// registry is mapped read-only into application space, so lookups cost
// nothing; mutations go through XN calls.

// EntryState is a registry entry's residency state.
type EntryState uint8

// Registry entry states (the paper's "dirty, out of core,
// uninitialized, locked" are tracked in the state plus the flags).
const (
	StateOutOfCore EntryState = iota // mapping exists, no data yet
	StateInTransit                   // disk read in flight
	StateResident                    // page holds the block
)

// NoEnv marks an unlocked entry.
const NoEnv kernel.EnvID = -1

// NoParent marks an entry not (yet) bound to a parent.
const NoParent disk.BlockNo = -1

// Entry is one registry record.
type Entry struct {
	Block disk.BlockNo
	Page  mem.PageNo
	State EntryState
	Dirty bool

	// Uninit: the block's on-disk content has never been initialized
	// since allocation. Writing a persistent pointer to such a block
	// is what the tainted-block machinery prevents.
	Uninit bool

	// Tainted: this block's cached content points (directly or
	// transitively) to uninitialized blocks (Section 4.3.2).
	Tainted bool

	// Attached: reachable from a persistent root. Unattached subtrees
	// are exempt from taint tracking until connected.
	Attached bool

	// Temporary: belongs to a non-persistent file system.
	Temporary bool

	// Packed beside the flags above, which keeps an Entry (with
	// ownsSteps and owns, below) within the 128-byte allocator size
	// class.
	flushing  bool // flush-behind write in flight
	pinned    bool // exempt from LRU recycling (hot metadata)
	dropped   bool // removed from the registry (see dropEntry)
	ownsValid bool // owns and ownsSteps hold a result (see ownsOf)

	// ownsSteps and owns are the last owns-udf result over the page's
	// current content, under the template Tmpl names. Tmpl changes only
	// from TmplUnknown, which has no owns-udf, and every content reload
	// goes through setState, which clears the result.
	ownsSteps int32

	Tmpl     TemplateID
	Parent   disk.BlockNo
	LockedBy kernel.EnvID

	owns []udf.Extent

	lastUse uint64

	// up is the bad-child count of the parent incarnation the entry is
	// bound under, nil once it leaves the parent's content or for a
	// block with no parent (taint.go).
	up *taintCount

	// lruPrev and lruNext link the entry into XN's LRU list once
	// touched, in lastUse order (index.go).
	lruPrev, lruNext *Entry

	// stateWord mirrors State as an exposed int64 so wakeup
	// predicates can bind to it: "to wait for a disk block to be
	// paged in, a wakeup predicate can bind to the block's state and
	// wake up when it changes from 'in transit' to 'resident'"
	// (Section 5.1).
	stateWord int64
}

// setState updates both representations of an entry's state. Every
// path that gives the page new content (read completion, the Uninit
// zero fill, InitMetadata, AttachPage, AdoptPage) passes through here,
// so it also forgets the cached owns-udf result.
func (en *Entry) setState(st EntryState) {
	en.State = st
	en.stateWord = int64(st)
	en.clearOwns()
}

// setOwns records the owns-udf result over the page's current content.
func (en *Entry) setOwns(owns []udf.Extent, steps int) {
	en.owns, en.ownsSteps, en.ownsValid = owns, int32(steps), true
}

func (en *Entry) clearOwns() { en.owns, en.ownsSteps, en.ownsValid = nil, 0, false }

// Metadata reports whether the entry's type can own blocks (leaf/data
// templates never taint anything through content).
func (x *XN) isMetadata(id TemplateID) bool {
	t, ok := x.templates[id]
	if !ok {
		return false
	}
	// A template whose owns-udf can emit is metadata. Cheap static
	// scan, computed per call (programs are tiny).
	for _, in := range t.Owns.Instrs {
		if in.Op == udf.OpEMIT {
			return true
		}
	}
	return false
}

// touch stamps en as the most recently used entry and moves it to the
// tail of the LRU list.
func (x *XN) touch(en *Entry) {
	x.useClock++
	en.lastUse = x.useClock
	if en.Page != mem.NoPage {
		x.M.Touch(en.Page)
	}
	if !en.dropped {
		x.lruUnlink(en)
		x.lruAppend(en)
	}
}

// Lookup returns a copy of the registry entry for b. No system call:
// the registry is mapped read-only into application space.
func (x *XN) Lookup(b disk.BlockNo) (Entry, bool) {
	en, ok := x.reg[b]
	if !ok {
		return Entry{}, false
	}
	return *en, true
}

// Cached reports whether b is resident in some page (libFSes consult
// this to share each other's cached blocks).
func (x *XN) Cached(b disk.BlockNo) bool {
	en, ok := x.reg[b]
	return ok && en.State == StateResident
}

// PageData exposes the bytes of a resident block. The caller must have
// performed a bind-time access check (MapData / Insert); the simulation
// trusts libFS code the way hardware page protections would enforce it.
func (x *XN) PageData(b disk.BlockNo) []byte {
	en, ok := x.reg[b]
	if !ok || en.Page == mem.NoPage {
		panic("xn: PageData on non-resident block")
	}
	x.touch(en)
	return x.M.Data(en.Page)
}

// Lock locks the registry entry for atomic multi-step metadata updates
// (Section 4.3.1: "libFSes can lock cache registry entries").
func (x *XN) Lock(e *kernel.Env, b disk.BlockNo) error {
	x.charge(e, 50)
	en, ok := x.reg[b]
	if !ok {
		return ErrNotInRegistry
	}
	if en.LockedBy != NoEnv && en.LockedBy != e.ID() {
		return ErrLocked
	}
	en.LockedBy = e.ID()
	return nil
}

// Unlock releases a lock.
func (x *XN) Unlock(e *kernel.Env, b disk.BlockNo) error {
	x.charge(e, 50)
	en, ok := x.reg[b]
	if !ok {
		return ErrNotInRegistry
	}
	if en.LockedBy != e.ID() {
		return ErrLocked
	}
	en.LockedBy = NoEnv
	return nil
}

func (x *XN) lockedByOther(e *kernel.Env, en *Entry) bool {
	return en.LockedBy != NoEnv && e != nil && en.LockedBy != e.ID()
}

// Insert is the first stage of a read (Section 4.4): given a resident
// parent metadata block, verify with owns-udf that it owns the extent,
// and install registry entries for the children. Entries start out of
// core; Read supplies pages and issues the disk I/O.
func (x *XN) Insert(e *kernel.Env, parent disk.BlockNo, ext udf.Extent) error {
	x.charge(e, 100)
	x.K.Stats.Inc(sim.CtrRegistryOps)
	pen, ok := x.reg[parent]
	if !ok {
		return ErrNotInRegistry
	}
	if pen.State != StateResident {
		return ErrNotResident
	}
	pt, ok := x.templates[pen.Tmpl]
	if !ok {
		return ErrNoTemplate
	}
	owned, err := x.ownsOf(e, pen, pt, x.M.Data(pen.Page))
	if err != nil {
		return err
	}
	if !extentCovered(owned, ext) {
		return ErrNotOwned
	}
	// Read access control at the parent.
	okAcl, err := x.runAcl(e, pt, x.M.Data(pen.Page), nil, OpRead)
	if err != nil {
		return err
	}
	if !okAcl {
		return ErrAccessDenied
	}
	for i := int64(0); i < ext.Count; i++ {
		b := disk.BlockNo(ext.Start + i)
		if en, exists := x.reg[b]; exists {
			// Bind a speculative raw read to its parent now that the
			// parent is known (Section 4.4 "raw read").
			if en.Tmpl == TmplUnknown {
				en.Tmpl = TemplateID(ext.Type)
				en.Parent = parent
				en.Attached = pen.Attached
				en.Temporary = pen.Temporary
				x.bind(en, parent)
			} else if en.Parent != parent && en.Parent != NoParent {
				return ErrWrongParent
			}
			continue
		}
		cen := &Entry{
			Block:     b,
			Page:      mem.NoPage,
			State:     StateOutOfCore,
			Tmpl:      TemplateID(ext.Type),
			Parent:    parent,
			Attached:  pen.Attached,
			Temporary: pen.Temporary,
			LockedBy:  NoEnv,
		}
		x.reg[b] = cen
		x.bind(cen, parent)
	}
	return nil
}

// extentCovered reports whether every block of ext (with matching
// type) appears in the owned set.
func extentCovered(owned []udf.Extent, ext udf.Extent) bool {
	for i := int64(0); i < ext.Count; i++ {
		b := ext.Start + i
		found := false
		for _, o := range owned {
			if o.Type == ext.Type && b >= o.Start && b < o.Start+o.Count {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// LoadRoot installs registry entries for a root catalogue entry and
// reads its blocks into freshly allocated pages. This is "Startup"
// (Section 4.4): the libFS loads its roots; usually they are already
// cached, in which case this is cheap.
func (x *XN) LoadRoot(e *kernel.Env, name string) (Root, error) {
	r, err := x.LookupRoot(e, name)
	if err != nil {
		return Root{}, err
	}
	var toRead []disk.BlockNo
	for i := int64(0); i < r.Count; i++ {
		b := r.Start + disk.BlockNo(i)
		if en, ok := x.reg[b]; ok {
			if en.State == StateResident {
				continue
			}
		} else {
			x.reg[b] = &Entry{
				Block:     b,
				Page:      mem.NoPage,
				State:     StateOutOfCore,
				Tmpl:      r.Tmpl,
				Parent:    NoParent,
				Attached:  !r.Temporary,
				Temporary: r.Temporary,
				LockedBy:  NoEnv,
			}
		}
		toRead = append(toRead, b)
	}
	if len(toRead) > 0 {
		if err := x.Read(e, toRead, nil); err != nil {
			return Root{}, err
		}
	}
	return r, nil
}

// RecycleLRU evicts the least-recently-used clean, unlocked, resident
// entry and returns its page for reuse: "by default, when libOSes need
// pages and none are free, they recycle the oldest buffer on this LRU
// list" (Section 4.3.3). An uninitialized block's entry is never
// evicted: it is the only record that the block's disk content belongs
// to a previous owner, and without it a later Insert would read that
// content back as the block's own.
func (x *XN) RecycleLRU(e *kernel.Env) (mem.PageNo, bool) {
	x.charge(e, 100)
	for en := x.lru.lruNext; en != &x.lru; en = en.lruNext {
		if en.State != StateResident || en.Dirty || en.LockedBy != NoEnv || en.pinned || en.Uninit {
			continue
		}
		p := en.Page
		x.dropEntry(en)
		return p, true
	}
	return mem.NoPage, false
}

// Pin exempts a resident block from LRU recycling. LibFSes pin their
// hot metadata (directory and indirect blocks) the way a kernel file
// system would hold its metadata in the buffer cache; pinned pages
// stay accounted against the cache.
func (x *XN) Pin(b disk.BlockNo) {
	if en, ok := x.reg[b]; ok {
		en.pinned = true
	}
}

// Unpin re-exposes a block to recycling.
func (x *XN) Unpin(b disk.BlockNo) {
	if en, ok := x.reg[b]; ok {
		en.pinned = false
	}
}

// DirtyBlocks lists dirty resident blocks, sorted — what an
// asynchronous write-back daemon scans (Section 4.3.3: any process may
// write unowned dirty blocks).
func (x *XN) DirtyBlocks() []disk.BlockNo {
	var out []disk.BlockNo
	x.dirty.each(func(b disk.BlockNo) bool {
		if x.reg[b].State == StateResident {
			out = append(out, b)
		}
		return true
	})
	return out
}

// RegistrySize reports the number of registry entries.
func (x *XN) RegistrySize() int { return len(x.reg) }

// StateWord exposes the address of an entry's state as a watchable
// word for wakeup predicates — the paper's Section 5.1 example: sleep
// until a block's state changes from "in transit" to "resident". The
// registry is mapped read-only into application space, so binding a
// predicate to this word needs no system call beyond the download.
func (x *XN) StateWord(b disk.BlockNo) (*int64, bool) {
	en, ok := x.reg[b]
	if !ok {
		return nil, false
	}
	return &en.stateWord, true
}
