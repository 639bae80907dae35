// Package mem models the physical memory of the simulated machine and
// the per-environment page tables Xok maintains.
//
// Exokernel principles visible here (Section 3.1):
//
//   - Expose allocation: environments allocate specific physical pages
//     explicitly and may request particular page numbers.
//   - Expose names: all interfaces use physical page numbers.
//   - Expose information: the free list, per-page guards, reference
//     counts and the kernel's approximate-LRU ordering are readable by
//     applications.
//
// Because the x86 defines the page-table format and refills the TLB in
// hardware, applications cannot own their page tables on Xok; they
// mutate mappings through (batched) system calls instead (Section 5.1).
// The PageTable type models exactly the state those calls maintain,
// including the software-only PTE bits ExOS uses to implement
// copy-on-write (Section 9.3: "Xok lets libOSes use the software-only
// bits of page tables, greatly simplifying the implementation of copy
// on write").
package mem

import (
	"errors"
	"fmt"
	"sync"

	"xok/internal/bufpool"
	xcap "xok/internal/cap"
	"xok/internal/sim"
)

// PageNo names a physical page. Physical names are the exokernel
// currency; -1 is "no page".
type PageNo int32

// NoPage is the invalid page number.
const NoPage PageNo = -1

// Errors returned by the allocator and access checks.
var (
	ErrNoMemory     = errors.New("mem: out of physical pages")
	ErrBadPage      = errors.New("mem: bad physical page number")
	ErrNotFree      = errors.New("mem: requested page is not free")
	ErrAccessDenied = errors.New("mem: capability check failed")
	ErrPageInUse    = errors.New("mem: page reference count not zero")
)

// page is one frame's metadata. The zero page is a free frame that was
// never allocated.
type page struct {
	guard    xcap.Capability
	refCount int  // live mappings + registry pins
	used     bool // allocated, not on the free list
	shared   bool // data is frozen in a snapshot: copy-on-write, never mutate or Put
	data     []byte
	lastUse  uint64 // LRU clock stamp
}

// PhysMem is the machine's physical page frame array plus the free
// list.
//
// The free list is kept in two parts, so that booting and tearing down
// a machine cost the frames it used rather than its memory size. The
// frames from fresh up have never been allocated: they are zero pages,
// and stand at the bottom of the list in descending order, so once
// freeList (the frames freed since, most recent last) runs out, Alloc
// hands them out lowest first, the order a list built as
// n-1, ..., 1, 0 would give.
type PhysMem struct {
	pages    []page
	freeList []PageNo
	fresh    int
	useClock uint64
	stats    *sim.Stats
}

// physmemPool recycles whole PhysMem shells (the page-frame array and
// free list) between machine boots. Harnesses that churn through
// machines hand them back via Recycle; a pooled shell whose arrays are
// too small for the requested size is simply replaced. A pooled shell's
// page array is zero up to its capacity.
var physmemPool = sync.Pool{New: func() any { return new(PhysMem) }}

// shell takes a pooled PhysMem with npages zero frames.
func shell(npages int, stats *sim.Stats) *PhysMem {
	m := physmemPool.Get().(*PhysMem)
	m.stats = stats
	if cap(m.pages) >= npages {
		m.pages = m.pages[:npages]
	} else {
		m.pages = make([]page, npages)
	}
	return m
}

// New returns physical memory with npages frames, all free.
func New(npages int, stats *sim.Stats) *PhysMem {
	m := shell(npages, stats)
	m.useClock = 0
	m.freeList = m.freeList[:0]
	m.fresh = 0
	return m
}

// Recycle tears the memory down for reuse: every lazily-materialized
// frame buffer goes back to bufpool and the shell itself is pooled for
// the next New. The caller promises no reference into this PhysMem —
// page data included — survives the call.
func (m *PhysMem) Recycle() {
	touched := m.pages[:m.fresh]
	for i := range touched {
		if d := touched[i].data; d != nil && !touched[i].shared {
			bufpool.Put(d)
		}
	}
	clear(touched)
	m.fresh = 0
	m.stats = nil
	physmemPool.Put(m)
}

// NumPages returns the total number of physical frames.
func (m *PhysMem) NumPages() int { return len(m.pages) }

// FreePages returns how many frames are on the free list. The free
// list itself is exposed state; applications use it to pick frames.
func (m *PhysMem) FreePages() int { return len(m.freeList) + len(m.pages) - m.fresh }

func (m *PhysMem) valid(p PageNo) bool {
	return p >= 0 && int(p) < len(m.pages)
}

// Alloc takes a frame off the free list and guards it with guard.
// The caller (an environment) chose to allocate — allocation is always
// explicit and visible.
func (m *PhysMem) Alloc(guard xcap.Capability) (PageNo, error) {
	var p PageNo
	if n := len(m.freeList); n > 0 {
		p = m.freeList[n-1]
		m.freeList = m.freeList[:n-1]
	} else if m.fresh < len(m.pages) {
		p = PageNo(m.fresh)
		m.fresh++
	} else {
		return NoPage, ErrNoMemory
	}
	pg := &m.pages[p]
	pg.used = true
	pg.guard = guard
	pg.refCount = 0
	pg.lastUse = m.touchClock()
	return p, nil
}

// AllocSpecific allocates the named frame if it is free, honoring the
// "expose allocation: specific resources can be requested" principle.
func (m *PhysMem) AllocSpecific(p PageNo, guard xcap.Capability) error {
	if !m.valid(p) {
		return ErrBadPage
	}
	pg := &m.pages[p]
	if pg.used {
		return ErrNotFree
	}
	if int(p) >= m.fresh {
		// Spell the never-allocated frames out beneath the freed ones.
		list := make([]PageNo, 0, len(m.pages)-m.fresh+len(m.freeList))
		for i := len(m.pages) - 1; i >= m.fresh; i-- {
			list = append(list, PageNo(i))
		}
		m.freeList = append(list, m.freeList...)
		m.fresh = len(m.pages)
	}
	for i, f := range m.freeList {
		if f == p {
			m.freeList = append(m.freeList[:i], m.freeList[i+1:]...)
			break
		}
	}
	pg.used = true
	pg.guard = guard
	pg.refCount = 0
	pg.lastUse = m.touchClock()
	return nil
}

// Free returns a frame to the free list. The caller must hold write
// power over the page's guard and the page must be unreferenced —
// revocation is explicit and applications choose *which* page to give
// up.
func (m *PhysMem) Free(p PageNo, creds xcap.Credentials) error {
	if !m.valid(p) {
		return ErrBadPage
	}
	pg := &m.pages[p]
	if !pg.used {
		return ErrBadPage
	}
	if !creds.Grants(pg.guard, true) {
		return ErrAccessDenied
	}
	if pg.refCount != 0 {
		return ErrPageInUse
	}
	pg.used = false
	// Keep the frame buffer attached (zeroed) rather than dropping it to
	// the GC: a later Alloc of this frame sees the same fresh-page
	// semantics, without re-allocating 4 KB. A snapshot-frozen buffer
	// must instead be detached untouched — the snapshot owns those bytes
	// — and the frame falls back to lazy zeroed materialization.
	if pg.shared {
		pg.data = nil
		pg.shared = false
	} else {
		clear(pg.data)
	}
	m.freeList = append(m.freeList, p)
	return nil
}

// Access verifies that creds allow (write?) access to frame p. Access
// control happens at map/bind time (secure bindings); the simulation
// calls this wherever Xok would check a binding.
func (m *PhysMem) Access(p PageNo, creds xcap.Credentials, write bool) error {
	if !m.valid(p) {
		return ErrBadPage
	}
	pg := &m.pages[p]
	if !pg.used {
		return ErrBadPage
	}
	if !creds.Grants(pg.guard, write) {
		return ErrAccessDenied
	}
	return nil
}

// SetGuard re-guards a page; requires current write power.
func (m *PhysMem) SetGuard(p PageNo, creds xcap.Credentials, guard xcap.Capability) error {
	if err := m.Access(p, creds, true); err != nil {
		return err
	}
	m.pages[p].guard = guard
	return nil
}

// Guard returns the page's guard capability (exposed information).
func (m *PhysMem) Guard(p PageNo) (xcap.Capability, error) {
	if !m.valid(p) || !m.pages[p].used {
		return xcap.Capability{}, ErrBadPage
	}
	return m.pages[p].guard, nil
}

// Ref pins a frame (a mapping or a buffer-registry entry references
// it). RefCount is exposed information.
func (m *PhysMem) Ref(p PageNo) error {
	if !m.valid(p) || !m.pages[p].used {
		return ErrBadPage
	}
	m.pages[p].refCount++
	return nil
}

// Unref releases one pin.
func (m *PhysMem) Unref(p PageNo) error {
	if !m.valid(p) || !m.pages[p].used {
		return ErrBadPage
	}
	if m.pages[p].refCount == 0 {
		return fmt.Errorf("mem: unref of page %d with zero refcount", p)
	}
	m.pages[p].refCount--
	return nil
}

// RefCount returns the pin count of frame p.
func (m *PhysMem) RefCount(p PageNo) int {
	if !m.valid(p) || !m.pages[p].used {
		return 0
	}
	return m.pages[p].refCount
}

// Data returns the 4-KB backing store of frame p, allocating it lazily.
// The simulation stores real bytes so XN's UDFs can interpret real
// metadata.
func (m *PhysMem) Data(p PageNo) []byte {
	if !m.valid(p) || !m.pages[p].used {
		panic(fmt.Sprintf("mem: Data on invalid page %d", p))
	}
	pg := &m.pages[p]
	if pg.data == nil {
		pg.data = bufpool.Get()
	} else if pg.shared {
		// Copy-on-access: the buffer is frozen in a snapshot shared with
		// other forks, so the first touch after a snapshot/fork copies it
		// up into a private buffer. Data is the single choke point for
		// frame contents, so nothing else can reach the frozen bytes.
		fresh := bufpool.GetDirty()
		copy(fresh, pg.data)
		pg.data = fresh
		pg.shared = false
	}
	pg.lastUse = m.touchClock()
	return pg.data
}

// Touch stamps frame p in the kernel's approximate-LRU ordering —
// "an exokernel might also record an approximate least-recently-used
// ordering of all physical pages, something individual applications
// cannot do without global information" (Section 3.1).
func (m *PhysMem) Touch(p PageNo) {
	if m.valid(p) && m.pages[p].used {
		m.pages[p].lastUse = m.touchClock()
	}
}

func (m *PhysMem) touchClock() uint64 {
	m.useClock++
	return m.useClock
}

// LRUVictim returns the least-recently-used allocated, unreferenced
// frame, or NoPage if none qualifies. LibOSes consult this when they
// need frames and none are free.
func (m *PhysMem) LRUVictim() PageNo {
	best := NoPage
	var bestUse uint64
	for i := range m.pages[:m.fresh] {
		pg := &m.pages[i]
		if !pg.used || pg.refCount > 0 {
			continue
		}
		if best == NoPage || pg.lastUse < bestUse {
			best = PageNo(i)
			bestUse = pg.lastUse
		}
	}
	return best
}
