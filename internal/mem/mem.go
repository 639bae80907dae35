// Package mem models the physical memory of the simulated machine.
//
// Exokernel principles visible here (Section 3.1):
//
//   - Expose allocation: environments allocate physical pages
//     explicitly, each guarded by a capability.
//   - Expose names: all interfaces use physical page numbers.
//   - Expose information: per-page reference counts are readable by
//     applications.
//
// Because the x86 defines the page-table format and refills the TLB in
// hardware, applications cannot own their page tables on Xok; they
// mutate mappings through (batched) system calls instead (Section 5.1).
// No experiment reads a virtual mapping, so none is kept: the model
// charges the cost of the calls and copy-on-write faults (sim.Cost*)
// and tracks physical pages only.
package mem

import (
	"errors"
	"fmt"
	"sync"

	"xok/internal/bufpool"
	xcap "xok/internal/cap"
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
	ErrAccessDenied = errors.New("mem: capability check failed")
	ErrPageInUse    = errors.New("mem: page reference count not zero")
)

// page is one frame's metadata. The zero page is a frame that was
// never allocated.
type page struct {
	guard    xcap.Capability
	refCount int  // live mappings + registry pins
	shared   bool // data is frozen in a snapshot: copy-on-write, never mutate or Put
	data     []byte
}

// PhysMem is the machine's physical page frame array. No library
// gives a frame back, so allocation is a bump: the frames below fresh
// are allocated, and the rest are zero pages Alloc hands out lowest
// first. Booting and tearing down a machine cost the frames it used
// rather than its memory size.
type PhysMem struct {
	pages []page
	fresh int
}

// physmemPool recycles whole PhysMem shells (the page-frame array)
// between machine boots. Harnesses that churn through
// machines hand them back via Recycle; a pooled shell whose arrays are
// too small for the requested size is simply replaced. A pooled shell's
// page array is zero up to its capacity.
var physmemPool = sync.Pool{New: func() any { return new(PhysMem) }}

// shell takes a pooled PhysMem with npages zero frames.
func shell(npages int) *PhysMem {
	m := physmemPool.Get().(*PhysMem)
	if cap(m.pages) >= npages {
		m.pages = m.pages[:npages]
	} else {
		m.pages = make([]page, npages)
	}
	return m
}

// New returns physical memory with npages frames, none allocated.
func New(npages int) *PhysMem { return shell(npages) }

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
	physmemPool.Put(m)
}

// NumPages returns the total number of physical frames.
func (m *PhysMem) NumPages() int { return len(m.pages) }

// allocated reports whether p names a frame Alloc has handed out.
func (m *PhysMem) allocated(p PageNo) bool {
	return p >= 0 && int(p) < m.fresh
}

// Alloc takes the lowest never-allocated frame and guards it with
// guard. The caller (an environment) chose to allocate — allocation is
// always explicit and visible.
func (m *PhysMem) Alloc(guard xcap.Capability) (PageNo, error) {
	if m.fresh == len(m.pages) {
		return NoPage, ErrNoMemory
	}
	p := PageNo(m.fresh)
	m.fresh++
	m.pages[p].guard = guard
	return p, nil
}

// Access verifies that creds allow (write?) access to frame p. Access
// control happens at map/bind time (secure bindings); the simulation
// calls this wherever Xok would check a binding.
func (m *PhysMem) Access(p PageNo, creds xcap.Credentials, write bool) error {
	if !m.allocated(p) {
		return ErrBadPage
	}
	if !creds.Grants(m.pages[p].guard, write) {
		return ErrAccessDenied
	}
	return nil
}

// Ref pins a frame (a mapping or a buffer-registry entry references
// it). RefCount is exposed information.
func (m *PhysMem) Ref(p PageNo) error {
	if !m.allocated(p) {
		return ErrBadPage
	}
	m.pages[p].refCount++
	return nil
}

// Unref releases one pin.
func (m *PhysMem) Unref(p PageNo) error {
	if !m.allocated(p) {
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
	if !m.allocated(p) {
		return 0
	}
	return m.pages[p].refCount
}

// Data returns the 4-KB backing store of frame p, allocating it lazily.
// The simulation stores real bytes so XN's UDFs can interpret real
// metadata.
func (m *PhysMem) Data(p PageNo) []byte {
	if !m.allocated(p) {
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
	return pg.data
}
