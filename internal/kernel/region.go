package kernel

import (
	"errors"

	"xok/internal/cap"
	"xok/internal/sim"
)

// Software regions (Section 3.3): "areas of memory that can only be
// read or written through system calls, provide sub-page protection and
// fault isolation". ExOS uses them to protect pipe buffers and (in its
// planned fully-protected mode) the shared UNIX tables.

// RegionID names a software region.
type RegionID int

// region is one software region. Its storage is allocated on the
// first write: until then the region reads as zeros, and a region that
// is never written (a pipe nobody writes to) costs no host memory.
type region struct {
	size  int
	data  []byte // nil until the first write, then size bytes
	guard cap.Capability
}

// clone copies the region for a snapshot or a fork.
func (r *region) clone() region {
	c := *r
	if r.data != nil {
		c.data = append([]byte(nil), r.data...)
	}
	return c
}

// Region errors.
var (
	ErrRegionUnknown = errors.New("kernel: unknown software region")
	ErrRegionDenied  = errors.New("kernel: region capability check failed")
	ErrRegionBounds  = errors.New("kernel: region access out of bounds")
)

// RegionCreate allocates a software region of size bytes guarded by
// guard. Charged as one system call.
func (e *Env) RegionCreate(size int, guard cap.Capability) RegionID {
	k := e.k
	id := k.nextRegion
	k.nextRegion++
	k.regions[id] = &region{size: size, guard: guard}
	e.Syscall(sim.Time(size) / 64) // zeroing, amortized
	return id
}

// RegionWrite copies buf into the region at off. The copy runs inside
// the kernel: one trap plus the copy cost, after a capability check.
func (e *Env) RegionWrite(id RegionID, off int, buf []byte) error {
	k := e.k
	r, ok := k.regions[id]
	e.Syscall(sim.CopyCost(len(buf)))
	if !ok {
		return ErrRegionUnknown
	}
	if !e.Creds.Grants(r.guard, true) {
		return ErrRegionDenied
	}
	if off < 0 || off+len(buf) > r.size {
		return ErrRegionBounds
	}
	if r.data == nil {
		r.data = make([]byte, r.size)
	}
	copy(r.data[off:], buf)
	k.Stats.Add(sim.CtrBytesCopied, int64(len(buf)))
	return nil
}

// RegionRead copies from the region at off into buf.
func (e *Env) RegionRead(id RegionID, off int, buf []byte) error {
	k := e.k
	r, ok := k.regions[id]
	e.Syscall(sim.CopyCost(len(buf)))
	if !ok {
		return ErrRegionUnknown
	}
	if !e.Creds.Grants(r.guard, false) {
		return ErrRegionDenied
	}
	if off < 0 || off+len(buf) > r.size {
		return ErrRegionBounds
	}
	if r.data == nil {
		clear(buf)
	} else {
		copy(buf, r.data[off:])
	}
	k.Stats.Add(sim.CtrBytesCopied, int64(len(buf)))
	return nil
}
