// Package dpf implements dynamic packet filters (Engler & Kaashoek,
// SIGCOMM 1996), the mechanism Xok uses to multiplex the network:
// "packet filters are downloaded code fragments used by applications to
// claim incoming network packets. Because they are in the kernel, the
// kernel can inspect them and verify that they do not steal packets
// intended for other applications" (Section 9.3).
//
// A filter is a conjunction of (offset, width, value) comparisons over
// the packet bytes. The engine keeps all installed filters merged, and:
//
//   - rejects a filter identical to an installed one (it would steal
//     the same packets);
//   - dispatches each packet to the most specific matching filter
//     (longest comparison chain), which is how a TCP library claims
//     its specific 4-tuple while a server's listen filter claims the
//     rest of a port.
package dpf

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Cmp is one comparison: width bytes at offset, big-endian (network
// order), must equal Value after masking.
type Cmp struct {
	Offset int
	Width  int // 1, 2, or 4
	Mask   uint32
	Value  uint32
}

// Filter is a conjunction of comparisons.
type Filter struct {
	Cmps []Cmp
}

// Eq8/Eq16/Eq32 are comparison constructors.
func Eq8(off int, v uint8) Cmp   { return Cmp{off, 1, 0xFF, uint32(v)} }
func Eq16(off int, v uint16) Cmp { return Cmp{off, 2, 0xFFFF, uint32(v)} }
func Eq32(off int, v uint32) Cmp { return Cmp{off, 4, 0xFFFFFFFF, v} }

// Match reports whether the filter accepts pkt. A comparison beyond
// the packet's end fails.
func (f *Filter) Match(pkt []byte) bool { return matchAll(f.Cmps, pkt) }

// matchAll reports whether every comparison accepts pkt.
func matchAll(cmps []Cmp, pkt []byte) bool {
	for _, c := range cmps {
		if !c.match(pkt) {
			return false
		}
	}
	return true
}

func (c Cmp) match(pkt []byte) bool {
	if c.Offset < 0 || c.Offset+c.Width > len(pkt) {
		return false
	}
	var v uint32
	switch c.Width {
	case 1:
		v = uint32(pkt[c.Offset])
	case 2:
		v = uint32(binary.BigEndian.Uint16(pkt[c.Offset:]))
	case 4:
		v = binary.BigEndian.Uint32(pkt[c.Offset:])
	default:
		return false
	}
	return v&c.Mask == c.Value&c.Mask
}

// normalizeInto overwrites dst with cmps sorted by (offset, width) for
// canonical equality checks, reusing dst's storage. Filters carry a
// handful of comparisons, so an insertion sort of the copy in place
// does it without the swapper and closure sort.Slice allocates.
// sort.Slice is the same insertion sort on up to 12 elements, so the
// order is unchanged.
func normalizeInto(dst, cmps []Cmp) []Cmp {
	out := append(dst[:0], cmps...)
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && cmpLess(out[j], out[j-1]); j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

func cmpLess(a, b Cmp) bool {
	if a.Offset != b.Offset {
		return a.Offset < b.Offset
	}
	return a.Width < b.Width
}

// cmpsEqual reports whether two normalized comparison lists are
// identical (the anti-theft duplicate identity: raw values compare,
// not masked ones, exactly as the pre-index engine did).
func cmpsEqual(a, b []Cmp) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// ID names an installed filter.
type ID int

// Engine holds the installed filters and dispatches packets.
//
// Filters are grouped by shape — the normalized (offset, width, mask)
// comparison layout, ignoring values — and each shape whose compared
// bytes fit a 64-bit key indexes its filters in a hash map keyed by
// the masked comparison values. Dispatch then extracts one key per
// shape from the packet and looks it up, so its cost is O(shapes), not
// O(filters): a server holding 100k per-connection filters pays two
// map probes per packet instead of a 100k-entry scan. Real DPF gets
// the same effect by merging filters into a prefix trie with hash
// tables at disjunction points; the shape index is that idea flattened
// onto this engine's conjunction-only filter language.
//
// The engine keeps no reference to the caller's Filter: an entry holds
// its own normalized copy of the comparisons, inline for the short
// filters a TCP stack installs per connection, and entries recycle
// through a freelist. Installing and removing a connection's filter
// at steady state allocates nothing.
type Engine struct {
	next    ID
	entries map[ID]*entry
	shapes  []*shape
	free    *entry // recycled entries, linked through next
}

// inlineCmps is how many comparisons an entry stores without a heap
// slice (a per-connection TCP filter has two).
const inlineCmps = 4

type entry struct {
	id    ID
	owner any
	// norm is the normalized comparisons: the duplicate-check identity
	// and, under an unkeyed shape, the match program. It aliases
	// inline unless the filter is longer than inlineCmps.
	norm   []Cmp
	inline [inlineCmps]Cmp
	key    uint64 // folded masked values (keyed shapes)
	sh     *shape
	// next is the following entry of a keyed bucket's chain while
	// installed, and of the engine's freelist once removed.
	next *entry
}

// shape is one comparison layout and the filters installed under it.
type shape struct {
	cmps []Cmp // normalized, values zeroed; masks and layout only
	// keyed shapes (total compared width <= 8 bytes) index entries by
	// the folded masked comparison values: each bucket is a chain
	// through entry.next whose head the map holds. Wider shapes fall
	// back to a linear list. Chain/list order is ascending ID (append
	// order — IDs only grow), so the oldest filter is always first.
	keyed   bool
	buckets map[uint64]*entry
	list    []*entry
}

// shapeKey folds cmps' masked values into the shape's lookup key.
// Each comparison occupies its own bit range (its full width, of which
// the mask keeps a subset), so the fold is collision-free.
func shapeKey(cmps []Cmp) uint64 {
	var key uint64
	for _, c := range cmps {
		key = key<<(8*c.Width) | uint64(c.Value&c.Mask)
	}
	return key
}

// packetKey extracts the same key from a packet, false when any
// comparison reaches beyond the packet (which fails the filter).
func (sh *shape) packetKey(pkt []byte) (uint64, bool) {
	var key uint64
	for _, c := range sh.cmps {
		if c.Offset+c.Width > len(pkt) {
			return 0, false
		}
		var v uint32
		switch c.Width {
		case 1:
			v = uint32(pkt[c.Offset])
		case 2:
			v = uint32(binary.BigEndian.Uint16(pkt[c.Offset:]))
		default:
			v = binary.BigEndian.Uint32(pkt[c.Offset:])
		}
		key = key<<(8*c.Width) | uint64(v&c.Mask)
	}
	return key, true
}

// sameShape reports whether the normalized comparisons norm lay out
// exactly as the shape's.
func (sh *shape) sameShape(norm []Cmp) bool {
	if len(norm) != len(sh.cmps) {
		return false
	}
	for i, c := range norm {
		s := sh.cmps[i]
		if c.Offset != s.Offset || c.Width != s.Width || c.Mask != s.Mask {
			return false
		}
	}
	return true
}

// shapeFor finds or creates the shape of norm.
func (e *Engine) shapeFor(norm []Cmp) *shape {
	for _, sh := range e.shapes {
		if sh.sameShape(norm) {
			return sh
		}
	}
	width := 0
	cmps := make([]Cmp, len(norm))
	for i, c := range norm {
		width += c.Width
		c.Value = 0
		cmps[i] = c
	}
	sh := &shape{cmps: cmps, keyed: width <= 8}
	if sh.keyed {
		sh.buckets = make(map[uint64]*entry)
	}
	e.shapes = append(e.shapes, sh)
	return sh
}

// lookup returns the oldest installed filter matching pkt under this
// shape (nil if none).
func (sh *shape) lookup(pkt []byte) *entry {
	if sh.keyed {
		key, ok := sh.packetKey(pkt)
		if !ok {
			return nil
		}
		return sh.buckets[key]
	}
	for _, ent := range sh.list {
		if matchAll(ent.norm, pkt) {
			return ent
		}
	}
	return nil
}

// Errors.
var (
	ErrDuplicate = errors.New("dpf: identical filter already installed")
	ErrEmpty     = errors.New("dpf: filter with no comparisons")
	ErrBadCmp    = errors.New("dpf: malformed comparison")
	ErrUnknownID = errors.New("dpf: unknown filter id")
)

// NewEngine returns an empty filter engine.
func NewEngine() *Engine {
	return &Engine{entries: make(map[ID]*entry)}
}

// Insert verifies and installs a filter for owner (typically an
// environment or a protocol control block). The verification mirrors
// the kernel's anti-theft check: an exact duplicate of an installed
// filter is rejected, because the kernel could not decide which
// application the packet belongs to. The engine copies what it needs:
// the caller may reuse or change f as soon as Insert returns.
func (e *Engine) Insert(f *Filter, owner any) (ID, error) {
	if f == nil || len(f.Cmps) == 0 {
		return 0, ErrEmpty
	}
	for _, c := range f.Cmps {
		if c.Width != 1 && c.Width != 2 && c.Width != 4 {
			return 0, fmt.Errorf("%w: width %d", ErrBadCmp, c.Width)
		}
		if c.Offset < 0 {
			return 0, fmt.Errorf("%w: offset %d", ErrBadCmp, c.Offset)
		}
	}
	ent := e.newEntry()
	ent.norm = normalizeInto(ent.norm, f.Cmps)
	sh := e.shapeFor(ent.norm)
	var tail *entry // keyed: the bucket's newest entry
	if sh.keyed {
		ent.key = shapeKey(ent.norm)
		for other := sh.buckets[ent.key]; other != nil; other = other.next {
			if cmpsEqual(other.norm, ent.norm) {
				e.freeEntry(ent)
				return 0, ErrDuplicate
			}
			tail = other
		}
	} else {
		for _, other := range sh.list {
			if cmpsEqual(other.norm, ent.norm) {
				e.freeEntry(ent)
				return 0, ErrDuplicate
			}
		}
	}
	ent.id, ent.owner, ent.sh = e.next, owner, sh
	e.next++
	e.entries[ent.id] = ent
	switch {
	case !sh.keyed:
		sh.list = append(sh.list, ent)
	case tail == nil:
		sh.buckets[ent.key] = ent
	default:
		tail.next = ent
	}
	return ent.id, nil
}

// Remove uninstalls a filter.
func (e *Engine) Remove(id ID) error {
	ent, ok := e.entries[id]
	if !ok {
		return ErrUnknownID
	}
	delete(e.entries, id)
	sh := ent.sh
	if sh.keyed {
		head := sh.buckets[ent.key]
		switch {
		case head != ent:
			prev := head
			for prev.next != ent {
				prev = prev.next
			}
			prev.next = ent.next
		case ent.next == nil:
			delete(sh.buckets, ent.key)
		default:
			sh.buckets[ent.key] = ent.next
		}
	} else {
		sh.list = removeEntry(sh.list, ent)
	}
	e.freeEntry(ent)
	return nil
}

// newEntry takes an entry from the freelist, or makes one whose norm
// starts out on its inline storage.
func (e *Engine) newEntry() *entry {
	ent := e.free
	if ent == nil {
		ent = &entry{}
		ent.norm = ent.inline[:0]
		return ent
	}
	e.free, ent.next = ent.next, nil
	return ent
}

// freeEntry returns an uninstalled entry to the freelist. Its norm
// storage (inline, or a longer filter's heap slice) is kept for reuse.
func (e *Engine) freeEntry(ent *entry) {
	*ent = entry{norm: ent.norm[:0], next: e.free}
	e.free = ent
}

// removeEntry deletes ent from s preserving order.
func removeEntry(s []*entry, ent *entry) []*entry {
	for i, other := range s {
		if other == ent {
			return append(s[:i], s[i+1:]...)
		}
	}
	return s
}

// Len reports how many filters are installed.
func (e *Engine) Len() int { return len(e.entries) }

// Dispatch finds the owner for pkt: the matching filter with the most
// comparisons (most specific) wins; ties break by lowest ID (oldest
// installed) for determinism. Returns (nil, false) if no filter claims
// the packet. One lookup per installed shape, regardless of how many
// filters each shape holds.
func (e *Engine) Dispatch(pkt []byte) (owner any, ok bool) {
	var best *entry
	for _, sh := range e.shapes {
		ent := sh.lookup(pkt)
		if ent == nil {
			continue
		}
		if best == nil || len(ent.norm) > len(best.norm) ||
			(len(ent.norm) == len(best.norm) && ent.id < best.id) {
			best = ent
		}
	}
	if best == nil {
		return nil, false
	}
	return best.owner, true
}
