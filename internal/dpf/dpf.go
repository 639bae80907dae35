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
func (f *Filter) Match(pkt []byte) bool {
	for _, c := range f.Cmps {
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

// normalized returns the comparisons sorted by (offset, width) for
// canonical equality checks. Filters carry a handful of comparisons,
// so an insertion sort of the copy in place does it without the
// swapper and closure sort.Slice allocates. sort.Slice is the same
// insertion sort on up to 12 elements, so the order is unchanged.
func (f *Filter) normalized() []Cmp {
	out := append([]Cmp(nil), f.Cmps...)
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
type Engine struct {
	next    ID
	entries map[ID]*entry
	shapes  []*shape
}

type entry struct {
	id    ID
	f     *Filter
	owner any
	norm  []Cmp  // normalized comparisons (the duplicate-check identity)
	key   uint64 // folded masked values (keyed shapes)
	sh    *shape
}

// shape is one comparison layout and the filters installed under it.
type shape struct {
	cmps []Cmp // normalized, values zeroed; masks and layout only
	// keyed shapes (total compared width <= 8 bytes) index entries by
	// the folded masked comparison values; wider shapes fall back to a
	// linear list. Bucket/list order is ascending ID (append order —
	// IDs only grow), so the oldest filter is always first.
	keyed   bool
	buckets map[uint64][]*entry
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
		sh.buckets = make(map[uint64][]*entry)
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
		if b := sh.buckets[key]; len(b) > 0 {
			return b[0]
		}
		return nil
	}
	for _, ent := range sh.list {
		if ent.f.Match(pkt) {
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
// application the packet belongs to.
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
	norm := f.normalized()
	sh := e.shapeFor(norm)
	ent := &entry{f: f, owner: owner, norm: norm, sh: sh}
	if sh.keyed {
		ent.key = shapeKey(norm)
		for _, other := range sh.buckets[ent.key] {
			if cmpsEqual(other.norm, norm) {
				return 0, ErrDuplicate
			}
		}
	} else {
		for _, other := range sh.list {
			if cmpsEqual(other.norm, norm) {
				return 0, ErrDuplicate
			}
		}
	}
	ent.id = e.next
	e.next++
	e.entries[ent.id] = ent
	if sh.keyed {
		sh.buckets[ent.key] = append(sh.buckets[ent.key], ent)
	} else {
		sh.list = append(sh.list, ent)
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
		b := removeEntry(sh.buckets[ent.key], ent)
		if len(b) == 0 {
			delete(sh.buckets, ent.key)
		} else {
			sh.buckets[ent.key] = b
		}
	} else {
		sh.list = removeEntry(sh.list, ent)
	}
	return nil
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
