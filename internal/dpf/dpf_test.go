package dpf

import (
	"errors"
	"testing"
)

// makeUDPPacket builds a tiny pseudo-header: [dstPort(2) srcPort(2)
// proto(1) payload...]. The tests only need deterministic bytes, not a
// real IP stack.
func pkt(dst, src uint16, proto byte, payload ...byte) []byte {
	p := []byte{byte(dst >> 8), byte(dst), byte(src >> 8), byte(src), proto}
	return append(p, payload...)
}

func TestBasicDispatch(t *testing.T) {
	e := NewEngine()
	f := &Filter{Cmps: []Cmp{Eq16(0, 80)}} // dst port 80
	if _, err := e.Insert(f, "httpd"); err != nil {
		t.Fatal(err)
	}
	owner, ok := e.Dispatch(pkt(80, 1234, 6))
	if !ok || owner != "httpd" {
		t.Fatalf("dispatch = %v, %v", owner, ok)
	}
	if _, ok := e.Dispatch(pkt(81, 1234, 6)); ok {
		t.Fatal("packet for port 81 claimed by port-80 filter")
	}
}

func TestMostSpecificWins(t *testing.T) {
	// A server's listen filter (port only) vs an established
	// connection's filter (port + peer): the connection filter must
	// win for its 4-tuple.
	e := NewEngine()
	listen := &Filter{Cmps: []Cmp{Eq16(0, 80)}}
	conn := &Filter{Cmps: []Cmp{Eq16(0, 80), Eq16(2, 5555)}}
	if _, err := e.Insert(listen, "listen"); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Insert(conn, "conn"); err != nil {
		t.Fatal(err)
	}
	owner, _ := e.Dispatch(pkt(80, 5555, 6))
	if owner != "conn" {
		t.Fatalf("established packet went to %v", owner)
	}
	owner, _ = e.Dispatch(pkt(80, 7777, 6))
	if owner != "listen" {
		t.Fatalf("new-connection packet went to %v", owner)
	}
}

func TestDuplicateRejected(t *testing.T) {
	// The anti-theft property: a second application cannot install a
	// filter identical to an existing one to steal its packets.
	e := NewEngine()
	f1 := &Filter{Cmps: []Cmp{Eq16(0, 80), Eq8(4, 6)}}
	if _, err := e.Insert(f1, "victim"); err != nil {
		t.Fatal(err)
	}
	// Same comparisons in a different order are still the same filter.
	f2 := &Filter{Cmps: []Cmp{Eq8(4, 6), Eq16(0, 80)}}
	if _, err := e.Insert(f2, "thief"); !errors.Is(err, ErrDuplicate) {
		t.Fatalf("duplicate insert err = %v, want ErrDuplicate", err)
	}
}

func TestRemove(t *testing.T) {
	e := NewEngine()
	id, err := e.Insert(&Filter{Cmps: []Cmp{Eq16(0, 80)}}, "a")
	if err != nil {
		t.Fatal(err)
	}
	if e.Len() != 1 {
		t.Fatalf("len = %d", e.Len())
	}
	if err := e.Remove(id); err != nil {
		t.Fatal(err)
	}
	if err := e.Remove(id); !errors.Is(err, ErrUnknownID) {
		t.Fatalf("double remove err = %v", err)
	}
	if _, ok := e.Dispatch(pkt(80, 1, 6)); ok {
		t.Fatal("removed filter still claims packets")
	}
	// After removal, the "duplicate" can be installed again.
	if _, err := e.Insert(&Filter{Cmps: []Cmp{Eq16(0, 80)}}, "b"); err != nil {
		t.Fatal(err)
	}
}

func TestInsertValidation(t *testing.T) {
	e := NewEngine()
	if _, err := e.Insert(nil, "x"); !errors.Is(err, ErrEmpty) {
		t.Fatalf("nil filter err = %v", err)
	}
	if _, err := e.Insert(&Filter{}, "x"); !errors.Is(err, ErrEmpty) {
		t.Fatalf("empty filter err = %v", err)
	}
	if _, err := e.Insert(&Filter{Cmps: []Cmp{{Offset: 0, Width: 3}}}, "x"); !errors.Is(err, ErrBadCmp) {
		t.Fatalf("bad width err = %v", err)
	}
	if _, err := e.Insert(&Filter{Cmps: []Cmp{{Offset: -1, Width: 1}}}, "x"); !errors.Is(err, ErrBadCmp) {
		t.Fatalf("bad offset err = %v", err)
	}
}

func TestShortPacketFailsComparison(t *testing.T) {
	e := NewEngine()
	f := &Filter{Cmps: []Cmp{Eq32(100, 1)}}
	if _, err := e.Insert(f, "x"); err != nil {
		t.Fatal(err)
	}
	if _, ok := e.Dispatch([]byte{1, 2, 3}); ok {
		t.Fatal("short packet matched out-of-range comparison")
	}
}

func TestMaskedComparison(t *testing.T) {
	e := NewEngine()
	// Match any packet whose first byte's high nibble is 4 (IPv4).
	f := &Filter{Cmps: []Cmp{{Offset: 0, Width: 1, Mask: 0xF0, Value: 0x40}}}
	if _, err := e.Insert(f, "ip"); err != nil {
		t.Fatal(err)
	}
	if _, ok := e.Dispatch([]byte{0x45, 0}); !ok {
		t.Fatal("masked match failed")
	}
	if _, ok := e.Dispatch([]byte{0x60, 0}); ok {
		t.Fatal("masked mismatch matched")
	}
}

func TestDeterministicTieBreak(t *testing.T) {
	e := NewEngine()
	// Two equally specific filters matching disjoint fields of the same
	// packet: oldest must win, consistently.
	a := &Filter{Cmps: []Cmp{Eq16(0, 80)}}
	b := &Filter{Cmps: []Cmp{Eq16(2, 9999)}}
	if _, err := e.Insert(a, "a"); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Insert(b, "b"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		owner, ok := e.Dispatch(pkt(80, 9999, 6))
		if !ok || owner != "a" {
			t.Fatalf("tie break not deterministic: %v", owner)
		}
	}
}

// Installing and removing a connection's filter at steady state
// allocates nothing: the entry comes from the engine's freelist, its
// normalized comparisons live inline, the bucket is a chain through
// the entries, and sorting the comparisons allocates nothing either.
func TestInsertAllocs(t *testing.T) {
	e := NewEngine()
	if _, err := e.Insert(&Filter{Cmps: []Cmp{Eq16(0, 80), Eq16(2, 1)}}, "seed"); err != nil {
		t.Fatal(err)
	}
	// Comparisons out of order, so normalizing has to sort them.
	f := &Filter{Cmps: []Cmp{Eq16(2, 5555), Eq16(0, 80)}}
	var port uint16 = 5555
	allocs := testing.AllocsPerRun(1000, func() {
		// A fresh connection port each time, as a server sees them.
		port++
		f.Cmps[0] = Eq16(2, port)
		id, err := e.Insert(f, "conn")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := e.Insert(f, "thief"); !errors.Is(err, ErrDuplicate) {
			t.Fatalf("duplicate insert err = %v", err)
		}
		if err := e.Remove(id); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("Insert+duplicate+Remove of a keyed filter: %v allocs, want 0", allocs)
	}
}

// TestFilterReuseAfterInsert: the engine copies a filter's comparisons,
// so changing the caller's Filter after Insert changes no dispatch —
// keyed or unkeyed shape.
func TestFilterReuseAfterInsert(t *testing.T) {
	e := NewEngine()
	keyed := &Filter{Cmps: []Cmp{Eq16(0, 80), Eq16(2, 5555)}}
	wide := &Filter{Cmps: []Cmp{Eq32(0, 0x00501234), Eq32(4, 0x06000000), Eq8(8, 1)}}
	if _, err := e.Insert(keyed, "keyed"); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Insert(wide, "wide"); err != nil {
		t.Fatal(err)
	}
	keyed.Cmps[1] = Eq16(2, 7777)
	wide.Cmps[2] = Eq8(8, 2)
	if owner, _ := e.Dispatch(pkt(80, 5555, 6)); owner != "keyed" {
		t.Fatalf("keyed filter's own port went to %v after the caller changed its Filter", owner)
	}
	if _, ok := e.Dispatch(pkt(80, 7777, 6)); ok {
		t.Fatal("the caller's change to its Filter leaked into the engine")
	}
	widePkt := []byte{0x00, 0x50, 0x12, 0x34, 0x06, 0, 0, 0, 1}
	if owner, _ := e.Dispatch(widePkt); owner != "wide" {
		t.Fatalf("unkeyed filter's packet went to %v after the caller changed its Filter", owner)
	}
	widePkt[8] = 2
	if _, ok := e.Dispatch(widePkt); ok {
		t.Fatal("the caller's change to its unkeyed Filter leaked into the engine")
	}
}

// TestBucketRemoveMiddleKeepsOrder: three filters sharing one keyed
// bucket (equal masked values, different raw ones); removing the middle
// one leaves the oldest first, and removing that hands the bucket to
// the newest.
func TestBucketRemoveMiddleKeepsOrder(t *testing.T) {
	e := NewEngine()
	nib := func(v uint32) *Filter {
		return &Filter{Cmps: []Cmp{{Offset: 0, Width: 1, Mask: 0xF0, Value: v}}}
	}
	var ids []ID
	for _, v := range []uint32{0x41, 0x42, 0x43} {
		id, err := e.Insert(nib(v), v)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	if len(e.shapes) != 1 || len(e.shapes[0].buckets) != 1 {
		t.Fatalf("want one shape with one bucket, got %d shapes", len(e.shapes))
	}
	p := []byte{0x45}
	if owner, _ := e.Dispatch(p); owner != uint32(0x41) {
		t.Fatalf("bucket head = %v, want the oldest (0x41)", owner)
	}
	if err := e.Remove(ids[1]); err != nil {
		t.Fatal(err)
	}
	if owner, _ := e.Dispatch(p); owner != uint32(0x41) {
		t.Fatalf("after removing the middle, head = %v, want 0x41", owner)
	}
	if err := e.Remove(ids[0]); err != nil {
		t.Fatal(err)
	}
	if owner, _ := e.Dispatch(p); owner != uint32(0x43) {
		t.Fatalf("after removing the oldest, head = %v, want 0x43", owner)
	}
	// The removed filters' identities are free again; the survivor's
	// is not.
	if _, err := e.Insert(nib(0x42), "again"); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Insert(nib(0x43), "thief"); !errors.Is(err, ErrDuplicate) {
		t.Fatalf("duplicate of the survivor: err = %v", err)
	}
	if owner, _ := e.Dispatch(p); owner != uint32(0x43) {
		t.Fatalf("re-inserted filter jumped the queue: head = %v", owner)
	}
}

// TestUnkeyedDispatchMatchesLinearScan: filters too wide for a keyed
// shape dispatch exactly as a linear scan of Filter.Match over every
// installed filter would (most comparisons first, then oldest), also
// after removals recycle their entries.
func TestUnkeyedDispatchMatchesLinearScan(t *testing.T) {
	e := NewEngine()
	type installed struct {
		id ID
		f  Filter
	}
	var live []installed
	rng := uint32(12345)
	next := func(n uint32) uint32 {
		rng = rng*1664525 + 1013904223
		return (rng >> 8) % n
	}
	for i := 0; i < 200; i++ {
		// Three 4-byte comparisons (12 bytes: never keyed), some with a
		// fourth or fifth byte comparison so the longer filter spills
		// past the inline storage.
		f := Filter{Cmps: []Cmp{Eq32(0, next(3)), Eq32(4, next(3)), Eq32(8, next(2))}}
		for j := uint32(0); j < next(3); j++ {
			f.Cmps = append(f.Cmps, Eq8(12+int(j), uint8(next(2))))
		}
		id, err := e.Insert(&Filter{Cmps: append([]Cmp(nil), f.Cmps...)}, i)
		if err == nil {
			live = append(live, installed{id, f})
		}
		if next(4) == 0 && len(live) > 0 {
			k := int(next(uint32(len(live))))
			if err := e.Remove(live[k].id); err != nil {
				t.Fatal(err)
			}
			live = append(live[:k], live[k+1:]...)
		}
	}
	for trial := 0; trial < 500; trial++ {
		p := make([]byte, 14)
		for _, off := range []int{0, 4, 8} {
			p[off+3] = byte(next(3))
		}
		p[12], p[13] = byte(next(2)), byte(next(2))
		var wantID ID
		wantLen := -1
		for _, in := range live {
			if in.f.Match(p) && (len(in.f.Cmps) > wantLen || (len(in.f.Cmps) == wantLen && in.id < wantID)) {
				wantID, wantLen = in.id, len(in.f.Cmps)
			}
		}
		got, ok := e.Dispatch(p)
		if wantLen < 0 {
			if ok {
				t.Fatalf("packet %v: dispatch claimed it for %v, linear scan finds no filter", p, got)
			}
			continue
		}
		if !ok || e.entries[wantID].owner != got {
			t.Fatalf("packet %v: dispatch = %v, linear scan picks filter %v", p, got, wantID)
		}
	}
}

func TestNormalizedOrder(t *testing.T) {
	f := &Filter{Cmps: []Cmp{Eq8(4, 6), Eq16(2, 1), {Offset: 2, Width: 1, Mask: 0xff, Value: 9}, Eq16(0, 80)}}
	got := normalizeInto(nil, f.Cmps)
	want := []Cmp{Eq16(0, 80), {Offset: 2, Width: 1, Mask: 0xff, Value: 9}, Eq16(2, 1), Eq8(4, 6)}
	if !cmpsEqual(got, want) {
		t.Fatalf("normalized = %v, want %v", got, want)
	}
	if f.Cmps[0] != Eq8(4, 6) {
		t.Fatal("normalized reordered the filter's own comparisons")
	}
}
