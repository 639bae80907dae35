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

// Installing a connection's filter allocates only what the filter
// keeps: the normalized copy of its comparisons, its entry and its
// bucket. Sorting the comparisons allocates nothing.
func TestInsertAllocs(t *testing.T) {
	e := NewEngine()
	if _, err := e.Insert(&Filter{Cmps: []Cmp{Eq16(0, 80), Eq16(2, 1)}}, "seed"); err != nil {
		t.Fatal(err)
	}
	// Comparisons out of order, so normalizing has to sort them.
	f := &Filter{Cmps: []Cmp{Eq16(2, 5555), Eq16(0, 80)}}
	allocs := testing.AllocsPerRun(100, func() {
		id, err := e.Insert(f, "conn")
		if err != nil {
			t.Fatal(err)
		}
		if err := e.Remove(id); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 3 {
		t.Errorf("Insert+Remove of a keyed filter: %v allocs, want 3 (comparisons, entry, bucket)", allocs)
	}
}

func TestNormalizedOrder(t *testing.T) {
	f := &Filter{Cmps: []Cmp{Eq8(4, 6), Eq16(2, 1), {Offset: 2, Width: 1, Mask: 0xff, Value: 9}, Eq16(0, 80)}}
	got := f.normalized()
	want := []Cmp{Eq16(0, 80), {Offset: 2, Width: 1, Mask: 0xff, Value: 9}, Eq16(2, 1), Eq8(4, 6)}
	if !cmpsEqual(got, want) {
		t.Fatalf("normalized = %v, want %v", got, want)
	}
	if f.Cmps[0] != Eq8(4, 6) {
		t.Fatal("normalized reordered the filter's own comparisons")
	}
}
