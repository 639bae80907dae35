package mem

import (
	"testing"

	"xok/internal/cap"
	"xok/internal/sim"
)

func newMem(n int) *PhysMem { return New(n) }

func TestAllocExhaustion(t *testing.T) {
	m := newMem(2)
	g := cap.Root(true)
	if _, err := m.Alloc(g); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Alloc(g); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Alloc(g); err != ErrNoMemory {
		t.Fatalf("err = %v, want ErrNoMemory", err)
	}
}

func TestAccessControl(t *testing.T) {
	m := newMem(4)
	owner := cap.New(true, 1, 5)
	p, _ := m.Alloc(owner)

	ownerCreds := cap.Credentials{owner}
	stranger := cap.Credentials{cap.New(true, 1, 6)}
	readOnly := cap.Credentials{owner.ReadOnly()}

	if err := m.Access(p, ownerCreds, true); err != nil {
		t.Fatalf("owner write denied: %v", err)
	}
	if err := m.Access(p, stranger, false); err != ErrAccessDenied {
		t.Fatalf("stranger read err = %v, want denied", err)
	}
	if err := m.Access(p, readOnly, true); err != ErrAccessDenied {
		t.Fatalf("read-only write err = %v, want denied", err)
	}
	if err := m.Access(p, readOnly, false); err != nil {
		t.Fatalf("read-only read denied: %v", err)
	}
	if err := m.Access(p+1, ownerCreds, false); err != ErrBadPage {
		t.Fatalf("unallocated frame err = %v, want ErrBadPage", err)
	}
}

func TestDataPersists(t *testing.T) {
	m := newMem(2)
	p, _ := m.Alloc(cap.Root(true))
	d := m.Data(p)
	if len(d) != sim.PageSize {
		t.Fatalf("page size = %d", len(d))
	}
	d[0] = 0xAB
	if m.Data(p)[0] != 0xAB {
		t.Fatal("page data did not persist")
	}
}

func TestRefCounts(t *testing.T) {
	m := newMem(4)
	p, _ := m.Alloc(cap.Root(true))
	if err := m.Ref(p); err != nil {
		t.Fatal(err)
	}
	if m.RefCount(p) != 1 {
		t.Fatalf("RefCount = %d, want 1", m.RefCount(p))
	}
	if err := m.Unref(p); err != nil {
		t.Fatal(err)
	}
	if err := m.Unref(p); err == nil {
		t.Fatal("unref below zero must fail")
	}
	if err := m.Ref(p + 1); err != ErrBadPage {
		t.Fatalf("Ref of an unallocated frame err = %v, want ErrBadPage", err)
	}
}

// TestAllocOrderAcrossRecycleAndFork checks that Alloc hands frames out
// lowest first, each reading as zeros, on a fresh machine, on a fork
// (which also sees the parent's bytes, copy-on-write), and on a smaller
// machine built from the recycled shell.
func TestAllocOrderAcrossRecycleAndFork(t *testing.T) {
	g := cap.Root(true)
	fill := func(m *PhysMem, from, n int) {
		t.Helper()
		for i := from; i < from+n; i++ {
			p, err := m.Alloc(g)
			if err != nil || p != PageNo(i) {
				t.Fatalf("Alloc = %d, %v, want %d", p, err, i)
			}
			d := m.Data(p)
			if d[0] != 0 || d[len(d)-1] != 0 {
				t.Fatalf("page %d not zero", p)
			}
			d[0] = byte(i + 1)
		}
	}
	for round := 0; round < 4; round++ {
		m := newMem(64)
		fill(m, 0, 40)
		s := m.Freeze()
		f := s.Fork()
		if f.Data(7)[0] != 8 {
			t.Fatal("fork lost the parent's page contents")
		}
		f.Data(7)[0] = 99
		if m.Data(7)[0] != 8 {
			t.Fatal("a fork's write reached the parent")
		}
		fill(f, 40, 24)
		if _, err := f.Alloc(g); err != ErrNoMemory {
			t.Fatalf("full fork Alloc err = %v, want ErrNoMemory", err)
		}
		f.Recycle()
		m.Recycle()
		s.Release()
		m = newMem(48)
		fill(m, 0, 48)
		m.Recycle()
	}
}
