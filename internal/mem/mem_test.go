package mem

import (
	"math/rand"
	"slices"
	"testing"

	"xok/internal/cap"
	"xok/internal/sim"
)

func newMem(n int) *PhysMem { return New(n, sim.NewStats()) }

func TestAllocFreeCycle(t *testing.T) {
	m := newMem(8)
	owner := cap.New(true, 1, 10)
	creds := cap.Credentials{owner}

	if m.FreePages() != 8 {
		t.Fatalf("free = %d, want 8", m.FreePages())
	}
	p, err := m.Alloc(owner)
	if err != nil {
		t.Fatal(err)
	}
	if m.FreePages() != 7 {
		t.Fatalf("free = %d, want 7", m.FreePages())
	}
	if err := m.Free(p, creds); err != nil {
		t.Fatal(err)
	}
	if m.FreePages() != 8 {
		t.Fatalf("free = %d after free, want 8", m.FreePages())
	}
}

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

func TestAllocSpecific(t *testing.T) {
	m := newMem(4)
	g := cap.Root(true)
	if err := m.AllocSpecific(2, g); err != nil {
		t.Fatal(err)
	}
	if err := m.AllocSpecific(2, g); err != ErrNotFree {
		t.Fatalf("double alloc err = %v, want ErrNotFree", err)
	}
	if err := m.AllocSpecific(99, g); err != ErrBadPage {
		t.Fatalf("bad page err = %v, want ErrBadPage", err)
	}
	// The specifically-allocated page must no longer be handed out.
	seen := map[PageNo]bool{2: true}
	for i := 0; i < 3; i++ {
		p, err := m.Alloc(g)
		if err != nil {
			t.Fatal(err)
		}
		if seen[p] {
			t.Fatalf("page %d handed out twice", p)
		}
		seen[p] = true
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
	if err := m.Free(p, stranger); err != ErrAccessDenied {
		t.Fatalf("stranger free err = %v, want denied", err)
	}
}

func TestFreeRequiresZeroRefs(t *testing.T) {
	m := newMem(4)
	owner := cap.Root(true)
	creds := cap.Credentials{owner}
	p, _ := m.Alloc(owner)
	if err := m.Ref(p); err != nil {
		t.Fatal(err)
	}
	if err := m.Free(p, creds); err != ErrPageInUse {
		t.Fatalf("free of pinned page err = %v, want ErrPageInUse", err)
	}
	if err := m.Unref(p); err != nil {
		t.Fatal(err)
	}
	if err := m.Free(p, creds); err != nil {
		t.Fatalf("free after unref: %v", err)
	}
	if err := m.Unref(p); err == nil {
		t.Fatal("unref of free page must fail")
	}
}

func TestSetGuardTransfersOwnership(t *testing.T) {
	m := newMem(2)
	alice := cap.New(true, 1, 1)
	bob := cap.New(true, 1, 2)
	p, _ := m.Alloc(alice)
	if err := m.SetGuard(p, cap.Credentials{alice}, bob); err != nil {
		t.Fatal(err)
	}
	if err := m.Access(p, cap.Credentials{alice}, false); err == nil {
		t.Fatal("old owner still has access after re-guard")
	}
	if err := m.Access(p, cap.Credentials{bob}, true); err != nil {
		t.Fatalf("new owner denied: %v", err)
	}
	g, err := m.Guard(p)
	if err != nil || !g.Equal(bob) {
		t.Fatalf("Guard = %v, %v", g, err)
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

func TestLRUVictim(t *testing.T) {
	m := newMem(4)
	g := cap.Root(true)
	a, _ := m.Alloc(g)
	b, _ := m.Alloc(g)
	c, _ := m.Alloc(g)
	m.Touch(a)
	m.Touch(c)
	m.Touch(b) // order of recency now: a < c < b... with a oldest
	if v := m.LRUVictim(); v != a {
		t.Fatalf("LRU victim = %d, want %d", v, a)
	}
	m.Ref(a)
	if v := m.LRUVictim(); v != c {
		t.Fatalf("LRU victim with a pinned = %d, want %d", v, c)
	}
	m.Ref(b)
	m.Ref(c)
	if v := m.LRUVictim(); v != NoPage {
		t.Fatalf("all pinned but victim = %d", v)
	}
}

func TestPageTable(t *testing.T) {
	pt := NewPageTable()
	pt.Map(10, PTE{Phys: 3, Writable: true})
	pt.Map(11, PTE{Phys: 4, Soft: SoftCOW})
	if pt.Len() != 2 {
		t.Fatalf("len = %d", pt.Len())
	}
	e, ok := pt.Lookup(11)
	if !ok || e.Phys != 4 || e.Soft&SoftCOW == 0 {
		t.Fatalf("lookup = %+v, %v", e, ok)
	}
	old, ok := pt.Unmap(10)
	if !ok || old.Phys != 3 {
		t.Fatalf("unmap = %+v, %v", old, ok)
	}
	if _, ok := pt.Lookup(10); ok {
		t.Fatal("entry survived unmap")
	}
	if _, ok := pt.Unmap(10); ok {
		t.Fatal("double unmap reported ok")
	}
	n := 0
	pt.Range(func(VPN, PTE) { n++ })
	if n != 1 {
		t.Fatalf("Range visited %d entries, want 1", n)
	}
	if len(pt.VPNs()) != 1 {
		t.Fatal("VPNs length mismatch")
	}
}

// TestFreeListOrderMatchesExplicitList drives Alloc, Free and
// AllocSpecific at random and checks every allocation against the free
// list spelled out in full (built n-1, ..., 0, freed frames pushed on
// top), across a Recycle into a smaller machine and a Freeze and Fork.
func TestFreeListOrderMatchesExplicitList(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := cap.Root(true)
	creds := cap.Credentials{g}
	check := func(m *PhysMem, ref []PageNo, ops int) []PageNo {
		t.Helper()
		used := map[PageNo]bool{}
		for p := range m.pages {
			if m.pages[p].used {
				used[PageNo(p)] = true
			}
		}
		for i := 0; i < ops; i++ {
			switch r := rng.Intn(10); {
			case r < 5:
				p, err := m.Alloc(g)
				if len(ref) == 0 {
					if err != ErrNoMemory {
						t.Fatalf("op %d: Alloc = %d, %v on an empty list", i, p, err)
					}
					continue
				}
				want := ref[len(ref)-1]
				ref = ref[:len(ref)-1]
				if err != nil || p != want {
					t.Fatalf("op %d: Alloc = %d, %v, want %d", i, p, err, want)
				}
				if d := m.Data(p); d[0] != 0 || d[len(d)-1] != 0 {
					t.Fatalf("op %d: page %d not zero", i, p)
				}
				m.Data(p)[0] = 1
				used[p] = true
			case r < 9:
				if len(used) == 0 {
					continue
				}
				keys := make([]PageNo, 0, len(used))
				for p := range used {
					keys = append(keys, p)
				}
				slices.Sort(keys)
				p := keys[rng.Intn(len(keys))]
				if err := m.Free(p, creds); err != nil {
					t.Fatalf("op %d: Free(%d): %v", i, p, err)
				}
				delete(used, p)
				ref = append(ref, p)
			default:
				p := PageNo(rng.Intn(len(m.pages)))
				err := m.AllocSpecific(p, g)
				if used[p] {
					if err != ErrNotFree {
						t.Fatalf("op %d: AllocSpecific(%d) of a used frame: %v", i, p, err)
					}
					continue
				}
				if err != nil {
					t.Fatalf("op %d: AllocSpecific(%d): %v", i, p, err)
				}
				for j, f := range ref {
					if f == p {
						ref = append(ref[:j], ref[j+1:]...)
						break
					}
				}
				used[p] = true
			}
			if m.FreePages() != len(ref) {
				t.Fatalf("op %d: FreePages = %d, want %d", i, m.FreePages(), len(ref))
			}
		}
		return ref
	}
	fresh := func(n int) []PageNo {
		var ref []PageNo
		for p := n - 1; p >= 0; p-- {
			ref = append(ref, PageNo(p))
		}
		return ref
	}
	for round := 0; round < 4; round++ {
		m := newMem(64)
		ref := check(m, fresh(64), 200)
		s := m.Freeze()
		f := s.Fork(sim.NewStats())
		check(f, append([]PageNo(nil), ref...), 200)
		f.Recycle()
		m.Recycle()
		s.Release()
		m = newMem(48)
		check(m, fresh(48), 200)
		m.Recycle()
	}
}
