package xn

import (
	"cmp"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"xok/internal/cap"
	"xok/internal/disk"
	"xok/internal/kernel"
	"xok/internal/mem"
	"xok/internal/sim"
	"xok/internal/udf"
)

// checkIndices audits the registry's indices against the map they
// index: the dirty index holds exactly the dirty entries and counts
// them, the flushable index exactly the dirty entries with no
// flush-behind write in flight, the LRU list exactly the touched
// entries in lastUse order, and no resident entry is untouched
// (RecycleLRU's list walk relies on it to pick what a scan of the whole
// registry would).
func checkIndices(x *XN) error {
	var dirty, flushable []disk.BlockNo
	var touched []*Entry
	for b, en := range x.reg {
		if en.Dirty {
			dirty = append(dirty, b)
			if !en.flushing {
				flushable = append(flushable, b)
			}
		}
		if en.lastUse != 0 {
			touched = append(touched, en)
		} else if en.State == StateResident {
			return fmt.Errorf("resident block %d never touched", b)
		}
	}
	slices.Sort(dirty)
	var indexed []disk.BlockNo
	x.dirty.each(func(b disk.BlockNo) bool {
		indexed = append(indexed, b)
		return true
	})
	if !slices.Equal(indexed, dirty) {
		return fmt.Errorf("dirty index %v, dirty entries %v", indexed, dirty)
	}
	if x.dirty.n != len(dirty) {
		return fmt.Errorf("DirtyCount() = %d with %d dirty entries", x.dirty.n, len(dirty))
	}
	slices.Sort(flushable)
	indexed = indexed[:0]
	x.flushable.each(func(b disk.BlockNo) bool {
		indexed = append(indexed, b)
		return true
	})
	if !slices.Equal(indexed, flushable) || x.flushable.n != len(flushable) {
		return fmt.Errorf("flushable index %v (n=%d), dirty entries not in flight %v", indexed, x.flushable.n, flushable)
	}
	slices.SortFunc(touched, func(a, b *Entry) int { return cmp.Compare(a.lastUse, b.lastUse) })
	var listed []*Entry
	for en := x.lru.lruNext; en != &x.lru; en = en.lruNext {
		if en.lruNext.lruPrev != en {
			return fmt.Errorf("LRU list broken after block %d", en.Block)
		}
		listed = append(listed, en)
	}
	if !slices.Equal(listed, touched) {
		return fmt.Errorf("LRU list holds %d entries, %d touched entries by lastUse", len(listed), len(touched))
	}
	return nil
}

// lruVictim is the reference RecycleLRU: the eligible entry with the
// least lastUse, by a scan of the whole registry.
func lruVictim(x *XN) *Entry {
	var victim *Entry
	for _, en := range x.reg {
		if en.State != StateResident || en.Dirty || en.LockedBy != NoEnv || en.pinned || en.Uninit {
			continue
		}
		if victim == nil || en.lastUse < victim.lastUse {
			victim = en
		}
	}
	return victim
}

// TestRegistryIndicesInvariant drives random sequences of registry
// operations — with flush-behind writes in flight, pinned entries,
// speculative reads later allocated over, and a small cache forcing
// recycling — and audits the indices and the bad-child counts after
// every one, across snapshot/fork boundaries.
func TestRegistryIndicesInvariant(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		f := newFixture(t)
		f.x.FlushBehind = 4
		f.x.MaxCachePages = 24
		rng := rand.New(rand.NewSource(seed))
		var recs []udf.Extent // the root tnode's records, in order
		ext := func() udf.Extent { return recs[rng.Intn(len(recs))] }
		for round := 0; round < 12; round++ {
			f.run(t, "ops", func(e *kernel.Env) error {
				for i := 0; i < 40; i++ {
					switch op := rng.Intn(12); {
					case op == 0 || len(recs) == 0:
						start, ok := f.x.FindFree(disk.BlockNo(200+rng.Intn(3000)), int64(1+rng.Intn(3)))
						if !ok {
							break
						}
						r := udf.Extent{Start: int64(start), Count: int64(1 + rng.Intn(3)), Type: int64(f.data)}
						if !f.x.IsFree(disk.BlockNo(r.Start + r.Count - 1)) {
							r.Count = 1
						}
						if f.x.Alloc(e, f.rootBlk, tnAddRecord(len(recs), start, uint32(r.Count), f.data), r) == nil {
							recs = append(recs, r)
						}
					case op == 1:
						last := recs[len(recs)-1]
						if f.x.Dealloc(e, f.rootBlk, tnRemoveLast(len(recs)), last) == nil {
							recs = recs[:len(recs)-1]
						}
					case op == 2:
						_ = f.x.Modify(e, f.rootBlk, []Mod{{Off: tnOwnerOff, Bytes: []byte{0, 0, 0, 0}}})
					case op <= 5:
						r := ext()
						b := disk.BlockNo(r.Start + rng.Int63n(r.Count))
						en, ok := f.x.reg[b]
						switch {
						case !ok:
							_ = f.x.Insert(e, f.rootBlk, r)
							_ = f.x.Read(e, []disk.BlockNo{b}, nil)
						case en.State == StateResident:
							_ = f.x.MarkDirty(e, b)
						case en.State == StateOutOfCore:
							if _, err := f.x.AttachPage(e, b); err == nil {
								_ = f.x.MarkDirty(e, b)
							}
						}
					case op == 6:
						r := ext()
						_ = f.x.Write(e, []disk.BlockNo{disk.BlockNo(r.Start), f.rootBlk})
					case op == 7:
						_, _ = f.x.WriteBack(e, rng.Intn(4))
					case op == 8:
						_ = f.x.Sync(e)
					case op == 9:
						b := disk.BlockNo(ext().Start)
						if en, ok := f.x.reg[b]; ok && en.pinned {
							f.x.Unpin(b)
						} else {
							f.x.Pin(b)
						}
					case op == 10:
						if b, ok := f.x.FindFree(disk.BlockNo(200+rng.Intn(3000)), 1); ok {
							_ = f.x.RawRead(e, b)
						}
					default:
						want := lruVictim(f.x)
						p, ok := f.x.RecycleLRU(e)
						switch {
						case ok != (want != nil):
							return fmt.Errorf("RecycleLRU ok = %v, reference victim %v", ok, want)
						case ok && (p != want.Page || f.x.reg[want.Block] != nil):
							return fmt.Errorf("RecycleLRU took page %d, reference victim is block %d on page %d", p, want.Block, want.Page)
						}
					}
					if err := checkIndices(f.x); err != nil {
						return fmt.Errorf("seed %d round %d op %d: %w", seed, round, i, err)
					}
					if err := checkTaint(f.x); err != nil {
						return fmt.Errorf("seed %d round %d op %d: %w", seed, round, i, err)
					}
				}
				return nil
			})
			if t.Failed() {
				return
			}
			if err := checkIndices(f.x); err != nil {
				t.Fatalf("seed %d after round %d: %v", seed, round, err)
			}
			if round%3 == 2 {
				s, err := f.x.Snapshot()
				if err != nil {
					t.Fatal(err)
				}
				f.x = ForkXN(s, f.k)
				if err := checkIndices(f.x); err != nil {
					t.Fatalf("seed %d fork after round %d: %v", seed, round, err)
				}
			}
		}
	}
}

// TestDeallocInFlightKeepsDirtyCount is the regression for a dirty
// count decremented twice: Dealloc dropped the count for a dirty block
// with a flush-behind write in flight but left the entry dirty, and the
// write's completion decremented it again, driving the count negative
// (which makes flush-behind fire late).
func TestDeallocInFlightKeepsDirtyCount(t *testing.T) {
	f := newFixture(t)
	f.x.FlushBehind = 1
	f.run(t, "dealloc-in-flight", func(e *kernel.Env) error {
		tgt, _ := f.x.FindFree(300, 2)
		ext := udf.Extent{Start: int64(tgt), Count: 2, Type: int64(f.data)}
		if err := f.x.Alloc(e, f.rootBlk, tnAddRecord(0, tgt, 2, f.data), ext); err != nil {
			return err
		}
		for _, b := range []disk.BlockNo{tgt, tgt + 1} {
			if _, err := f.x.AttachPage(e, b); err != nil {
				return err
			}
			if err := f.x.MarkDirty(e, b); err != nil {
				return err
			}
		}
		return f.x.Dealloc(e, f.rootBlk, tnRemoveLast(1), ext)
	})
	dirty := 0
	for _, en := range f.x.reg {
		if en.Dirty {
			dirty++
		}
	}
	if got := f.x.dirty.n; got != dirty {
		t.Fatalf("DirtyCount() = %d after the drain, with %d dirty entries", got, dirty)
	}
}

// TestAllocOverSpeculativeEntryUnpinsPage is the regression for a page
// pin leaked when Alloc replaced a registry entry: a speculative raw
// read of a free block leaves an entry holding a pinned page, and
// allocating the block must release that pin along with the entry.
func TestAllocOverSpeculativeEntryUnpinsPage(t *testing.T) {
	f := newFixture(t)
	f.run(t, "alloc-over-raw", func(e *kernel.Env) error {
		tgt, _ := f.x.FindFree(300, 1)
		if err := f.x.RawRead(e, tgt); err != nil {
			return err
		}
		en, ok := f.x.Lookup(tgt)
		if !ok || en.Page == mem.NoPage {
			return fmt.Errorf("raw read left entry %+v, %v", en, ok)
		}
		if err := f.x.Alloc(e, f.rootBlk, tnAddRecord(0, tgt, 1, f.data),
			udf.Extent{Start: int64(tgt), Count: 1, Type: int64(f.data)}); err != nil {
			return err
		}
		if n := f.k.Mem.RefCount(en.Page); n != 0 {
			return fmt.Errorf("page %d of the replaced entry still pinned %d times", en.Page, n)
		}
		return checkIndices(f.x)
	})
}

// TestReadCompletingAfterDeallocStaysUnlinked deallocates a block while
// another environment's read of it is in flight: the completion must
// not link the detached entry back into the LRU list, where recycling
// it would delete whatever entry the block has by then.
func TestReadCompletingAfterDeallocStaysUnlinked(t *testing.T) {
	f := newFixture(t)
	var ext udf.Extent
	f.run(t, "setup", func(e *kernel.Env) error {
		tgt, _ := f.x.FindFree(300, 1)
		ext = udf.Extent{Start: int64(tgt), Count: 1, Type: int64(f.data)}
		if err := f.x.Alloc(e, f.rootBlk, tnAddRecord(0, tgt, 1, f.data), ext); err != nil {
			return err
		}
		if _, err := f.x.AttachPage(e, tgt); err != nil {
			return err
		}
		if err := f.x.MarkDirty(e, tgt); err != nil {
			return err
		}
		if err := f.x.Sync(e); err != nil {
			return err
		}
		for ok := true; ok; {
			_, ok = f.x.RecycleLRU(e)
		}
		return nil
	})
	b := disk.BlockNo(ext.Start)
	f.k.Spawn("reader", func(e *kernel.Env) {
		e.Creds = cap.UnixCreds(0)
		if _, err := f.x.LoadRoot(e, f.rootName); err != nil {
			t.Error(err)
			return
		}
		if err := f.x.Insert(e, f.rootBlk, ext); err != nil {
			t.Error(err)
			return
		}
		_ = f.x.Read(e, []disk.BlockNo{b}, nil)
	})
	f.k.Spawn("deallocator", func(e *kernel.Env) {
		e.Creds = cap.UnixCreds(0)
		deadline := f.k.Now() + sim.FromMillis(500)
		for {
			if en, ok := f.x.Lookup(b); ok && en.State == StateInTransit {
				break
			}
			e.Use(10_000)
			if f.k.Now() > deadline {
				t.Error("read never in flight")
				return
			}
		}
		if err := f.x.Dealloc(e, f.rootBlk, tnRemoveLast(1), ext); err != nil {
			t.Error(err)
		}
	})
	f.k.Run()
	if err := checkIndices(f.x); err != nil {
		t.Fatal(err)
	}
}

// TestModifyRacingRemovalOfItsBlock removes a metadata block while
// another environment's Modify of it is parked in a charged owns-udf
// run: once by recycling its clean buffer, once by deallocating it from
// its parent. The Modify must fail rather than commit to the detached
// entry, whose block would otherwise stay in the dirty index with no
// entry behind it (crashing or never finishing the Sync that follows).
// A 100-ns scheduler slice (after the slice-start upcall) lets the two
// environments interleave inside the Modify, and the block's 60
// records stretch its owns-udf runs over many slices.
func TestModifyRacingRemovalOfItsBlock(t *testing.T) {
	const records = 60
	for _, tc := range []struct {
		name   string
		remove func(f *fixture, e *kernel.Env, m1 udf.Extent) error
	}{
		{"recycle", func(f *fixture, e *kernel.Env, m1 udf.Extent) error {
			for f.x.Cached(disk.BlockNo(m1.Start)) {
				if _, ok := f.x.RecycleLRU(e); !ok {
					return errors.New("no recycling victim")
				}
			}
			return nil
		}},
		{"dealloc", func(f *fixture, e *kernel.Env, m1 udf.Extent) error {
			return f.x.Dealloc(e, f.rootBlk, tnRemoveLast(1), m1)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f := newFixtureQuantum(t, sim.CostUpcall+100)
			var m1 udf.Extent
			f.run(t, "setup", func(e *kernel.Env) error {
				b, _ := f.x.FindFree(500, 1)
				m1 = udf.Extent{Start: int64(b), Count: 1, Type: int64(f.tnode)}
				if err := f.x.Alloc(e, f.rootBlk, tnAddRecord(0, b, 1, f.tnode), m1); err != nil {
					return err
				}
				if err := f.x.InitMetadata(e, b, make([]byte, 8)); err != nil {
					return err
				}
				for i := 0; i < records; i++ {
					c, _ := f.x.FindFree(700, 1)
					if err := f.x.Alloc(e, b, tnAddRecord(i, c, 1, f.data),
						udf.Extent{Start: int64(c), Count: 1, Type: int64(f.data)}); err != nil {
						return err
					}
					if _, err := f.x.AttachPage(e, c); err != nil {
						return err
					}
					if err := f.x.MarkDirty(e, c); err != nil {
						return err
					}
					f.x.Pin(c) // leave m1 and the root the only recycling victims
				}
				return f.x.Sync(e)
			})
			modified := false
			f.k.Spawn("modifier", func(e *kernel.Env) {
				e.Creds = cap.UnixCreds(0)
				err := f.x.Modify(e, disk.BlockNo(m1.Start), []Mod{{Off: tnOwnerOff, Bytes: []byte{0, 0, 0, 0}}})
				if !errors.Is(err, ErrNotInRegistry) {
					t.Errorf("Modify of a block removed mid-flight: err = %v, want %v", err, ErrNotInRegistry)
				}
				modified = true
			})
			f.k.Spawn("remover", func(e *kernel.Env) {
				e.Creds = cap.UnixCreds(0)
				for f.x.trials == 0 { // wait until the Modify is between its owns-udf runs
					if modified {
						t.Error("Modify finished before the removal could start")
						return
					}
					e.Use(10)
				}
				if err := tc.remove(f, e, m1); err != nil {
					t.Error(err)
				}
			})
			f.k.Run()
			if err := checkIndices(f.x); err != nil {
				t.Fatal(err)
			}
			f.run(t, "sync", func(e *kernel.Env) error { return f.x.Sync(e) })
		})
	}
}

// BenchmarkXNModifyDirBlock times one Modify of a full directory block
// shaped like C-FFS's: 31 slots, each owning a 15-block extent, so each
// call runs owns-udf twice over 465 owned blocks and checks the delta.
func BenchmarkXNModifyDirBlock(b *testing.B) {
	f := newFixture(b)
	f.run(b, "fill", func(e *kernel.Env) error {
		for i := 0; i < 31; i++ {
			start, ok := f.x.FindFree(200, 15)
			if !ok {
				return errors.New("volume full")
			}
			if err := f.x.Alloc(e, f.rootBlk, tnAddRecord(i, start, 15, f.data),
				udf.Extent{Start: int64(start), Count: 15, Type: int64(f.data)}); err != nil {
				return err
			}
		}
		return nil
	})
	owner := []Mod{{Off: tnOwnerOff, Bytes: []byte{0, 0, 0, 0}}}
	b.ReportAllocs()
	b.ResetTimer()
	f.run(b, "modify", func(e *kernel.Env) error {
		for i := 0; i < b.N; i++ {
			if err := f.x.Modify(e, f.rootBlk, owner); err != nil {
				return err
			}
		}
		return nil
	})
}
