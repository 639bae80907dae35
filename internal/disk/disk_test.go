package disk

import (
	"testing"

	"xok/internal/bufpool"
	"xok/internal/sim"
)

func newDisk() (*sim.Engine, *sim.Stats, *Disk) {
	eng := sim.NewEngine()
	st := sim.NewStats()
	return eng, st, New(eng, st, 1<<20)
}

func TestReadWriteRoundTrip(t *testing.T) {
	eng, _, d := newDisk()
	wr := make([]byte, sim.DiskBlockSize)
	for i := range wr {
		wr[i] = byte(i)
	}
	done := 0
	d.Submit(&Request{
		Write: true, Block: 100, Count: 1, Pages: [][]byte{wr},
		Done: func(*Request) { done++ },
	})
	eng.Run()
	rd := make([]byte, sim.DiskBlockSize)
	d.Submit(&Request{
		Block: 100, Count: 1, Pages: [][]byte{rd},
		Done: func(*Request) { done++ },
	})
	eng.Run()
	if done != 2 {
		t.Fatalf("completions = %d, want 2", done)
	}
	for i := range rd {
		if rd[i] != byte(i) {
			t.Fatalf("byte %d = %d, want %d", i, rd[i], byte(i))
		}
	}
}

func TestUnwrittenBlocksReadZero(t *testing.T) {
	eng, _, d := newDisk()
	rd := make([]byte, sim.DiskBlockSize)
	rd[0] = 0xFF
	d.Submit(&Request{Block: 5, Count: 1, Pages: [][]byte{rd}})
	eng.Run()
	if rd[0] != 0 {
		t.Fatal("unwritten block did not read as zero")
	}
}

// A write shorter than a block to a never-written block leaves the rest
// of the block zero, whatever the recycled buffer held before.
func TestShortWriteToFreshBlockZeroFills(t *testing.T) {
	_, _, d := newDisk()
	dirty := bufpool.GetDirty()
	for i := range dirty {
		dirty[i] = 0xAA
	}
	bufpool.Put(dirty)
	d.PokeBlock(7, []byte{1, 2, 3})
	got := d.PeekBlock(7)
	if got[0] != 1 || got[2] != 3 {
		t.Fatalf("block starts %v, want [1 2 3]", got[:3])
	}
	for i, c := range got[3:] {
		if c != 0 {
			t.Fatalf("byte %d = %#x past a short write, want 0", 3+i, c)
		}
	}
}

func TestSequentialCheaperThanScattered(t *testing.T) {
	// 8 sequential blocks must complete much faster than 8 scattered
	// ones — this asymmetry is what C-FFS exploits.
	eng1, _, d1 := newDisk()
	for i := 0; i < 8; i++ {
		d1.Submit(&Request{Block: BlockNo(1000 + i), Count: 1})
	}
	eng1.Run()
	seq := eng1.Now()

	eng2, _, d2 := newDisk()
	for i := 0; i < 8; i++ {
		d2.Submit(&Request{Block: BlockNo(1000 + i*50000), Count: 1})
	}
	eng2.Run()
	scattered := eng2.Now()

	if scattered < 3*seq {
		t.Fatalf("scattered %v vs sequential %v: not enough penalty", scattered, seq)
	}
}

func TestLargeRequestBeatsManySmall(t *testing.T) {
	eng1, _, d1 := newDisk()
	pages := make([][]byte, 16)
	for i := range pages {
		pages[i] = make([]byte, sim.DiskBlockSize)
	}
	d1.Submit(&Request{Block: 2000, Count: 16, Pages: pages})
	eng1.Run()
	one := eng1.Now()

	eng2, _, d2 := newDisk()
	for i := 0; i < 16; i++ {
		d2.Submit(&Request{Block: BlockNo(2000 + i), Count: 1})
	}
	eng2.Run()
	many := eng2.Now()

	if one >= many {
		t.Fatalf("one large request (%v) should beat 16 small (%v)", one, many)
	}
}

func TestCSCANOrdering(t *testing.T) {
	// Submit out of order while the disk is busy; completions must come
	// back in ascending block order (single sweep), not FIFO.
	eng, st, d := newDisk()
	var order []BlockNo
	mk := func(b BlockNo) *Request {
		return &Request{Block: b, Count: 1, Done: func(r *Request) {
			order = append(order, r.Block)
		}}
	}
	d.Submit(mk(500000)) // goes into service immediately
	d.Submit(mk(900000))
	d.Submit(mk(600000))
	d.Submit(mk(700000))
	eng.Run()
	want := []BlockNo{500000, 600000, 700000, 900000}
	for i, b := range want {
		if order[i] != b {
			t.Fatalf("service order = %v, want %v", order, want)
		}
	}
	if st.Get(sim.CtrDiskReads) != 4 {
		t.Fatalf("disk_reads = %d, want 4", st.Get(sim.CtrDiskReads))
	}
}

func TestCSCANWrapsAround(t *testing.T) {
	eng, _, d := newDisk()
	var order []BlockNo
	mk := func(b BlockNo) *Request {
		return &Request{Block: b, Count: 1, Done: func(r *Request) {
			order = append(order, r.Block)
		}}
	}
	d.Submit(mk(800000)) // enters service; head ends beyond 800000
	d.Submit(mk(100))
	d.Submit(mk(900000))
	eng.Run()
	// From head ~800001: 900000 first (upward), then wrap to 100.
	if len(order) != 3 || order[1] != 900000 || order[2] != 100 {
		t.Fatalf("order = %v, want [800000 900000 100]", order)
	}
}

func TestSortedScheduleBeatsUnsorted(t *testing.T) {
	// The XCP effect: submitting a large batch at once lets the driver
	// sort it; submitting one-at-a-time (waiting for each) forces the
	// random order. Use the same pseudo-random block list for both.
	rng := sim.NewRNG(1234)
	blocks := make([]BlockNo, 64)
	for i := range blocks {
		blocks[i] = BlockNo(rng.Intn(1 << 20))
	}

	engBatch, _, dBatch := newDisk()
	for _, b := range blocks {
		dBatch.Submit(&Request{Block: b, Count: 1})
	}
	engBatch.Run()
	batch := engBatch.Now()

	engSer, _, dSer := newDisk()
	i := 0
	var next func(*Request)
	next = func(*Request) {
		if i >= len(blocks) {
			return
		}
		b := blocks[i]
		i++
		dSer.Submit(&Request{Block: b, Count: 1, Done: next})
	}
	next(nil)
	engSer.Run()
	serial := engSer.Now()

	if batch >= serial {
		t.Fatalf("batched schedule (%v) should beat serial submission (%v)", batch, serial)
	}
}

func TestSeekCounterOnlyOnMoves(t *testing.T) {
	eng, st, d := newDisk()
	d.Submit(&Request{Block: 0, Count: 4})
	eng.Run()
	d.Submit(&Request{Block: 4, Count: 4}) // continues exactly at head
	eng.Run()
	if st.Get(sim.CtrDiskSeeks) != 0 {
		t.Fatalf("seeks = %d, want 0 for fully sequential access", st.Get(sim.CtrDiskSeeks))
	}
	d.Submit(&Request{Block: 100000, Count: 1})
	eng.Run()
	if st.Get(sim.CtrDiskSeeks) != 1 {
		t.Fatalf("seeks = %d, want 1", st.Get(sim.CtrDiskSeeks))
	}
}

func TestPeekPoke(t *testing.T) {
	_, _, d := newDisk()
	data := make([]byte, sim.DiskBlockSize)
	data[17] = 42
	d.PokeBlock(7, data)
	got := d.PeekBlock(7)
	if got[17] != 42 {
		t.Fatal("PokeBlock/PeekBlock round trip failed")
	}
	if d.PeekBlock(8)[17] != 0 {
		t.Fatal("PeekBlock of untouched block not zero")
	}
}

func TestSubmitValidation(t *testing.T) {
	_, _, d := newDisk()
	for _, r := range []*Request{
		{Block: 0, Count: 0},
		{Block: -1, Count: 1},
		{Block: 1 << 20, Count: 1},
		{Block: 0, Count: 2, Pages: [][]byte{nil}},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("Submit(%+v) did not panic", r)
				}
			}()
			d.Submit(r)
		}()
	}
}

// TestSnapshotExcludesQueued pins the documented power-failure
// semantics: a Snapshot taken while writes sit in the driver queue (or
// in service — DMA happens at completion) must not reflect them.
func TestSnapshotExcludesQueued(t *testing.T) {
	eng := sim.NewEngine()
	d := New(eng, sim.NewStats(), 1<<16)
	page := func(v byte) [][]byte {
		p := make([]byte, sim.DiskBlockSize)
		p[0] = v
		return [][]byte{p}
	}
	// Block 5 is durably on media before the "power failure".
	d.Submit(&Request{Write: true, Block: 5, Count: 1, Pages: page(0xAA)})
	eng.Run()
	// Block 6 goes into service immediately, block 7 waits in the
	// driver queue.
	d.Submit(&Request{Write: true, Block: 6, Count: 1, Pages: page(0xBB)})
	d.Submit(&Request{Write: true, Block: 7, Count: 1, Pages: page(0xCC)})

	snap := d.Snapshot()
	if got := snap[5]; got == nil || got[0] != 0xAA {
		t.Fatal("snapshot lost a completed write")
	}
	if _, ok := snap[6]; ok {
		t.Fatal("snapshot reflects an in-service write")
	}
	if _, ok := snap[7]; ok {
		t.Fatal("snapshot reflects a queued write")
	}

	// The snapshot is a deep copy: finishing the queued I/O afterwards
	// must not leak into it, while the live media does see the writes.
	eng.Run()
	if d.PeekBlock(6)[0] != 0xBB || d.PeekBlock(7)[0] != 0xCC {
		t.Fatal("queued writes never reached media")
	}
	if _, ok := snap[6]; ok {
		t.Fatal("snapshot aliases live media")
	}
}
