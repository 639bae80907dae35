package disk

import (
	"bytes"
	"testing"

	"xok/internal/fault"
	"xok/internal/sim"
)

// pattern fills a 4-KB page with a recognizable byte.
func pattern(b byte) []byte {
	p := make([]byte, sim.DiskBlockSize)
	for i := range p {
		p[i] = b
	}
	return p
}

func TestReadMediaErrorInjection(t *testing.T) {
	eng := sim.NewEngine()
	d := New(eng, nil, 1024, WithFaults(&fault.Plan{Seed: 3, ReadErrRate: 1}))
	d.PokeBlock(5, pattern(0xAB))
	page := make([]byte, sim.DiskBlockSize)
	var got *Request
	d.Submit(&Request{Block: 5, Count: 1, Pages: [][]byte{page},
		Done: func(r *Request) { got = r }})
	eng.Run()
	if got == nil || got.Err != fault.ErrMedia {
		t.Fatalf("request err = %v, want ErrMedia", got.Err)
	}
	if page[0] == 0xAB {
		t.Fatal("failed read still transferred data")
	}
	// Writes never carry media errors.
	var wr *Request
	d.Submit(&Request{Write: true, Block: 6, Count: 1, Pages: [][]byte{pattern(1)},
		Done: func(r *Request) { wr = r }})
	eng.Run()
	if wr == nil || wr.Err != nil {
		t.Fatalf("write err = %v", wr.Err)
	}
}

func TestWriteBoundaryObserver(t *testing.T) {
	eng := sim.NewEngine()
	plan := &fault.Plan{}
	var at []sim.Time
	var blocks []int64
	plan.ObserveWrites(func(t sim.Time, b int64, n int) {
		at = append(at, t)
		blocks = append(blocks, b)
	})
	d := New(eng, nil, 1024, WithFaults(plan))
	d.Submit(&Request{Write: true, Block: 7, Count: 2})
	d.Submit(&Request{Block: 9, Count: 1}) // a read: not a boundary
	eng.Run()
	if len(at) != 1 || blocks[0] != 7 || at[0] == 0 {
		t.Fatalf("observed writes at %v blocks %v, want one boundary at block 7", at, blocks)
	}
}

func TestCrashImageTornWrite(t *testing.T) {
	const nblk = 4
	mid := func(torn bool) Image {
		eng := sim.NewEngine()
		var plan *fault.Plan
		if torn {
			plan = &fault.Plan{TornWrites: true}
		}
		d := New(eng, nil, 1024, WithFaults(plan))
		pages := make([][]byte, nblk)
		for i := range pages {
			pages[i] = pattern(byte(0x10 + i))
		}
		d.Submit(&Request{Write: true, Block: 0, Count: nblk, Pages: pages})
		// Head starts at block 0, so service is controller overhead +
		// transfer only. Stop mid-transfer of block 2 (half-way in).
		eng.RunUntil(sim.DiskControllerOverhead + sim.DiskTransferPerBlock*5/2)
		return d.Crash().Flatten()
	}

	// Without torn writes armed, the in-flight request must vanish.
	if img := mid(false); len(img) != 0 {
		t.Fatalf("untorn crash image has %d blocks, want 0", len(img))
	}

	img := mid(true)
	// Blocks 0 and 1 transferred whole; block 2 is half-written; block
	// 3 never reached the media.
	for i := 0; i < 2; i++ {
		if !bytes.Equal(img[BlockNo(i)], pattern(byte(0x10+i))) {
			t.Fatalf("block %d not fully applied in torn image", i)
		}
	}
	b2, ok := img[2]
	if !ok {
		t.Fatal("torn block 2 missing")
	}
	half := sim.DiskBlockSize / 2
	if !bytes.Equal(b2[:half], pattern(0x12)[:half]) {
		t.Fatal("torn block 2 prefix not the new data")
	}
	if !bytes.Equal(b2[half:], make([]byte, sim.DiskBlockSize-half)) {
		t.Fatal("torn block 2 suffix should be the old (zero) data")
	}
	if _, ok := img[3]; ok {
		t.Fatal("block 3 appeared although never transferred")
	}
}

// Crash freezes the overlay over the checkpoint layers in place: the
// image flattens to the media a power failure leaves (torn blocks
// included), a disk that adopts it reads exactly that media from its
// own fresh arm, and writes after the crash — by the adopting disk or
// the crashed one — leave the image untouched.
func TestCrashOverCheckpointLayers(t *testing.T) {
	eng := sim.NewEngine()
	d := New(eng, nil, 1024, WithFaults(&fault.Plan{TornWrites: true}))
	d.PokeBlock(1, pattern(1))
	d.PokeBlock(2, pattern(2))
	d.PokeBlock(6, pattern(6)) // the torn block's old contents
	// A timed write leaves the arm at block 4, so the write below is
	// sequential; an adopting disk must not inherit the arm.
	d.Submit(&Request{Write: true, Block: 3, Count: 1, Pages: [][]byte{pattern(3)}})
	eng.Run()
	cp := d.Checkpoint()
	d.PokeBlock(2, pattern(0x22)) // copied up into the overlay
	pages := [][]byte{pattern(0x44), pattern(0x55), pattern(0x66), pattern(0x77)}
	d.Submit(&Request{Write: true, Block: 4, Count: 4, Pages: pages})
	eng.RunUntil(eng.Now() + sim.DiskControllerOverhead + sim.DiskTransferPerBlock*5/2)
	ci := d.Crash()

	torn := pattern(6) // half transferred over the old contents
	copy(torn[:sim.DiskBlockSize/2], pattern(0x66))
	want := map[BlockNo][]byte{1: pattern(1), 2: pattern(0x22), 3: pattern(3), 4: pattern(0x44), 5: pattern(0x55), 6: torn}
	check := func(what string, read func(BlockNo) ([]byte, bool)) {
		t.Helper()
		for b := BlockNo(0); b < 16; b++ {
			got, ok := read(b)
			w, wok := want[b]
			if ok != wok || !bytes.Equal(got, w) {
				t.Errorf("%s: block %d present=%v, want present=%v and the crash-time media", what, b, ok, wok)
			}
		}
	}
	flat := ci.Flatten()
	check("flattened image", func(b BlockNo) ([]byte, bool) { blk, ok := flat[b]; return blk, ok })

	a := New(sim.NewEngine(), nil, 1024)
	a.AdoptCrash(ci)
	check("adopting disk", a.lookup)
	if a.sp.head != 0 {
		t.Errorf("adopting disk's arm at %d, want a fresh disk's 0", a.sp.head)
	}
	a.PokeBlock(1, pattern(0xA1))
	a.PokeBlock(6, pattern(0xA6))
	d.PokeBlock(3, pattern(0xD3))
	again := ci.Flatten()
	check("image after writes to both disks", func(b BlockNo) ([]byte, bool) { blk, ok := again[b]; return blk, ok })
	if got := a.PeekBlock(1); got[0] != 0xA1 {
		t.Error("adopting disk lost its own write")
	}

	a.Recycle()
	d.Recycle()
	RecycleImage(flat)
	RecycleImage(again)
	ci.Release()
	cp.Release()
}
