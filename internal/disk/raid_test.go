package disk

import (
	"testing"

	"xok/internal/sim"
)

func TestStripedRoundTrip(t *testing.T) {
	eng := sim.NewEngine()
	d := New(eng, sim.NewStats(), 1<<16, WithStriping(4, 16))
	if d.Spindles() != 4 {
		t.Fatalf("spindles = %d", d.Spindles())
	}
	// A request spanning several stripe units must still behave as one
	// logical I/O.
	const n = 64 // 4 stripe units per spindle
	wr := make([][]byte, n)
	for i := range wr {
		wr[i] = make([]byte, sim.DiskBlockSize)
		wr[i][0] = byte(i)
	}
	done := 0
	d.Submit(&Request{Write: true, Block: 100, Count: n, Pages: wr,
		Done: func(*Request) { done++ }})
	eng.Run()
	if done != 1 {
		t.Fatalf("write completions = %d, want exactly 1", done)
	}
	rd := make([][]byte, n)
	for i := range rd {
		rd[i] = make([]byte, sim.DiskBlockSize)
	}
	d.Submit(&Request{Block: 100, Count: n, Pages: rd,
		Done: func(*Request) { done++ }})
	eng.Run()
	if done != 2 {
		t.Fatalf("read completions = %d, want 2", done)
	}
	for i := range rd {
		if rd[i][0] != byte(i) {
			t.Fatalf("block %d corrupted across striping", i)
		}
	}
}

func TestStripingParallelism(t *testing.T) {
	// A large sequential transfer should finish ~n times faster on an
	// n-way stripe (transfer-time bound).
	elapsed := func(spindles int) sim.Time {
		eng := sim.NewEngine()
		d := New(eng, sim.NewStats(), 1<<20, WithStriping(spindles, 16))
		const blocks = 512
		d.Submit(&Request{Block: 0, Count: blocks})
		eng.Run()
		return eng.Now()
	}
	one := elapsed(1)
	four := elapsed(4)
	speedup := float64(one) / float64(four)
	if speedup < 2.5 {
		t.Fatalf("4-way stripe speedup = %.2fx, want near 4x", speedup)
	}
}

func TestStripingIndependentQueues(t *testing.T) {
	// Requests to different spindles proceed concurrently; requests to
	// the same spindle serialize.
	sameSpindle := func() sim.Time {
		eng := sim.NewEngine()
		d := New(eng, sim.NewStats(), 1<<20, WithStriping(4, 16))
		// Blocks 0 and 64 both map to spindle 0 (64/16 = 4 % 4 = 0).
		d.Submit(&Request{Block: 0, Count: 1})
		d.Submit(&Request{Block: 64, Count: 1})
		eng.Run()
		return eng.Now()
	}()
	diffSpindle := func() sim.Time {
		eng := sim.NewEngine()
		d := New(eng, sim.NewStats(), 1<<20, WithStriping(4, 16))
		// Blocks 0 and 16 map to spindles 0 and 1.
		d.Submit(&Request{Block: 0, Count: 1})
		d.Submit(&Request{Block: 16, Count: 1})
		eng.Run()
		return eng.Now()
	}()
	if diffSpindle >= sameSpindle {
		t.Fatalf("cross-spindle (%v) should beat same-spindle (%v)", diffSpindle, sameSpindle)
	}
}

// TestCSCANUsesPhysicalPositions is the regression test for the
// striped-disk elevator bug: pickNext used to sort the queue by
// *logical* block number and compare it against the head position,
// which complete() keeps in *physical* spindle-local space. On a
// 2-spindle stripe, logical numbers are ~2x any physical position, so
// a request physically *behind* the head (logical 70 → phys 38) was
// classified as "at or beyond" a head at phys 48 and serviced before a
// perfectly sequential request (logical 96 → phys 48), costing an
// extra seek.
func TestCSCANUsesPhysicalPositions(t *testing.T) {
	eng := sim.NewEngine()
	stats := sim.NewStats()
	d := New(eng, stats, 1<<16, WithStriping(2, 16))

	var order []string
	// r0: logical 64..79 → spindle 0, phys 32..47; head lands at 48.
	// Starts service immediately (spindle idle).
	d.Submit(&Request{Write: true, Block: 64, Count: 16,
		Done: func(*Request) { order = append(order, "r0") }})
	// Queued while r0 is in service, both also spindle 0:
	// rB: logical 70 → phys 38 (physically behind the post-r0 head).
	d.Submit(&Request{Block: 70, Count: 1,
		Done: func(*Request) { order = append(order, "rB") }})
	// rA: logical 96 → phys 48 (exactly sequential after r0).
	d.Submit(&Request{Block: 96, Count: 1,
		Done: func(*Request) { order = append(order, "rA") }})
	eng.Run()

	if len(order) != 3 || order[0] != "r0" || order[1] != "rA" || order[2] != "rB" {
		t.Fatalf("service order = %v, want [r0 rA rB] (physical CSCAN)", order)
	}
	// r0 pays the initial seek (0→32); rA is sequential; rB seeks. The
	// logical-space elevator serviced rB first and paid three seeks.
	if got := stats.Get(sim.CtrDiskSeeks); got != 2 {
		t.Fatalf("seeks = %d, want 2", got)
	}
}

// TestSeekCalibrationPerSpindle is the regression test for the seek
// curve: each drive of a striped set holds nblocks/n blocks, so a
// seek of a given physical distance must cost the same as on a
// standalone disk of that per-spindle size. The old code calibrated
// against the *total* logical size, making every striped spindle
// behave as an n-times-larger platter with correspondingly
// underestimated seek times.
func TestSeekCalibrationPerSpindle(t *testing.T) {
	// Standalone disk, 1<<16 blocks: service block 0, then block 800.
	single := sim.NewEngine()
	ds := New(single, sim.NewStats(), 1<<16)
	ds.Submit(&Request{Block: 0, Count: 1})
	ds.Submit(&Request{Block: 800, Count: 1})
	single.Run()

	// 4-way stripe, same 1<<16 blocks *per spindle*: logical 0 and
	// logical 3200 both live on spindle 0 at phys 0 and phys 800 — the
	// identical physical schedule.
	striped := sim.NewEngine()
	dr := New(striped, sim.NewStats(), 4<<16, WithStriping(4, 16))
	dr.Submit(&Request{Block: 0, Count: 1})
	dr.Submit(&Request{Block: 3200, Count: 1})
	striped.Run()

	if single.Now() != striped.Now() {
		t.Fatalf("same physical schedule, different time: single=%v striped=%v",
			single.Now(), striped.Now())
	}
}

// TestSplitCountdownManyUnits exercises the split countdown: one
// request crossing three stripe units (three spindles) must deliver
// exactly one Done, at the instant the *last* piece completes.
func TestSplitCountdownManyUnits(t *testing.T) {
	eng := sim.NewEngine()
	d := New(eng, sim.NewStats(), 1<<16, WithStriping(4, 16))
	// Blocks 8..47 → pieces [8,+8) [16,+16) [32,+16) on spindles 0,1,2.
	const start, n = 8, 40
	wr := make([][]byte, n)
	for i := range wr {
		wr[i] = make([]byte, sim.DiskBlockSize)
		wr[i][0] = byte(i + 1)
	}
	done := 0
	var doneAt sim.Time
	d.Submit(&Request{Write: true, Block: start, Count: n, Pages: wr,
		Done: func(*Request) { done++; doneAt = eng.Now() }})
	eng.Run()
	if done != 1 {
		t.Fatalf("completions = %d, want exactly 1", done)
	}
	if doneAt != eng.Now() {
		t.Fatalf("Done fired at %v before the last piece completed (%v)", doneAt, eng.Now())
	}
	for i := 0; i < n; i++ {
		if got := d.PeekBlock(BlockNo(start + i))[0]; got != byte(i+1) {
			t.Fatalf("block %d = %d after split write, want %d", start+i, got, i+1)
		}
	}
}

// TestSnapshotExcludesQueued pins the documented power-failure
// semantics: a Snapshot taken while writes sit in the driver queue (or
// in service — DMA happens at completion) must not reflect them.
func TestSnapshotExcludesQueued(t *testing.T) {
	eng := sim.NewEngine()
	d := New(eng, sim.NewStats(), 1<<16, WithStriping(2, 16))
	page := func(v byte) [][]byte {
		p := make([]byte, sim.DiskBlockSize)
		p[0] = v
		return [][]byte{p}
	}
	// Block 5 is durably on media before the "power failure".
	d.Submit(&Request{Write: true, Block: 5, Count: 1, Pages: page(0xAA)})
	eng.Run()
	// Same spindle as block 5 (unit 0 → spindle 0): block 6 goes into
	// service immediately, block 7 waits in the driver queue.
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

func TestSingleSpindleUnchanged(t *testing.T) {
	// New() must behave exactly as before the striping refactor: one
	// spindle, whole volume.
	eng := sim.NewEngine()
	d := New(eng, sim.NewStats(), 1000)
	if d.Spindles() != 1 {
		t.Fatalf("spindles = %d", d.Spindles())
	}
	done := false
	d.Submit(&Request{Block: 999, Count: 1, Done: func(*Request) { done = true }})
	eng.Run()
	if !done {
		t.Fatal("request never completed")
	}
}
