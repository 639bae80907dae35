package disk

import (
	"testing"

	"xok/internal/sim"
)

// TestWritePathSteadyStateAllocs pins the steady-state allocation count
// of the hot block-write path: Submit + service + DMA of one 4-KB block
// that already exists on the media. This is the path every C-FFS sync
// write and crash-enumeration trial hammers: the media block, the
// request, the queue and the completion timer must all be reused.
func TestWritePathSteadyStateAllocs(t *testing.T) {
	eng, _, d := newDisk()
	page := make([]byte, sim.DiskBlockSize)
	pages := [][]byte{page}
	req := &Request{}

	write := func() {
		*req = Request{Write: true, Block: 777, Count: 1, Pages: pages}
		d.Submit(req)
		eng.Run()
	}
	write() // first touch allocates the media block; steady state must not

	// A fresh 4-KB block or per-request closure on this path shows up
	// as +1.
	if avg := testing.AllocsPerRun(200, write); avg > 0 {
		t.Fatalf("steady-state disk write path: %.1f allocs/op, want 0", avg)
	}
}
