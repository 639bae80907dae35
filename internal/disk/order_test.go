package disk

import (
	"fmt"
	"sort"
	"testing"

	"xok/internal/sim"
)

// The reference scheduler is the driver as it was before its queue was
// kept in block order: Submit appends, and every pick stable-sorts the
// whole queue by block and takes the first request at or beyond the
// head, wrapping to the lowest. It runs on a Disk of its own for
// geometry and timing (serviceTime) but never calls Submit, startNext
// or complete.
type refDisk struct {
	*Disk
	wraps int // picks that wrapped past the highest queued block
}

func (d *refDisk) submit(r *Request) {
	r.queuedAt = d.eng.Now()
	d.sp.queue = append(d.sp.queue, r)
	if !d.sp.busy {
		d.start()
	}
}

func (d *refDisk) pick() *Request {
	sp := &d.sp
	if len(sp.queue) == 0 {
		return nil
	}
	if d.FIFO {
		r := sp.queue[0]
		sp.queue = sp.queue[1:]
		return r
	}
	sort.SliceStable(sp.queue, func(i, j int) bool {
		return sp.queue[i].Block < sp.queue[j].Block
	})
	idx := -1
	for i, r := range sp.queue {
		if r.Block >= sp.head {
			idx = i
			break
		}
	}
	if idx == -1 {
		idx = 0
		d.wraps++
	}
	r := sp.queue[idx]
	sp.queue = append(sp.queue[:idx], sp.queue[idx+1:]...)
	return r
}

func (d *refDisk) start() {
	r := d.pick()
	if r == nil {
		d.sp.busy = false
		return
	}
	d.sp.busy = true
	d.eng.After(d.serviceTime(r), func() {
		d.sp.head = r.Block + BlockNo(r.Count)
		done := r.Done
		d.start()
		if done != nil {
			done(r)
		}
	})
}

// completion is one request's Done, as the test observes it.
type completion struct {
	id int
	at sim.Time
}

// orderTrial drives one random schedule of requests through submit (a
// real Disk's or the reference's) on eng and returns the completions in
// the order Done fired. Requests land on a few hot blocks (so
// duplicates queue together), arrive in bursts at one instant and
// while the spindle is busy, and some completions submit
// a follow-up request from inside Done.
func orderTrial(seed uint64, eng *sim.Engine, nblocks int64, submit func(*Request)) []completion {
	rng := sim.NewRNG(seed)
	hot := make([]BlockNo, 6)
	for i := range hot {
		hot[i] = BlockNo(rng.Intn(int(nblocks - 40)))
	}
	var out []completion
	next := 0
	var mk func() *Request
	mk = func() *Request {
		id := next
		next++
		b := BlockNo(rng.Intn(int(nblocks - 40)))
		if rng.Intn(3) == 0 {
			b = hot[rng.Intn(len(hot))]
		}
		count := 1 + rng.Intn(8)
		if rng.Intn(5) == 0 {
			count += rng.Intn(32)
		}
		follow := rng.Intn(6) == 0
		return &Request{Write: rng.Intn(2) == 0, Block: b, Count: count, Done: func(r *Request) {
			out = append(out, completion{id, eng.Now()})
			if follow {
				submit(mk())
			}
		}}
	}
	at := sim.Time(0)
	for i := 0; i < 150; i++ {
		reqs := []*Request{mk()}
		for rng.Intn(3) == 0 {
			reqs = append(reqs, mk())
		}
		eng.At(at, func() {
			for _, r := range reqs {
				submit(r)
			}
		})
		at += sim.Time(rng.Intn(int(12 * sim.Millisecond)))
	}
	eng.Run()
	return out
}

// TestQueueOrderMatchesReference checks that a queue kept in block
// order services exactly as the sort-every-pick reference: the same
// Done order at the same virtual times, and the same seek count, in
// CSCAN and FIFO mode.
func TestQueueOrderMatchesReference(t *testing.T) {
	const nblocks = 4096
	wraps := 0
	for seed := uint64(1); seed <= 12; seed++ {
		fifo := seed%4 == 0
		name := fmt.Sprintf("seed=%d/fifo=%v", seed, fifo)

		eng, st := sim.NewEngine(), sim.NewStats()
		d := New(eng, st, nblocks)
		d.FIFO = fifo
		got := orderTrial(seed, eng, nblocks, d.Submit)

		refEng, refSt := sim.NewEngine(), sim.NewStats()
		ref := &refDisk{Disk: New(refEng, refSt, nblocks)}
		ref.FIFO = fifo
		want := orderTrial(seed, refEng, nblocks, ref.submit)
		wraps += ref.wraps

		if len(got) != len(want) {
			t.Fatalf("%s: %d completions, reference %d", name, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: completion %d is %+v, reference %+v", name, i, got[i], want[i])
			}
		}
		if a, b := st.Get(sim.CtrDiskSeeks), refSt.Get(sim.CtrDiskSeeks); a != b {
			t.Fatalf("%s: %d seeks, reference %d", name, a, b)
		}
	}
	if wraps == 0 {
		t.Fatal("no trial wrapped the head past the highest queued request")
	}
}

// Switching FIFO while requests are queued would service them in an
// order neither mode defines; the driver refuses at its next pick.
func TestFIFOChangeWhileQueuedPanics(t *testing.T) {
	eng, _, d := newDisk()
	d.Submit(&Request{Block: 500, Count: 1}) // in service
	d.Submit(&Request{Block: 100, Count: 1}) // queued
	d.FIFO = true
	defer func() {
		if recover() == nil {
			t.Fatal("FIFO changed with a queued request, and the driver went on")
		}
	}()
	eng.Run()
}
