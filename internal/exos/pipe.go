package exos

import (
	"xok/internal/cap"
	"xok/internal/kernel"
	"xok/internal/posix"
	"xok/internal/sim"
	"xok/internal/unix"
	"xok/internal/wkpred"
)

// Pipes (Section 5.2.1): "implemented using Xok's software regions,
// coupled with a 'directed yield' to the other party when it is
// required to do work (i.e., if the queue is full or empty)".
//
// Two trust levels exist, matching Table 2:
//
//   - shared-memory (mutual trust): the ring buffer lives in memory
//     both processes map; transfers are bare copies.
//   - protected: the ring lives in a software region, so every data
//     movement is a system call, and — gratuitously, as the paper
//     notes — a wakeup predicate is installed on every read.
//
// Both use directed yields for the handoff.

type pipe struct {
	posix.PipeEnds
	shared bool

	buf    []byte // shared-memory variant storage, allocated on the first write
	region kernel.RegionID

	count      int64 // bytes buffered; watched by wakeup predicates
	rpos, wpos int

	pred *wkpred.Pred
}

func newPipe(e *kernel.Env, shared bool) *pipe {
	p := &pipe{shared: shared}
	if shared {
		e.LibCall(sim.CopyCost(64)) // set up the shared mapping
	} else {
		p.region = e.RegionCreate(posix.PipeCapacity, cap.Root(true))
		pr, err := wkpred.Compile(wkpred.Cmp(wkpred.GT, wkpred.Load(&p.count), wkpred.Const(0)))
		if err != nil {
			panic("exos: pipe predicate: " + err.Error())
		}
		p.pred = pr
	}
	return p
}

// moveIn copies src into the ring at wpos (through the region in
// protected mode), advancing wpos.
func (p *pipe) moveIn(e *kernel.Env, src []byte) {
	for len(src) > 0 {
		seg := len(src)
		if p.wpos+seg > posix.PipeCapacity {
			seg = posix.PipeCapacity - p.wpos
		}
		if p.shared {
			if p.buf == nil {
				p.buf = make([]byte, posix.PipeCapacity)
			}
			copy(p.buf[p.wpos:], src[:seg])
			e.Use(sim.CopyCost(seg))
			e.Kernel().Stats.Add(sim.CtrBytesCopied, int64(seg))
		} else {
			e.Use(sim.CostRegionCheck)
			if err := e.RegionWrite(p.region, p.wpos, src[:seg]); err != nil {
				panic("exos: pipe region write: " + err.Error())
			}
		}
		p.wpos = (p.wpos + seg) % posix.PipeCapacity
		src = src[seg:]
	}
}

// moveOut copies from the ring at rpos into dst, advancing rpos.
func (p *pipe) moveOut(e *kernel.Env, dst []byte) {
	for len(dst) > 0 {
		seg := len(dst)
		if p.rpos+seg > posix.PipeCapacity {
			seg = posix.PipeCapacity - p.rpos
		}
		if p.shared {
			copy(dst[:seg], p.buf[p.rpos:])
			e.Use(sim.CopyCost(seg))
			e.Kernel().Stats.Add(sim.CtrBytesCopied, int64(seg))
		} else {
			e.Use(sim.CostRegionCheck)
			if err := e.RegionRead(p.region, p.rpos, dst[:seg]); err != nil {
				panic("exos: pipe region read: " + err.Error())
			}
		}
		p.rpos = (p.rpos + seg) % posix.PipeCapacity
		dst = dst[seg:]
	}
}

// Write sends data, blocking (with directed yields to the reader) when
// the queue fills.
func (p *pipe) Write(e *kernel.Env, data []byte) (int, error) {
	e.LibCall(60)
	n := 0
	for n < len(data) {
		if p.RClosed() {
			return n, unix.ErrPipe
		}
		space := posix.PipeCapacity - int(p.count)
		if space == 0 {
			// Queue full: the reader must do work — yield to it, or
			// block until a read drains the queue.
			p.WriterWaiting = e
			if r := p.ReaderWaiting; r != nil {
				p.ReaderWaiting = nil
				e.YieldTo(r)
			} else {
				e.Block()
			}
			continue
		}
		chunk := len(data) - n
		if chunk > space {
			chunk = space
		}
		p.moveIn(e, data[n:n+chunk])
		p.count += int64(chunk)
		n += chunk
	}
	if r := p.ReaderWaiting; r != nil && p.count > 0 {
		p.ReaderWaiting = nil
		e.YieldTo(r)
	}
	return n, nil
}

// Read receives up to len(buf) bytes; returns 0, nil at EOF.
func (p *pipe) Read(e *kernel.Env, buf []byte) (int, error) {
	e.LibCall(60)
	if !p.shared {
		// "...installs a wakeup predicate on every read (something
		// unnecessary even with mutual distrust)" — the gratuitous
		// protection Table 2 measures. Each install compiles the
		// predicate and pre-translates its addresses.
		e.Syscall(sim.CostPredicateDownload)
	}
	for p.count == 0 {
		if p.WClosed() {
			return 0, nil // EOF
		}
		p.ReaderWaiting = e
		w := p.WriterWaiting
		p.WriterWaiting = nil
		if !p.shared {
			// Sleep on the predicate; the writer's yield makes the
			// dispatch pass that re-evaluates it.
			if w != nil {
				e.YieldTo(w)
			} else {
				e.SleepOn(p.pred, 0)
			}
		} else if w != nil {
			e.YieldTo(w)
		} else {
			e.Block()
		}
	}
	chunk := len(buf)
	if int64(chunk) > p.count {
		chunk = int(p.count)
	}
	p.moveOut(e, buf[:chunk])
	p.count -= int64(chunk)
	if w := p.WriterWaiting; w != nil {
		p.WriterWaiting = nil
		e.Kernel().Wake(w)
	}
	return chunk, nil
}
