package bsdos

import (
	"xok/internal/kernel"
	"xok/internal/posix"
	"xok/internal/sim"
	"xok/internal/unix"
)

// costPipeWakeup is the tsleep/wakeup + scheduler-queue overhead per
// blocking handoff, beyond the generic context switch.
const costPipeWakeup = 8 * sim.Microsecond

// bsdPipe is the in-kernel 4.4BSD pipe: every transfer is a system
// call that copies between the user buffer and a kernel buffer, and
// blocking goes through the kernel sleep queue (tsleep/wakeup), which
// costs a full reschedule. Table 2 reports 34 us / 160 us for the 1-B
// and 8-KB latencies on OpenBSD.
type bsdPipe struct {
	posix.PipeEnds

	buf        []byte // the kernel buffer, allocated on the first write
	count      int64
	rpos, wpos int
}

func (p *bsdPipe) moveBytes(e *kernel.Env, n int) {
	e.Use(sim.CopyCost(n))
	e.Kernel().Stats.Add(sim.CtrBytesCopied, int64(n))
}

// Write copies data into the kernel buffer, sleeping while it is full.
func (p *bsdPipe) Write(e *kernel.Env, data []byte) (int, error) {
	n := 0
	for n < len(data) {
		if p.RClosed() {
			return n, unix.ErrPipe
		}
		space := posix.PipeCapacity - int(p.count)
		if space == 0 {
			p.WriterWaiting = e
			e.Use(costPipeWakeup)
			if r := p.ReaderWaiting; r != nil {
				p.ReaderWaiting = nil
				e.Kernel().Wake(r)
			}
			e.Block()
			continue
		}
		chunk := len(data) - n
		if chunk > space {
			chunk = space
		}
		// Copy user -> kernel buffer.
		if p.buf == nil {
			p.buf = make([]byte, posix.PipeCapacity)
		}
		for c := chunk; c > 0; {
			seg := c
			if p.wpos+seg > posix.PipeCapacity {
				seg = posix.PipeCapacity - p.wpos
			}
			copy(p.buf[p.wpos:], data[n:n+seg])
			p.wpos = (p.wpos + seg) % posix.PipeCapacity
			c -= seg
			n += seg
		}
		p.moveBytes(e, chunk)
		p.count += int64(chunk)
	}
	if r := p.ReaderWaiting; r != nil && p.count > 0 {
		p.ReaderWaiting = nil
		e.Use(costPipeWakeup)
		e.Kernel().Wake(r)
	}
	return n, nil
}

// Read copies out of the kernel buffer, sleeping while it is empty.
func (p *bsdPipe) Read(e *kernel.Env, buf []byte) (int, error) {
	for p.count == 0 {
		if p.WClosed() {
			return 0, nil
		}
		p.ReaderWaiting = e
		e.Use(costPipeWakeup)
		if w := p.WriterWaiting; w != nil {
			p.WriterWaiting = nil
			e.Kernel().Wake(w)
		}
		e.Block()
	}
	chunk := len(buf)
	if int64(chunk) > p.count {
		chunk = int(p.count)
	}
	// Copy kernel buffer -> user.
	for c, off := chunk, 0; c > 0; {
		seg := c
		if p.rpos+seg > posix.PipeCapacity {
			seg = posix.PipeCapacity - p.rpos
		}
		copy(buf[off:off+seg], p.buf[p.rpos:])
		p.rpos = (p.rpos + seg) % posix.PipeCapacity
		c -= seg
		off += seg
	}
	p.moveBytes(e, chunk)
	p.count -= int64(chunk)
	if w := p.WriterWaiting; w != nil {
		p.WriterWaiting = nil
		e.Use(costPipeWakeup)
		e.Kernel().Wake(w)
	}
	return chunk, nil
}
