package posix

import "xok/internal/kernel"

// PipeCapacity is the byte size of every personality's pipe ring: a
// write blocks once this many bytes wait unread.
const PipeCapacity = 16384

// Pipe is one personality's pipe: its buffer, its copy charges and how
// a blocked end waits. The descriptor bookkeeping every pipe shares
// comes from embedding PipeEnds.
type Pipe interface {
	// Read receives up to len(buf) bytes, blocking while the pipe is
	// empty; it returns 0, nil at EOF.
	Read(e *kernel.Env, buf []byte) (int, error)
	// Write sends data, blocking while the pipe is full; it fails with
	// unix.ErrPipe once no read end is open.
	Write(e *kernel.Env, data []byte) (int, error)

	ends() *PipeEnds
}

// PipeEnds counts a pipe's open descriptors per end and names the
// peer blocked on each. Fork shares ends, so EOF and EPIPE only fire
// when the last descriptor of an end closes.
type PipeEnds struct {
	// ReaderWaiting and WriterWaiting are the environments blocked on
	// an empty and a full pipe (nil = none). Closing the last
	// descriptor of the other end wakes them.
	ReaderWaiting *kernel.Env
	WriterWaiting *kernel.Env

	readers int
	writers int
}

func (p *PipeEnds) ends() *PipeEnds { return p }

// RClosed reports that every read descriptor is closed.
func (p *PipeEnds) RClosed() bool { return p.readers == 0 }

// WClosed reports that every write descriptor is closed.
func (p *PipeEnds) WClosed() bool { return p.writers == 0 }

// closeEnd releases one descriptor of an end; when the last one goes,
// any peer blocked on that end wakes (EOF / EPIPE).
func (p *PipeEnds) closeEnd(e *kernel.Env, writeEnd bool) {
	if writeEnd {
		if p.writers > 0 {
			p.writers--
		}
		if r := p.ReaderWaiting; r != nil && p.WClosed() {
			p.ReaderWaiting = nil
			e.Kernel().Wake(r)
		}
	} else {
		if p.readers > 0 {
			p.readers--
		}
		if w := p.WriterWaiting; w != nil && p.RClosed() {
			p.WriterWaiting = nil
			e.Kernel().Wake(w)
		}
	}
}

// addRef notes a forked descriptor sharing this end.
func (p *PipeEnds) addRef(writeEnd bool) {
	if writeEnd {
		p.writers++
	} else {
		p.readers++
	}
}
