package mem

import (
	"xok/internal/bufpool"
	"xok/internal/sim"
)

// Snap is frozen physical-memory state: the page-frame metadata array,
// the free list, and the LRU clock, with every materialized frame
// buffer marked shared. Frames are copy-on-write from here on — the
// snapshotted machine and every fork copy a frozen buffer up into a
// private one on first access (see Data), so a fork costs the metadata
// arrays, not the resident set.
//
// A Snap owns exactly the buffers it froze (those not already frozen
// by an earlier snapshot); Release returns them to bufpool once no
// machine forked from the snapshot can touch them again. Forking from
// one Snap is safe from concurrent goroutines: forks only read it.
type Snap struct {
	pages    []page // the frames below fresh; the rest are zero
	npages   int
	freeList []PageNo
	fresh    int
	useClock uint64
	owned    [][]byte // buffers this snapshot froze; returned on Release
}

// Freeze captures m's current state and flips every materialized frame
// buffer to copy-on-write. m keeps running afterwards — its first
// write (or read) of a frozen frame copies the buffer up.
func (m *PhysMem) Freeze() *Snap {
	s := &Snap{npages: len(m.pages), fresh: m.fresh, useClock: m.useClock}
	s.freeList = append([]PageNo(nil), m.freeList...)
	touched := m.pages[:m.fresh]
	for i := range touched {
		pg := &touched[i]
		if pg.data != nil && !pg.shared {
			s.owned = append(s.owned, pg.data)
			pg.shared = true
		}
	}
	s.pages = append([]page(nil), touched...)
	return s
}

// Fork builds a new PhysMem continuing from the snapshot. All frames
// with data start shared (copy-on-write against the frozen buffers).
func (s *Snap) Fork(stats *sim.Stats) *PhysMem {
	m := shell(s.npages, stats)
	m.useClock = s.useClock
	m.fresh = s.fresh
	copy(m.pages, s.pages)
	if cap(m.freeList) >= len(s.freeList) {
		m.freeList = m.freeList[:len(s.freeList)]
	} else {
		m.freeList = make([]PageNo, len(s.freeList))
	}
	copy(m.freeList, s.freeList)
	return m
}

// Release returns the snapshot's frozen buffers to bufpool. Only legal
// once every machine forked from the snapshot (and the machine it was
// taken from) has been closed or will never touch memory again.
func (s *Snap) Release() {
	for _, b := range s.owned {
		bufpool.Put(b)
	}
	s.owned = nil
	s.pages = nil
	s.freeList = nil
}
