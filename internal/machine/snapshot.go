package machine

import (
	"fmt"

	"xok/internal/bsdos"
	"xok/internal/exos"
)

// Snapshot is a frozen machine of any personality, taken at a
// quiescent point (all processes exited, event queue drained —
// exactly the state between two Run calls). Fork builds as many
// independent continuations as needed, concurrently if the caller
// likes: the snapshot is read-only, memory pages and disk blocks are
// copy-on-write, and each fork gets its own engine, tracer clone and
// fault-plan streams resumed mid-position. Replay equivalence is the
// contract: a fork runs bit-identically to a machine that reached the
// snapshot point from boot (trace digests, cycle counts, crash
// images).
type Snapshot struct {
	pers Personality
	xok  *exos.Snapshot
	bsd  *bsdos.Snapshot
}

// Personality reports which system the snapshot came from.
func (s *Snapshot) Personality() Personality { return s.pers }

// Snapshot implements Machine. A machine attached to a shared network
// fabric can only be snapshotted while the fabric is quiesced — no
// in-flight packets or timers anywhere on the shared engine — and the
// fork runs standalone (its own clock, no NIC).
func (m Xok) Snapshot() (*Snapshot, error) {
	pers := XokExOS
	if m.S.X.FreeCost {
		pers = XokUnprotected
	}
	sn, err := m.S.Snapshot()
	if err != nil {
		return nil, err
	}
	return &Snapshot{pers: pers, xok: sn}, nil
}

// Snapshot implements Machine, with the same fabric rules as Xok's.
func (m BSD) Snapshot() (*Snapshot, error) {
	var pers Personality
	switch m.S.Variant {
	case bsdos.FreeBSD:
		pers = FreeBSD
	case bsdos.OpenBSD:
		pers = OpenBSD
	case bsdos.OpenBSDCFFS:
		pers = OpenBSDCFFS
	}
	sn, err := m.S.Snapshot()
	if err != nil {
		return nil, err
	}
	return &Snapshot{pers: pers, bsd: sn}, nil
}

// Fork builds a new machine continuing from the snapshot. Safe to call
// concurrently on one snapshot — forks share the frozen state
// read-only and copy pages/blocks up privately on first write.
func Fork(s *Snapshot) Machine {
	switch {
	case s.xok != nil:
		return Xok{S: exos.Fork(s.xok)}
	case s.bsd != nil:
		return BSD{S: bsdos.Fork(s.bsd)}
	}
	panic(fmt.Sprintf("machine: empty snapshot (personality %v)", s.pers))
}

// Release returns the snapshot's frozen page and block buffers to the
// shared pool. Only legal once the snapshotted machine and every fork
// are closed; snapshots taken later on the same machine (whose layers
// chain over this one) must be released no earlier than this one's
// forks are done too.
func (s *Snapshot) Release() {
	if s.xok != nil {
		s.xok.Release()
	}
	if s.bsd != nil {
		s.bsd.Release()
	}
}
