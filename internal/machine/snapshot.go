package machine

import "xok/internal/posix"

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
	sn   *posix.Snapshot
}

// Snapshot freezes the machine at a quiescent point (all processes
// exited, event queue drained) into a forkable checkpoint. The machine
// keeps running afterwards (copy-on-write). Errors if the machine is
// not quiescent. A machine attached to a shared network fabric can
// only be snapshotted while the fabric is quiesced — no in-flight
// packets or timers anywhere on the shared engine — and the fork runs
// standalone (its own clock, no NIC).
func (m Machine) Snapshot() (*Snapshot, error) {
	sn, err := m.System.Snapshot()
	if err != nil {
		return nil, err
	}
	return &Snapshot{pers: m.pers, sn: sn}, nil
}

// Fork builds a new machine continuing from the snapshot. Safe to call
// concurrently on one snapshot — forks share the frozen state
// read-only and copy pages/blocks up privately on first write.
func Fork(s *Snapshot) Machine { return Machine{posix.Fork(s.sn), s.pers} }

// Release returns the snapshot's frozen page and block buffers to the
// shared pool. Only legal once the snapshotted machine and every fork
// are closed; snapshots taken later on the same machine (whose layers
// chain over this one) must be released no earlier than this one's
// forks are done too.
func (s *Snapshot) Release() { s.sn.Release() }
