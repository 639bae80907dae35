package posix

import (
	"fmt"

	"xok/internal/cffs"
	"xok/internal/kernel"
	"xok/internal/xn"
)

// Snapshot is a frozen machine: kernel state (engine clock,
// copy-on-write memory and disk, tracer, fault streams), XN
// bookkeeping, the root file system plus every mount, the process-id
// counter and the personality. Mount-table aliases survive forking:
// each distinct *cffs.FS is frozen once and mounts reference it by
// index, so a file system mounted at two prefixes stays one file
// system in every fork.
type Snapshot struct {
	k       *kernel.Snapshot
	x       *xn.Snapshot
	pers    Personality
	nextPid int

	fss    []*cffs.Frozen // index 0 is the root FS
	mounts []frozenMount
}

type frozenMount struct {
	prefix string
	fs     int // index into fss
}

// Snapshot captures the machine's state. Fails unless the machine is
// quiescent: every process has exited and the event queue has drained.
func (s *System) Snapshot() (*Snapshot, error) {
	if len(s.procs) != 0 {
		return nil, fmt.Errorf("posix: snapshot with %d live processes", len(s.procs))
	}
	ks, err := s.K.Snapshot()
	if err != nil {
		return nil, err
	}
	xs, err := s.X.Snapshot()
	if err != nil {
		return nil, err
	}
	if s.FS == nil {
		return nil, fmt.Errorf("posix: snapshot before mkfs completed")
	}
	sn := &Snapshot{k: ks, x: xs, pers: s.pers, nextPid: s.nextPid}
	var tracked []*cffs.FS // the live FS each entry of fss froze
	freeze := func(fs *cffs.FS) int {
		for i, seen := range tracked {
			if seen == fs {
				return i
			}
		}
		tracked = append(tracked, fs)
		sn.fss = append(sn.fss, fs.Freeze())
		return len(sn.fss) - 1
	}
	freeze(s.FS)
	for _, m := range s.mounts {
		sn.mounts = append(sn.mounts, frozenMount{prefix: m.prefix, fs: freeze(m.fs)})
	}
	return sn, nil
}

// Fork builds a new machine continuing from the snapshot. Safe to call
// concurrently on one snapshot.
func Fork(sn *Snapshot) *System {
	k := kernel.Fork(sn.k)
	x := xn.ForkXN(sn.x, k)
	s := &System{K: k, X: x, pers: sn.pers, nextPid: sn.nextPid, procs: make(map[int]*Proc)}
	fss := make([]*cffs.FS, len(sn.fss))
	for i, fz := range sn.fss {
		fss[i] = fz.Thaw(x)
	}
	s.FS = fss[0]
	for _, m := range sn.mounts {
		s.mounts = append(s.mounts, mount{prefix: m.prefix, fs: fss[m.fs]})
	}
	return s
}

// Release returns the snapshot's frozen buffers to the shared pool.
// Only legal once the snapshotted machine and every fork are closed.
func (sn *Snapshot) Release() {
	if sn.k != nil {
		sn.k.Release()
		sn.k = nil
	}
}
