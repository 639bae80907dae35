package workload

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"sort"
	"strings"
	"sync"
	"testing"

	"xok/internal/apps"
	"xok/internal/disk"
	"xok/internal/fault"
	"xok/internal/machine"
	"xok/internal/netsim"
	"xok/internal/sim"
	"xok/internal/trace"
	"xok/internal/unix"
)

// Replay equivalence is the snapshot/fork contract: a machine forked
// at cycle C must continue bit-identically to the machine that reached
// C from boot — same trace digest, same cycle count, same final media.
// The MAB's per-process phases are the natural quiescent points
// (goroutine stacks cannot be captured, so snapshots happen between
// processes); the property test picks a seeded-random phase boundary
// mid-benchmark per personality and compares a forked completion
// against an uninterrupted run.

// runSegments executes segs[from:to] on m, one process per segment.
func runSegments(m machine.Machine, segs []mabSegment, from, to int) error {
	var err error
	for _, seg := range segs[from:to] {
		exec(m, seg.name, seg.body, &err)
		if err != nil {
			return err
		}
	}
	return nil
}

// mediaHash digests the machine's final disk contents, block order
// normalized.
func mediaHash(t *testing.T, m machine.Machine) uint64 {
	t.Helper()
	img := m.Disk().Snapshot()
	blocks := make([]disk.BlockNo, 0, len(img))
	for b := range img {
		blocks = append(blocks, b)
	}
	sort.Slice(blocks, func(i, j int) bool { return blocks[i] < blocks[j] })
	h := fnv.New64a()
	var num [8]byte
	for _, b := range blocks {
		for i := 0; i < 8; i++ {
			num[i] = byte(uint64(b) >> (8 * i))
		}
		h.Write(num[:])
		h.Write(img[b])
	}
	disk.RecycleImage(img)
	return h.Sum64()
}

type mabRunOutcome struct {
	digest uint64
	cycles sim.Time
	media  uint64
}

func snapCfg(pers machine.Personality, plan *fault.Plan) machine.Config {
	return machine.Config{
		Personality: pers,
		DiskBlocks:  16384,
		MemPages:    2048,
		Trace:       trace.New(),
		Faults:      plan,
	}
}

// uninterruptedMAB runs every segment from boot on one machine.
func uninterruptedMAB(t *testing.T, pers machine.Personality, plan *fault.Plan, segs []mabSegment) mabRunOutcome {
	t.Helper()
	m := machine.MustNew(snapCfg(pers, plan))
	defer m.Close()
	if err := runSegments(m, segs, 0, len(segs)); err != nil {
		t.Fatalf("%v: uninterrupted run: %v", pers, err)
	}
	return mabRunOutcome{digest: m.Kern().Trace.Digest(), cycles: m.Now(), media: mediaHash(t, m)}
}

// forkedMAB runs segments up to cut, snapshots, forks, and finishes on
// the fork.
func forkedMAB(t *testing.T, pers machine.Personality, plan *fault.Plan, segs []mabSegment, cut int) mabRunOutcome {
	t.Helper()
	m := machine.MustNew(snapCfg(pers, plan))
	defer m.Close()
	if err := runSegments(m, segs, 0, cut); err != nil {
		t.Fatalf("%v: prefix run: %v", pers, err)
	}
	snap, err := m.Snapshot()
	if err != nil {
		t.Fatalf("%v: snapshot after segment %d: %v", pers, cut, err)
	}
	defer snap.Release()
	f := machine.Fork(snap)
	defer f.Close()
	if err := runSegments(f, segs, cut, len(segs)); err != nil {
		t.Fatalf("%v: forked run: %v", pers, err)
	}
	return mabRunOutcome{digest: f.Kern().Trace.Digest(), cycles: f.Now(), media: mediaHash(t, f)}
}

func checkReplayEquivalence(t *testing.T, plan *fault.Plan) {
	t.Helper()
	spec := mabTree()
	segs := mabSegmentList(spec)
	rng := sim.NewRNG(0xF02C)
	for _, pers := range machine.Personalities() {
		// A seeded-random mid-benchmark boundary: after setup at the
		// earliest, before the last phase at the latest.
		cut := 1 + rng.Intn(len(segs)-1)
		var pf, ff *fault.Plan
		if plan != nil {
			pf, ff = plan.Clone(), plan.Clone()
		}
		ref := uninterruptedMAB(t, pers, pf, segs)
		got := forkedMAB(t, pers, ff, segs, cut)
		if got != ref {
			t.Errorf("%v: fork at segment boundary %d diverged from boot run:\n  fork: digest %#x cycles %d media %#x\n  boot: digest %#x cycles %d media %#x",
				pers, cut, got.digest, got.cycles, got.media, ref.digest, ref.cycles, ref.media)
		}
	}
}

// TestSnapshotForkReplayEquivalence: for every personality, fork at a
// seeded-random MAB phase boundary and run to completion — trace
// digest, cycle count and final disk contents must equal the
// uninterrupted run's.
func TestSnapshotForkReplayEquivalence(t *testing.T) {
	checkReplayEquivalence(t, nil)
}

// TestSnapshotForkIsCopyOnWrite: Fork must cost O(state actually
// written afterwards), not O(machine size). A fork that never writes
// copies zero disk blocks (CowCopies is the disk's copy-up counter),
// and the fork itself allocates only table shells — bounded well below
// anything proportional to the 16K-block volume or 2K-page memory. A
// fork that then runs real file activity starts copying.
func TestSnapshotForkIsCopyOnWrite(t *testing.T) {
	segs := mabSegmentList(mabTree())
	m := machine.MustNew(snapCfg(machine.XokExOS, nil))
	defer m.Close()
	// Through the copy phase: a real tree on disk and a warm cache, so
	// lazy copying has plenty to be lazy about.
	if err := runSegments(m, segs, 0, 3); err != nil {
		t.Fatalf("prefix run: %v", err)
	}
	snap, err := m.Snapshot()
	if err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	defer snap.Release()

	allocs := testing.AllocsPerRun(10, func() {
		f := machine.Fork(snap)
		if n := f.Disk().CowCopies(); n != 0 {
			t.Errorf("fork with zero writes copied %d disk blocks", n)
		}
		f.Close()
	})
	// The bound is ~4x the measured table-shell cost; an eager copy of
	// pages or blocks (thousands of buffers) blows straight through it.
	if allocs > 3000 {
		t.Errorf("fork+close allocates %.0f objects; the fork path is no longer O(tables)", allocs)
	}

	f := machine.Fork(snap)
	defer f.Close()
	if err := runSegments(f, segs, 3, len(segs)); err != nil {
		t.Fatalf("forked run: %v", err)
	}
	var serr error
	exec(f, "sync", func(p unix.Proc) error { return p.Sync() }, &serr)
	if serr != nil {
		t.Fatalf("forked sync: %v", serr)
	}
	// The sync flushes metadata updates (inodes, directories, the free
	// bitmap) onto blocks frozen in the snapshot — those must copy up.
	if f.Disk().CowCopies() == 0 {
		t.Error("forked run wrote the tree but copied no blocks — writes are landing in frozen state")
	}
}

// TestSnapshotConcurrentForksDoNotAlias: two forks of one snapshot
// overwrite the same pre-existing file with different bytes, forcing
// copy-up of the same shared blocks and cache pages, and each must
// read back only its own data. Run under -race (snapshot-smoke), this
// is the no-shared-mutable-state proof for concurrent forking.
func TestSnapshotConcurrentForksDoNotAlias(t *testing.T) {
	m := machine.MustNew(snapCfg(machine.XokExOS, nil))
	var werr error
	exec(m, "seed-file", func(p unix.Proc) error {
		return apps.WriteFile(p, "/shared.dat", bytes.Repeat([]byte{0xEE}, 3*4096))
	}, &werr)
	if werr != nil {
		t.Fatalf("seed write: %v", werr)
	}
	snap, err := m.Snapshot()
	if err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	m.Close()
	defer snap.Release()

	var wg sync.WaitGroup
	errs := make([]error, 2)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			f := machine.Fork(snap)
			defer f.Close()
			want := bytes.Repeat([]byte{byte('A' + i)}, 3*4096)
			var got []byte
			var ferr error
			exec(f, "writer", func(p unix.Proc) error {
				if e := apps.WriteFile(p, "/shared.dat", want); e != nil {
					return e
				}
				if e := p.Sync(); e != nil {
					return e
				}
				b, e := apps.ReadFile(p, "/shared.dat")
				got = b
				return e
			}, &ferr)
			if ferr != nil {
				errs[i] = ferr
				return
			}
			if !bytes.Equal(got, want) {
				errs[i] = fmt.Errorf("fork %d read back another fork's bytes (got %x..., want %x...)", i, got[:4], want[:4])
			}
		}(i)
	}
	wg.Wait()
	for i, e := range errs {
		if e != nil {
			t.Errorf("fork %d: %v", i, e)
		}
	}
}

// TestSnapshotFabricRequiresQuiescentEngine: a machine on a shared
// network fabric runs on the topology's engine, which carries other
// machines' packets and timers — state a single-machine snapshot
// cannot capture. Snapshot must refuse while the shared engine has
// in-flight events, name the fabric in the error, and succeed once the
// engine drains; the fork then runs standalone on a private clock.
func TestSnapshotFabricRequiresQuiescentEngine(t *testing.T) {
	topo := netsim.NewTopology()
	att := &netsim.Attachment{Topology: topo}
	m, err := machine.New(machine.Config{
		Personality: machine.XokExOS,
		DiskBlocks:  16384,
		MemPages:    2048,
		Net:         att,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	topo.Engine().After(100, func() {}) // an in-flight fabric timer
	if _, err := m.Snapshot(); err == nil || !strings.Contains(err.Error(), "fabric") {
		t.Fatalf("snapshot with an in-flight fabric event: err = %v, want a fabric-quiescence error", err)
	}

	m.Run() // drain the shared engine
	snap, err := m.Snapshot()
	if err != nil {
		t.Fatalf("snapshot of a drained fabric machine: %v", err)
	}
	defer snap.Release()

	f := machine.Fork(snap)
	defer f.Close()
	if f.Kern().Eng == topo.Engine() {
		t.Fatal("fork shares the fabric engine; forks must run standalone")
	}
	var ferr error
	exec(f, "probe", func(p unix.Proc) error {
		return apps.WriteFile(p, "/standalone", []byte("ok"))
	}, &ferr)
	if ferr != nil {
		t.Fatalf("forked fabric machine failed to run standalone: %v", ferr)
	}
}

// TestSnapshotForkReplayEquivalenceWithFaults repeats the property
// under an active fault plan whose streams are consumed throughout the
// run (a draw per disk read, a count per syscall): the fork must
// resume the xorshift streams and syscall counter mid-position, not
// rewind them. Rates are armed but astronomically low so both runs
// take the same control path and the comparison stays exact.
func TestSnapshotForkReplayEquivalenceWithFaults(t *testing.T) {
	checkReplayEquivalence(t, &fault.Plan{Seed: 99, ReadErrRate: 1 << 30, KillSyscallNth: 1 << 30})
}
