package xn

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"xok/internal/disk"
	"xok/internal/kernel"
	"xok/internal/sim"
	"xok/internal/udf"
)

// scanBadChildren is the reference for XN's bad-child counts: the scan
// taintCheck used to make on every call. It reruns owns-udf over en's
// cached content and counts the distinct owned blocks whose registry
// entries are uninitialized or tainted.
func scanBadChildren(x *XN, en *Entry) (int, error) {
	owns, err := x.runOwns(nil, x.templates[en.Tmpl], x.M.Data(en.Page))
	if err != nil {
		return 0, err
	}
	seen := make(map[disk.BlockNo]bool)
	n := 0
	for _, ext := range owns {
		for i := int64(0); i < ext.Count; i++ {
			c := disk.BlockNo(ext.Start + i)
			if seen[c] {
				continue
			}
			seen[c] = true
			if cen, ok := x.reg[c]; ok && (cen.Uninit || cen.Tainted) {
				n++
			}
		}
	}
	return n, nil
}

// checkTaint audits the bad-child counts. Every resident metadata entry
// that taint tracking covers (attached, not temporary) must have the
// count the reference scan gives, and every live count must equal the
// number of bad registry entries bound under it.
func checkTaint(x *XN) error {
	bound := make(map[*taintCount]int)
	for b, en := range x.reg {
		if en.up != nil && en.bad() {
			bound[en.up]++
		}
		if en.State != StateResident || en.Temporary || !en.Attached || !x.isMetadata(en.Tmpl) {
			continue
		}
		want, err := scanBadChildren(x, en)
		if err != nil {
			return err
		}
		if got := x.badChildren(b); got != want {
			return fmt.Errorf("block %d: %d bad children counted, scan finds %d", b, got, want)
		}
	}
	for b, c := range x.taint {
		if c.n != bound[c] {
			return fmt.Errorf("block %d: count %d, %d bad entries bound under it", b, c.n, bound[c])
		}
	}
	return nil
}

// Operations of the taint rig. Each is one byte of the input (mod
// tdOps), followed by the argument bytes it reads.
const (
	tdAllocData  = iota // tnode, hint, count: allocate data blocks into a tnode
	tdAllocTnode        // tnode, hint, init: allocate a child tnode, maybe initialize it
	tdTouch             // tnode, record, block: dirty a data block, or read a child back
	tdDealloc           // tnode: deallocate its last record (orphans a child tnode's subtree)
	tdRealloc           // tnode: deallocate its last record and allocate the same extent again
	tdWrite             // tnode: write it
	tdWriteBack         // max
	tdSync              //
	tdRecycle           // count: recycle that many LRU buffers
	tdReread            // tnode: read it (and its ancestors) back in
	tdModify            // tnode: a modification that changes no ownership
	tdWait              // ms: let in-flight writes complete
	tdFork              // drain the machine, Snapshot and ForkXN
	tdOps
)

// taintNode is the rig's model of a tnode reachable from the root.
type taintNode struct {
	parent disk.BlockNo // NoParent for the root
	ext    udf.Extent   // its record in the parent
	recs   []udf.Extent // its own records, in order
}

// taintRig runs the operations a byte string encodes on a small XN
// (four-block flush-behind threshold, 32-page cache); runTaintOps checks
// the bad-child counts against the scan, the registry indices and the
// entries' owns-udf results after each one.
type taintRig struct {
	f     *fixture
	in    []byte
	pos   int
	nodes map[disk.BlockNo]*taintNode
	order []disk.BlockNo // the live tnodes in creation order
}

func (d *taintRig) arg() int {
	if d.pos >= len(d.in) {
		return 0
	}
	v := d.in[d.pos]
	d.pos++
	return int(v)
}

func (d *taintRig) pick() (disk.BlockNo, *taintNode) {
	b := d.order[d.arg()%len(d.order)]
	return b, d.nodes[b]
}

func (d *taintRig) addNode(b disk.BlockNo, parent disk.BlockNo, ext udf.Extent) {
	d.nodes[b] = &taintNode{parent: parent, ext: ext}
	d.order = append(d.order, b)
}

// orphan drops b and its subtree from the model; XN keeps their
// entries, bound to a block that is no longer anyone's child.
func (d *taintRig) orphan(b disk.BlockNo) {
	n := d.nodes[b]
	delete(d.nodes, b)
	for i, o := range d.order {
		if o == b {
			d.order = append(d.order[:i], d.order[i+1:]...)
			break
		}
	}
	for _, r := range n.recs {
		if TemplateID(r.Type) == d.f.tnode {
			d.orphan(disk.BlockNo(r.Start))
		}
	}
}

// resident reads b and its ancestors back in as needed.
func (d *taintRig) resident(e *kernel.Env, b disk.BlockNo) error {
	if d.f.x.Cached(b) {
		return nil
	}
	n := d.nodes[b]
	if n.parent == NoParent {
		_, err := d.f.x.LoadRoot(e, d.f.rootName)
		return err
	}
	if err := d.resident(e, n.parent); err != nil {
		return err
	}
	if err := d.f.x.Insert(e, n.parent, n.ext); err != nil {
		return err
	}
	return d.f.x.Read(e, []disk.BlockNo{b}, nil)
}

// fresh finds a free extent of count blocks near hint.
func (d *taintRig) fresh(hint, count int, typ TemplateID) (udf.Extent, bool) {
	start, ok := d.f.x.FindFree(disk.BlockNo(200+hint*12), int64(count))
	return udf.Extent{Start: int64(start), Count: int64(count), Type: int64(typ)}, ok
}

// step runs one operation; it reports false for tdFork, which the
// caller performs once the machine has drained.
func (d *taintRig) step(e *kernel.Env, op int) bool {
	x, f := d.f.x, d.f
	tn, n := d.pick()
	if op != tdWriteBack && op != tdSync && op != tdRecycle && op != tdWait && op != tdFork {
		if d.resident(e, tn) != nil {
			return true
		}
	}
	switch op {
	case tdAllocData, tdAllocTnode:
		typ, count := f.data, 1+d.arg()%3
		if op == tdAllocTnode {
			typ, count = f.tnode, 1
		}
		ext, ok := d.fresh(d.arg(), count, typ)
		if !ok || len(n.recs) >= 40 {
			break
		}
		if x.Alloc(e, tn, tnAddRecord(len(n.recs), disk.BlockNo(ext.Start), uint32(count), typ), ext) != nil {
			break
		}
		n.recs = append(n.recs, ext)
		if op == tdAllocTnode {
			d.addNode(disk.BlockNo(ext.Start), tn, ext)
			if d.arg()%2 == 0 {
				_ = x.InitMetadata(e, disk.BlockNo(ext.Start), make([]byte, 8))
			}
		}
	case tdTouch:
		if len(n.recs) == 0 {
			break
		}
		r := n.recs[d.arg()%len(n.recs)]
		b := disk.BlockNo(r.Start + int64(d.arg())%r.Count)
		if TemplateID(r.Type) == f.tnode {
			_ = d.resident(e, b)
			break
		}
		en, ok := x.reg[b]
		switch {
		case !ok:
			if x.Insert(e, tn, r) == nil {
				_ = x.Read(e, []disk.BlockNo{b}, nil)
			}
		case en.State == StateResident:
			_ = x.MarkDirty(e, b)
		case en.State == StateOutOfCore:
			if _, err := x.AttachPage(e, b); err == nil {
				_ = x.MarkDirty(e, b)
			}
		}
	case tdDealloc, tdRealloc:
		if len(n.recs) == 0 {
			break
		}
		last := n.recs[len(n.recs)-1]
		typ := TemplateID(last.Type)
		if x.Dealloc(e, tn, tnRemoveLast(len(n.recs)), last) != nil {
			break
		}
		n.recs = n.recs[:len(n.recs)-1]
		if op == tdDealloc || x.Alloc(e, tn, tnAddRecord(len(n.recs), disk.BlockNo(last.Start), uint32(last.Count), typ), last) != nil {
			if typ == f.tnode {
				d.orphan(disk.BlockNo(last.Start))
			}
			break
		}
		n.recs = append(n.recs, last)
		if typ == f.tnode {
			d.orphan(disk.BlockNo(last.Start))
			d.addNode(disk.BlockNo(last.Start), tn, last)
		}
	case tdWrite:
		_ = x.Write(e, []disk.BlockNo{tn})
	case tdWriteBack:
		_, _ = x.WriteBack(e, d.arg()%4)
	case tdSync:
		_ = x.Sync(e)
	case tdRecycle:
		for k := 1 + d.arg()%8; k > 0; k-- {
			if _, ok := x.RecycleLRU(e); !ok {
				break
			}
		}
	case tdReread:
		// resident above did it.
	case tdModify:
		_ = x.Modify(e, tn, []Mod{{Off: tnOwnerOff, Bytes: []byte{0, 0, 0, 0}}})
	case tdWait:
		e.Use(sim.FromMillis(float64(1 + d.arg()%20)))
	case tdFork:
		return false
	}
	return true
}

// runTaintOps drives a fresh fixture through the operations in data
// (at most 300) and fails t at the first disagreement with the scan.
func runTaintOps(t *testing.T, data []byte) {
	f := newFixture(t)
	f.x.FlushBehind = 4
	f.x.MaxCachePages = 32
	d := &taintRig{f: f, in: data, nodes: make(map[disk.BlockNo]*taintNode)}
	d.addNode(f.rootBlk, NoParent, udf.Extent{})
	ops := 0
	for d.pos < len(d.in) && ops < 300 && !t.Failed() {
		f.run(t, "ops", func(e *kernel.Env) error {
			for d.pos < len(d.in) && ops < 300 {
				op := d.arg() % tdOps
				ops++
				more := d.step(e, op)
				if err := checkTaint(f.x); err != nil {
					return fmt.Errorf("op %d (%d): %w", ops, op, err)
				}
				if err := checkIndices(f.x); err != nil {
					return fmt.Errorf("op %d (%d): %w", ops, op, err)
				}
				if err := checkOwns(f.x); err != nil {
					return fmt.Errorf("op %d (%d): %w", ops, op, err)
				}
				if !more {
					return nil
				}
			}
			return nil
		})
		if t.Failed() {
			return
		}
		if err := checkTaint(f.x); err != nil {
			t.Fatalf("after the drain at op %d: %v", ops, err)
		}
		s, err := f.x.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		f.x = ForkXN(s, f.k)
		if err := checkTaint(f.x); err != nil {
			t.Fatalf("after the fork at op %d: %v", ops, err)
		}
		if err := checkOwns(f.x); err != nil {
			t.Fatalf("after the fork at op %d: %v", ops, err)
		}
	}
}

// taintSeeds are hand-written operation strings, one per case the
// counts must survive.
var taintSeeds = [][]byte{
	// Multi-level tree: root -> tnode -> data, children written first.
	{tdAllocTnode, 0, 10, 0, tdAllocData, 1, 30, 2, tdAllocData, 1, 40, 0,
		tdTouch, 1, 0, 0, tdTouch, 1, 1, 1, tdSync, tdWait, 5, tdAllocTnode, 1, 50, 0, tdSync},
	// Recycling interior tnodes and reading them back with bad children cached.
	{tdAllocTnode, 0, 10, 0, tdAllocTnode, 1, 20, 0, tdAllocData, 2, 30, 1,
		tdSync, tdWait, 10, tdAllocData, 2, 60, 0, tdRecycle, 7, tdRecycle, 7,
		tdReread, 2, tdReread, 1, tdTouch, 2, 1, 0, tdSync},
	// Dealloc of an interior tnode, leaving its uninitialized children
	// orphaned, then a reallocation of the same block number.
	{tdAllocTnode, 0, 10, 0, tdAllocData, 1, 30, 2, tdDealloc, 0,
		tdAllocTnode, 0, 10, 0, tdAllocData, 1, 80, 1, tdSync},
	// Two Deallocs with flush-behind writes in flight.
	{tdAllocData, 0, 10, 2, tdTouch, 0, 0, 0, tdTouch, 0, 0, 1, tdAllocData, 0, 20, 2,
		tdTouch, 0, 1, 0, tdTouch, 0, 1, 1, tdDealloc, 0, tdDealloc, 0, tdWait, 10},
	// A write completing on an entry already dropped and reallocated.
	{tdAllocData, 0, 10, 1, tdTouch, 0, 0, 0, tdAllocData, 0, 20, 1, tdTouch, 0, 1, 0,
		tdAllocData, 0, 30, 1, tdTouch, 0, 2, 0, tdRealloc, 0, tdWait, 10, tdSync},
	// Snapshot and ForkXN mid-tree, with bad children cached across the fork.
	{tdAllocTnode, 0, 10, 0, tdAllocData, 1, 30, 1, tdFork, tdTouch, 1, 0, 0,
		tdFork, tdSync, tdFork},
	// The rest reload a block's content each way there is, then reuse
	// its owns-udf result (checkOwns).
	// Read completion: a written tnode recycled, read back, then
	// modified and written again.
	{tdAllocTnode, 0, 10, 0, tdAllocData, 1, 30, 1, tdTouch, 1, 0, 0, tdSync, tdWait, 10,
		tdRecycle, 7, tdRecycle, 7, tdReread, 1, tdModify, 1, tdAllocData, 1, 40, 0, tdWrite, 1},
	// Uninit zero fill: an uninitialized child tnode read back as zeros,
	// then allocated into.
	{tdAllocTnode, 0, 10, 1, tdRecycle, 7, tdReread, 1, tdAllocData, 1, 30, 0, tdModify, 1},
	// InitMetadata, then allocation into the initialized tnode.
	{tdAllocTnode, 0, 10, 0, tdAllocData, 1, 30, 0, tdAllocData, 1, 40, 1, tdModify, 1, tdSync},
	// AttachPage on an out-of-core data block, with its parent modified
	// before and after.
	{tdAllocData, 0, 10, 1, tdModify, 0, tdTouch, 0, 0, 0, tdModify, 0, tdWrite, 0},
	// A fork, then a modification and allocation on the fork.
	{tdAllocTnode, 0, 10, 0, tdAllocData, 1, 30, 1, tdModify, 1, tdFork,
		tdModify, 1, tdAllocData, 1, 50, 0, tdFork, tdDealloc, 1, tdModify, 0},
}

func TestTaintSeeds(t *testing.T) {
	for i, s := range taintSeeds {
		t.Run(fmt.Sprint(i), func(t *testing.T) { runTaintOps(t, s) })
	}
}

// TestTaintIncrementalMatchesScan runs random operation strings.
func TestTaintIncrementalMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	n := 60
	if testing.Short() {
		n = 10
	}
	for i := 0; i < n; i++ {
		data := make([]byte, 200+rng.Intn(600))
		rng.Read(data)
		runTaintOps(t, data)
		if t.Failed() {
			t.Fatalf("failing input: %x", data)
		}
	}
}

func FuzzTaintIncremental(f *testing.F) {
	for _, s := range taintSeeds {
		f.Add(s)
	}
	f.Fuzz(runTaintOps)
}

// TestWriteDeallocatedInFlightKeepsNewParentCount deallocates a dirty
// data block while its flush-behind write is in flight and allocates
// the block again at once: the old write's completion clears the
// dropped entry's Uninit and must leave the new entry's parent count
// alone.
func TestWriteDeallocatedInFlightKeepsNewParentCount(t *testing.T) {
	f := newFixture(t)
	f.x.FlushBehind = 1
	f.run(t, "realloc-in-flight", func(e *kernel.Env) error {
		tgt, _ := f.x.FindFree(300, 1)
		ext := udf.Extent{Start: int64(tgt), Count: 1, Type: int64(f.data)}
		if err := f.x.Alloc(e, f.rootBlk, tnAddRecord(0, tgt, 1, f.data), ext); err != nil {
			return err
		}
		if _, err := f.x.AttachPage(e, tgt); err != nil {
			return err
		}
		if err := f.x.MarkDirty(e, tgt); err != nil {
			return err
		}
		if !f.x.reg[tgt].flushing {
			return errors.New("no flush-behind write in flight")
		}
		if err := f.x.Dealloc(e, f.rootBlk, tnRemoveLast(1), ext); err != nil {
			return err
		}
		if err := f.x.Alloc(e, f.rootBlk, tnAddRecord(0, tgt, 1, f.data), ext); err != nil {
			return err
		}
		return checkTaint(f.x)
	})
	if err := checkTaint(f.x); err != nil {
		t.Fatal(err)
	}
	if n := f.x.badChildren(f.rootBlk); n != 1 {
		t.Fatalf("root counts %d bad children after the old write completed, want 1 (the new, uninitialized block)", n)
	}
}

// TestDeallocUncountsRemovedChildAtCommit deallocates a tnode's only
// uninitialized child with flush-behind armed. The commit's flush-behind
// pass runs before the child's entry is dropped, and must already see
// the tnode as untainted: its content no longer points to the child.
func TestDeallocUncountsRemovedChildAtCommit(t *testing.T) {
	f := newFixture(t)
	f.run(t, "dealloc-commit", func(e *kernel.Env) error {
		d2, _ := f.x.FindFree(300, 1)
		d, _ := f.x.FindFree(310, 1)
		for i, b := range []disk.BlockNo{d2, d} {
			if err := f.x.Alloc(e, f.rootBlk, tnAddRecord(i, b, 1, f.data),
				udf.Extent{Start: int64(b), Count: 1, Type: int64(f.data)}); err != nil {
				return err
			}
		}
		if _, err := f.x.AttachPage(e, d2); err != nil {
			return err
		}
		if err := f.x.MarkDirty(e, d2); err != nil {
			return err
		}
		if err := f.x.Write(e, []disk.BlockNo{d2}); err != nil {
			return err
		}
		if err := f.x.MarkDirty(e, d2); err != nil {
			return err
		}
		// Dirty: the root (tainted by d alone) and d2.
		f.x.FlushBehind = 1
		if err := f.x.Dealloc(e, f.rootBlk, tnRemoveLast(2),
			udf.Extent{Start: int64(d), Count: 1, Type: int64(f.data)}); err != nil {
			return err
		}
		if !f.x.reg[f.rootBlk].flushing {
			return errors.New("the commit's flush-behind pass left the root out: it still counted the removed child")
		}
		return checkTaint(f.x)
	})
}

// TestOrphansDoNotTaintReallocatedBlock frees an interior tnode whose
// uninitialized child stays cached, bound to the freed block number,
// and allocates that block number again as a new, empty tnode: the
// new tnode owns nothing and must be writable.
func TestOrphansDoNotTaintReallocatedBlock(t *testing.T) {
	f := newFixture(t)
	f.run(t, "orphans", func(e *kernel.Env) error {
		m, _ := f.x.FindFree(500, 1)
		mext := udf.Extent{Start: int64(m), Count: 1, Type: int64(f.tnode)}
		if err := f.x.Alloc(e, f.rootBlk, tnAddRecord(0, m, 1, f.tnode), mext); err != nil {
			return err
		}
		if err := f.x.InitMetadata(e, m, make([]byte, 8)); err != nil {
			return err
		}
		c, _ := f.x.FindFree(700, 1)
		if err := f.x.Alloc(e, m, tnAddRecord(0, c, 1, f.data),
			udf.Extent{Start: int64(c), Count: 1, Type: int64(f.data)}); err != nil {
			return err
		}
		if err := f.x.Dealloc(e, f.rootBlk, tnRemoveLast(1), mext); err != nil {
			return err
		}
		if err := f.x.Alloc(e, f.rootBlk, tnAddRecord(0, m, 1, f.tnode), mext); err != nil {
			return err
		}
		if err := f.x.InitMetadata(e, m, make([]byte, 8)); err != nil {
			return err
		}
		if en := f.x.reg[c]; en == nil || !en.Uninit || en.Parent != m {
			return fmt.Errorf("orphan entry %+v, want an uninitialized child of %d", en, m)
		}
		if err := checkTaint(f.x); err != nil {
			return err
		}
		return f.x.Write(e, []disk.BlockNo{m})
	})
}

// TestFlushPassChargesOnlyWrittenOwns pins the UDF cost of write-back
// over a tainted tree: a WriteBack pass and a flush-behind pass add to
// udf_steps exactly the owns-udf runs Write charges for the metadata
// blocks they write, and nothing for the taint checks of the blocks
// they visit or skip.
func TestFlushPassChargesOnlyWrittenOwns(t *testing.T) {
	f := newFixture(t)
	var m1, m2, d2 disk.BlockNo
	ownsSteps := func(b disk.BlockNo) int64 {
		res, err := udf.Run(tnodeOwns, f.x.M.Data(f.x.reg[b].Page), nil, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		return int64(res.Steps)
	}
	steps := func() int64 { return f.k.Stats.Get(sim.CtrUDFSteps) }
	f.run(t, "tree", func(e *kernel.Env) error {
		// root -> m1 -> uninitialized data (m1 and root tainted);
		// root -> m2 -> written data (m2 writable).
		m1, _ = f.x.FindFree(500, 1)
		m2, _ = f.x.FindFree(510, 1)
		for i, m := range []disk.BlockNo{m1, m2} {
			if err := f.x.Alloc(e, f.rootBlk, tnAddRecord(i, m, 1, f.tnode),
				udf.Extent{Start: int64(m), Count: 1, Type: int64(f.tnode)}); err != nil {
				return err
			}
			if err := f.x.InitMetadata(e, m, make([]byte, 8)); err != nil {
				return err
			}
		}
		d1, _ := f.x.FindFree(700, 1)
		d2, _ = f.x.FindFree(710, 1)
		for _, c := range [][2]disk.BlockNo{{m1, d1}, {m2, d2}} {
			if err := f.x.Alloc(e, c[0], tnAddRecord(0, c[1], 1, f.data),
				udf.Extent{Start: int64(c[1]), Count: 1, Type: int64(f.data)}); err != nil {
				return err
			}
		}
		if _, err := f.x.AttachPage(e, d2); err != nil {
			return err
		}
		if err := f.x.MarkDirty(e, d2); err != nil {
			return err
		}
		if err := f.x.Write(e, []disk.BlockNo{d2}); err != nil {
			return err
		}

		want, before := ownsSteps(m2), steps()
		n, err := f.x.WriteBack(e, 0)
		if err != nil {
			return err
		}
		if n != 1 {
			return fmt.Errorf("WriteBack wrote %d blocks, want 1 (m2)", n)
		}
		if got := steps() - before; got != want {
			return fmt.Errorf("WriteBack pass added %d udf steps, want %d (owns-udf of m2 once)", got, want)
		}

		if err := f.x.Modify(e, m2, []Mod{{Off: tnOwnerOff, Bytes: []byte{0, 0, 0, 0}}}); err != nil {
			return err
		}
		f.x.FlushBehind = 1
		want, before = ownsSteps(m2), steps()
		if err := f.x.MarkDirty(e, d2); err != nil {
			return err
		}
		if en := f.x.reg[m2]; !en.flushing || f.x.reg[m1].flushing || f.x.reg[f.rootBlk].flushing {
			return errors.New("flush-behind did not pick exactly the untainted blocks")
		}
		if got := steps() - before; got != want {
			return fmt.Errorf("flush-behind pass added %d udf steps, want %d (owns-udf of m2 once)", got, want)
		}
		return nil
	})
}

// BenchmarkXNFlushBehindInFlight times MarkDirty of a block whose
// flush-behind write is in flight, with that many blocks in flight.
// With no simulated time passing (FreeCost) no write completes, so
// every call runs a flush-behind pass; the pass visits only blocks with
// no write in flight, so ns/op stays flat as inflight grows.
func BenchmarkXNFlushBehindInFlight(b *testing.B) {
	for _, inflight := range []int{64, 1024} {
		b.Run(fmt.Sprintf("inflight=%d", inflight), func(b *testing.B) {
			f := newFixture(b)
			f.x.FreeCost = true
			f.x.FlushBehind = 8
			f.run(b, "flush", func(e *kernel.Env) error {
				start, ok := f.x.FindFree(200, int64(inflight))
				if !ok {
					return errors.New("volume full")
				}
				if err := f.x.Alloc(e, f.rootBlk, tnAddRecord(0, start, uint32(inflight), f.data),
					udf.Extent{Start: int64(start), Count: int64(inflight), Type: int64(f.data)}); err != nil {
					return err
				}
				for i := 0; i < inflight; i++ {
					blk := start + disk.BlockNo(i)
					if _, err := f.x.AttachPage(e, blk); err != nil {
						return err
					}
					if err := f.x.MarkDirty(e, blk); err != nil {
						return err
					}
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := f.x.MarkDirty(e, start+disk.BlockNo(i%inflight)); err != nil {
						return err
					}
				}
				b.StopTimer()
				return nil
			})
		})
	}
}
