package xn

import (
	"encoding/binary"
	"errors"
	"fmt"
	"testing"

	"xok/internal/cap"
	"xok/internal/disk"
	"xok/internal/kernel"
	"xok/internal/mem"
	"xok/internal/sim"
	"xok/internal/udf"
	"xok/internal/wkpred"
)

// The tests define a miniature libFS metadata format, "tnode", to
// exercise XN exactly the way a real libFS would — through UDFs, with
// XN never understanding the layout natively.
//
// tnode layout (one 4-KB block):
//
//	off 0: uint32 owner uid
//	off 4: uint32 n — number of pointer records
//	off 8: n records of {uint64 start, uint32 count, uint32 type}
const (
	tnOwnerOff = 0
	tnCountOff = 4
	tnRecsOff  = 8
	tnRecSize  = 16
)

var tnodeOwns = udf.MustAssemble("tnode-owns", `
	li   r0, 0
	ldw  r1, r0, 4      ; n
	li   r2, 0          ; i
	li   r3, 8          ; record offset
loop:
	bge  r2, r1, done
	ldq  r4, r3, 0      ; start
	ldw  r5, r3, 8      ; count
	ldw  r6, r3, 12     ; type
	emit r4, r5, r6
	addi r3, r3, 16
	addi r2, r2, 1
	jmp  loop
done:
	ret  r1
`)

// acl: allow if caller uid is 0 (superuser) or matches the stored
// owner uid.
var tnodeAcl = udf.MustAssemble("tnode-acl", `
	envw r1, 2          ; caller uid
	li   r2, 0
	beq  r1, r2, ok
	li   r0, 0
	ldw  r3, r0, 0      ; owner uid
	beq  r1, r3, ok
	li   r0, 0
	ret  r0
ok:
	li   r0, 1
	ret  r0
`)

var tnodeSize = udf.MustAssemble("tnode-size", `
	li   r0, 0
	ldw  r1, r0, 4
	li   r2, 16
	mul  r3, r1, r2
	addi r3, r3, 8
	ret  r3
`)

var dataOwns = udf.MustAssemble("data-owns", `
	li r0, 0
	ret r0
`)

var dataAcl = udf.MustAssemble("data-acl", `
	li r0, 1
	ret r0
`)

var dataSize = udf.MustAssemble("data-size", `
	li r0, 4096
	ret r0
`)

// tnAddRecord builds the Mods that append a pointer record to a tnode
// whose current record count is n.
func tnAddRecord(n int, start disk.BlockNo, count uint32, tmpl TemplateID) []Mod {
	rec := make([]byte, tnRecSize)
	binary.LittleEndian.PutUint64(rec[0:], uint64(start))
	binary.LittleEndian.PutUint32(rec[8:], count)
	binary.LittleEndian.PutUint32(rec[12:], uint32(tmpl))
	cnt := make([]byte, 4)
	binary.LittleEndian.PutUint32(cnt, uint32(n+1))
	return []Mod{
		{Off: tnRecsOff + n*tnRecSize, Bytes: rec},
		{Off: tnCountOff, Bytes: cnt},
	}
}

// tnRemoveLast builds the Mods that drop the last record (record n-1).
func tnRemoveLast(n int) []Mod {
	cnt := make([]byte, 4)
	binary.LittleEndian.PutUint32(cnt, uint32(n-1))
	return []Mod{{Off: tnCountOff, Bytes: cnt}}
}

// fixture bundles a formatted volume with installed templates and a
// registered, loaded root tnode.
type fixture struct {
	k        *kernel.Kernel
	x        *XN
	tnode    TemplateID
	data     TemplateID
	rootBlk  disk.BlockNo
	rootName string
}

func newFixture(t testing.TB) *fixture {
	t.Helper()
	return newFixtureQuantum(t, 0)
}

// newFixtureQuantum is newFixture on a kernel with the given scheduler
// quantum (0 for the default).
func newFixtureQuantum(t testing.TB, quantum sim.Time) *fixture {
	t.Helper()
	k := kernel.New(kernel.Config{Name: "xok", MemPages: 2048, DiskSize: 4096, Quantum: quantum})
	x := New(k)
	f := &fixture{k: k, x: x, rootName: "testfs"}
	f.run(t, "mkfs", func(e *kernel.Env) error {
		e.Creds = cap.UnixCreds(0)
		var err error
		f.tnode, err = x.InstallTemplate(e, Template{
			Name: "tnode", Owns: tnodeOwns, Acl: tnodeAcl, Size: tnodeSize,
		})
		if err != nil {
			return err
		}
		f.data, err = x.InstallTemplate(e, Template{
			Name: "tdata", Owns: dataOwns, Acl: dataAcl, Size: dataSize,
			AclAtParent: true,
		})
		if err != nil {
			return err
		}
		start, err := x.AllocRootExtent(e, 100, 1)
		if err != nil {
			return err
		}
		f.rootBlk = start
		if err := x.RegisterRoot(e, Root{
			Name: f.rootName, Start: start, Count: 1, Tmpl: f.tnode,
		}); err != nil {
			return err
		}
		_, err = x.LoadRoot(e, f.rootName)
		return err
	})
	return f
}

// run executes body in a fresh environment with root credentials and
// drains the machine.
func (f *fixture) run(t testing.TB, name string, body func(*kernel.Env) error) {
	t.Helper()
	f.k.Spawn(name, func(e *kernel.Env) {
		if e.Creds == nil {
			e.Creds = cap.UnixCreds(0)
		}
		if err := body(e); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	})
	f.k.Run()
}

// runAs is run with specific UNIX credentials, expecting wantErr.
func (f *fixture) runAs(t *testing.T, name string, uid uint16, wantErr error, body func(*kernel.Env) error) {
	t.Helper()
	f.k.Spawn(name, func(e *kernel.Env) {
		e.Creds = cap.UnixCreds(uid)
		err := body(e)
		if !errors.Is(err, wantErr) {
			t.Errorf("%s: err = %v, want %v", name, err, wantErr)
		}
	})
	f.k.Run()
}

func TestMkfsAndCatalogues(t *testing.T) {
	f := newFixture(t)
	if _, ok := f.x.TemplateByName("tnode"); !ok {
		t.Fatal("tnode template not installed")
	}
	if _, ok := f.x.templates[f.data]; !ok {
		t.Fatal("data template not found by id")
	}
	f.run(t, "lookup", func(e *kernel.Env) error {
		r, err := f.x.LookupRoot(e, f.rootName)
		if err != nil {
			return err
		}
		if r.Start != f.rootBlk || r.Tmpl != f.tnode {
			t.Errorf("root = %+v", r)
		}
		_, err = f.x.LookupRoot(e, "nope")
		if !errors.Is(err, ErrNoRoot) {
			t.Errorf("missing root err = %v", err)
		}
		return nil
	})
	if f.x.IsFree(f.rootBlk) {
		t.Fatal("root block still on free map")
	}
}

func TestDuplicateTemplateAndRoot(t *testing.T) {
	f := newFixture(t)
	f.run(t, "dups", func(e *kernel.Env) error {
		_, err := f.x.InstallTemplate(e, Template{
			Name: "tnode", Owns: tnodeOwns, Acl: tnodeAcl, Size: tnodeSize,
		})
		if !errors.Is(err, ErrDupTemplate) {
			t.Errorf("dup template err = %v", err)
		}
		err = f.x.RegisterRoot(e, Root{Name: f.rootName, Start: f.rootBlk, Count: 1, Tmpl: f.tnode})
		if !errors.Is(err, ErrDupRoot) {
			t.Errorf("dup root err = %v", err)
		}
		return nil
	})
}

func TestTemplateVerificationRejectsNondeterministicOwns(t *testing.T) {
	f := newFixture(t)
	bad := udf.MustAssemble("bad-owns", "envw r1, 0\nret r1")
	f.run(t, "badtmpl", func(e *kernel.Env) error {
		_, err := f.x.InstallTemplate(e, Template{
			Name: "bad", Owns: bad, Acl: tnodeAcl, Size: tnodeSize,
		})
		if !errors.Is(err, ErrBadTemplate) {
			t.Errorf("err = %v, want ErrBadTemplate", err)
		}
		return nil
	})
}

func TestAllocVerifiedByUDF(t *testing.T) {
	f := newFixture(t)
	freeBefore := f.x.FreeBlocks()
	f.run(t, "alloc", func(e *kernel.Env) error {
		target, ok := f.x.FindFree(200, 2)
		if !ok {
			t.Fatal("no free blocks")
		}
		err := f.x.Alloc(e, f.rootBlk, tnAddRecord(0, target, 2, f.data),
			udf.Extent{Start: int64(target), Count: 2, Type: int64(f.data)})
		if err != nil {
			return err
		}
		// Child entries must exist, uninitialized, bound to parent.
		en, ok := f.x.Lookup(target)
		if !ok || !en.Uninit || en.Parent != f.rootBlk || en.Tmpl != f.data {
			t.Errorf("child entry = %+v, %v", en, ok)
		}
		return nil
	})
	if got := freeBefore - f.x.FreeBlocks(); got != 2 {
		t.Fatalf("free delta = %d, want 2", got)
	}
}

func TestAllocRejectsLyingModification(t *testing.T) {
	// The modification claims to allocate block A but actually records
	// block B: owns-udf catches the lie.
	f := newFixture(t)
	f.run(t, "lie", func(e *kernel.Env) error {
		a, _ := f.x.FindFree(200, 1)
		b := a + 1
		err := f.x.Alloc(e, f.rootBlk, tnAddRecord(0, b, 1, f.data),
			udf.Extent{Start: int64(a), Count: 1, Type: int64(f.data)})
		if !errors.Is(err, ErrBadDelta) {
			t.Errorf("err = %v, want ErrBadDelta", err)
		}
		return nil
	})
}

func TestAllocRejectsNonFreeBlock(t *testing.T) {
	f := newFixture(t)
	f.run(t, "nonfree", func(e *kernel.Env) error {
		err := f.x.Alloc(e, f.rootBlk, tnAddRecord(0, f.rootBlk, 1, f.data),
			udf.Extent{Start: int64(f.rootBlk), Count: 1, Type: int64(f.data)})
		if !errors.Is(err, ErrNotFree) {
			t.Errorf("err = %v, want ErrNotFree", err)
		}
		return nil
	})
}

func TestAclDeniesForeignUID(t *testing.T) {
	f := newFixture(t)
	// Set the root tnode's owner to uid 503.
	f.run(t, "chown", func(e *kernel.Env) error {
		owner := make([]byte, 4)
		binary.LittleEndian.PutUint32(owner, 503)
		return f.x.Modify(e, f.rootBlk, []Mod{{Off: tnOwnerOff, Bytes: owner}})
	})
	// uid 504 may not allocate into it.
	f.runAs(t, "intruder", 504, ErrAccessDenied, func(e *kernel.Env) error {
		tgt, _ := f.x.FindFree(200, 1)
		return f.x.Alloc(e, f.rootBlk, tnAddRecord(0, tgt, 1, f.data),
			udf.Extent{Start: int64(tgt), Count: 1, Type: int64(f.data)})
	})
	// uid 503 may.
	f.runAs(t, "owner", 503, nil, func(e *kernel.Env) error {
		tgt, _ := f.x.FindFree(200, 1)
		return f.x.Alloc(e, f.rootBlk, tnAddRecord(0, tgt, 1, f.data),
			udf.Extent{Start: int64(tgt), Count: 1, Type: int64(f.data)})
	})
}

func TestDataWriteReadRoundTrip(t *testing.T) {
	f := newFixture(t)
	var target disk.BlockNo
	f.run(t, "write", func(e *kernel.Env) error {
		tgt, _ := f.x.FindFree(300, 1)
		target = tgt
		if err := f.x.Alloc(e, f.rootBlk, tnAddRecord(0, tgt, 1, f.data),
			udf.Extent{Start: int64(tgt), Count: 1, Type: int64(f.data)}); err != nil {
			return err
		}
		if _, err := f.x.AttachPage(e, tgt); err != nil {
			return err
		}
		copy(f.x.PageData(tgt), "hello, xn")
		if err := f.x.MarkDirty(e, tgt); err != nil {
			return err
		}
		if err := f.x.Write(e, []disk.BlockNo{tgt}); err != nil {
			return err
		}
		return f.x.Write(e, []disk.BlockNo{f.rootBlk})
	})
	// Evict everything resident and read back through the two-stage
	// protocol.
	f.run(t, "readback", func(e *kernel.Env) error {
		for {
			if _, ok := f.x.RecycleLRU(e); !ok {
				break
			}
		}
		if f.x.Cached(target) {
			t.Fatal("target still cached after full eviction")
		}
		if _, err := f.x.LoadRoot(e, f.rootName); err != nil {
			return err
		}
		if err := f.x.Insert(e, f.rootBlk, udf.Extent{Start: int64(target), Count: 1, Type: int64(f.data)}); err != nil {
			return err
		}
		if err := f.x.Read(e, []disk.BlockNo{target}, nil); err != nil {
			return err
		}
		got := string(f.x.PageData(target)[:9])
		if got != "hello, xn" {
			t.Errorf("read back %q", got)
		}
		return nil
	})
}

// TestReadRejectsForeignCallerPage hands Read pages it must not read
// into: the root's own page, on the zero-fill path of an uninitialized
// block and on the disk path of a written one, and a page the caller
// may not write. Each is refused before the page changes; a page the
// caller owns and nothing else backs is used.
func TestReadRejectsForeignCallerPage(t *testing.T) {
	f := newFixture(t)
	var fresh, written disk.BlockNo
	alloc := func(e *kernel.Env, i int) (disk.BlockNo, error) {
		b, _ := f.x.FindFree(disk.BlockNo(300+10*i), 1)
		return b, f.x.Alloc(e, f.rootBlk, tnAddRecord(i, b, 1, f.data),
			udf.Extent{Start: int64(b), Count: 1, Type: int64(f.data)})
	}
	f.run(t, "setup", func(e *kernel.Env) error {
		var err error
		if written, err = alloc(e, 0); err != nil {
			return err
		}
		if _, err := f.x.AttachPage(e, written); err != nil {
			return err
		}
		copy(f.x.PageData(written), "on disk")
		if err := f.x.MarkDirty(e, written); err != nil {
			return err
		}
		if err := f.x.Sync(e); err != nil {
			return err
		}
		for {
			if _, ok := f.x.RecycleLRU(e); !ok {
				break
			}
		}
		if _, err := f.x.LoadRoot(e, f.rootName); err != nil {
			return err
		}
		if err := f.x.Insert(e, f.rootBlk, udf.Extent{Start: int64(written), Count: 1, Type: int64(f.data)}); err != nil {
			return err
		}
		fresh, err = alloc(e, 1)
		return err
	})
	root, _ := f.x.Lookup(f.rootBlk)
	before := string(f.x.M.Data(root.Page))
	f.run(t, "root page", func(e *kernel.Env) error {
		for _, b := range []disk.BlockNo{fresh, written} {
			if err := f.x.Read(e, []disk.BlockNo{b}, []mem.PageNo{root.Page}); !errors.Is(err, mem.ErrPageInUse) {
				return fmt.Errorf("Read(%d) into the root's page: err = %v, want %v", b, err, mem.ErrPageInUse)
			}
			if en, _ := f.x.Lookup(b); en.Page != mem.NoPage || en.State != StateOutOfCore {
				return fmt.Errorf("block %d took page %d, state %d", b, en.Page, en.State)
			}
		}
		return nil
	})
	if string(f.x.M.Data(root.Page)) != before {
		t.Fatal("the root's page changed")
	}
	kernelPage, err := f.x.M.Alloc(cap.Root(true))
	if err != nil {
		t.Fatal(err)
	}
	f.runAs(t, "unwritable page", 5, mem.ErrAccessDenied, func(e *kernel.Env) error {
		return f.x.Read(e, []disk.BlockNo{written}, []mem.PageNo{kernelPage})
	})
	f.run(t, "own page", func(e *kernel.Env) error {
		if err := f.x.Read(e, []disk.BlockNo{written, fresh}, []mem.PageNo{kernelPage, mem.NoPage}); err != nil {
			return err
		}
		if en, _ := f.x.Lookup(written); en.Page != kernelPage || string(f.x.PageData(written)[:7]) != "on disk" {
			return fmt.Errorf("block %d read into page %d, want %d", written, en.Page, kernelPage)
		}
		return nil
	})
}

func TestInsertRejectsUnownedBlock(t *testing.T) {
	f := newFixture(t)
	f.run(t, "unowned", func(e *kernel.Env) error {
		err := f.x.Insert(e, f.rootBlk, udf.Extent{Start: 999, Count: 1, Type: int64(f.data)})
		if !errors.Is(err, ErrNotOwned) {
			t.Errorf("err = %v, want ErrNotOwned", err)
		}
		return nil
	})
}

func TestOrderedWritesTaintRule(t *testing.T) {
	// Rule 2 (Section 4.3.2): never persist a pointer to uninitialized
	// metadata. Writing the parent before initializing+writing the
	// child must fail; after the child is written, it must succeed.
	f := newFixture(t)
	f.run(t, "taint", func(e *kernel.Env) error {
		child, _ := f.x.FindFree(400, 1)
		if err := f.x.Alloc(e, f.rootBlk, tnAddRecord(0, child, 1, f.tnode),
			udf.Extent{Start: int64(child), Count: 1, Type: int64(f.tnode)}); err != nil {
			return err
		}
		en, _ := f.x.Lookup(f.rootBlk)
		if !en.Tainted {
			t.Error("parent not marked tainted after allocating uninitialized child")
		}
		err := f.x.Write(e, []disk.BlockNo{f.rootBlk})
		if !errors.Is(err, ErrTainted) {
			t.Errorf("premature parent write err = %v, want ErrTainted", err)
		}
		// Initialize the child (owner=0, n=0) and write it first.
		if err := f.x.InitMetadata(e, child, make([]byte, 8)); err != nil {
			return err
		}
		err = f.x.Write(e, []disk.BlockNo{f.rootBlk})
		if !errors.Is(err, ErrTainted) {
			t.Errorf("parent write before child on disk err = %v, want ErrTainted", err)
		}
		if err := f.x.Write(e, []disk.BlockNo{child}); err != nil {
			return err
		}
		en, _ = f.x.Lookup(f.rootBlk)
		if en.Tainted {
			t.Error("parent still tainted after child write")
		}
		return f.x.Write(e, []disk.BlockNo{f.rootBlk})
	})
}

func TestSyncFlushesInDependencyOrder(t *testing.T) {
	f := newFixture(t)
	f.run(t, "chain", func(e *kernel.Env) error {
		// root -> m1 -> m2 chain, all dirty, children uninitialized.
		m1, _ := f.x.FindFree(500, 1)
		if err := f.x.Alloc(e, f.rootBlk, tnAddRecord(0, m1, 1, f.tnode),
			udf.Extent{Start: int64(m1), Count: 1, Type: int64(f.tnode)}); err != nil {
			return err
		}
		if err := f.x.InitMetadata(e, m1, make([]byte, 8)); err != nil {
			return err
		}
		m2, _ := f.x.FindFree(600, 1)
		if err := f.x.Alloc(e, m1, tnAddRecord(0, m2, 1, f.tnode),
			udf.Extent{Start: int64(m2), Count: 1, Type: int64(f.tnode)}); err != nil {
			return err
		}
		if err := f.x.InitMetadata(e, m2, make([]byte, 8)); err != nil {
			return err
		}
		if err := f.x.Sync(e); err != nil {
			return err
		}
		if len(f.x.DirtyBlocks()) != 0 {
			t.Errorf("dirty blocks after sync: %v", f.x.DirtyBlocks())
		}
		return nil
	})
}

func TestDeallocWillFreeList(t *testing.T) {
	f := newFixture(t)
	var target disk.BlockNo
	f.run(t, "setup", func(e *kernel.Env) error {
		tgt, _ := f.x.FindFree(300, 1)
		target = tgt
		if err := f.x.Alloc(e, f.rootBlk, tnAddRecord(0, tgt, 1, f.data),
			udf.Extent{Start: int64(tgt), Count: 1, Type: int64(f.data)}); err != nil {
			return err
		}
		if _, err := f.x.AttachPage(e, tgt); err != nil {
			return err
		}
		if err := f.x.MarkDirty(e, tgt); err != nil {
			return err
		}
		if err := f.x.Write(e, []disk.BlockNo{tgt}); err != nil {
			return err
		}
		// Parent hits the disk with the pointer: on-disk ref exists.
		return f.x.Write(e, []disk.BlockNo{f.rootBlk})
	})
	f.run(t, "dealloc", func(e *kernel.Env) error {
		if err := f.x.Dealloc(e, f.rootBlk, tnRemoveLast(1),
			udf.Extent{Start: int64(target), Count: 1, Type: int64(f.data)}); err != nil {
			return err
		}
		// On-disk parent still points at it: must be on will-free, not
		// free ("never reuse an on-disk resource before nullifying all
		// previous pointers to it").
		if f.x.IsFree(target) {
			t.Error("block freed while on-disk pointer exists")
		}
		if f.x.WillFreeCount() != 1 {
			t.Errorf("will-free count = %d, want 1", f.x.WillFreeCount())
		}
		// Writing the parent nullifies the pointer; the block frees.
		if err := f.x.Write(e, []disk.BlockNo{f.rootBlk}); err != nil {
			return err
		}
		if !f.x.IsFree(target) {
			t.Error("block not freed after pointer nullified on disk")
		}
		if f.x.WillFreeCount() != 0 {
			t.Errorf("will-free count = %d, want 0", f.x.WillFreeCount())
		}
		return nil
	})
}

func TestDeallocNeverOnDiskFreesImmediately(t *testing.T) {
	f := newFixture(t)
	f.run(t, "quick", func(e *kernel.Env) error {
		tgt, _ := f.x.FindFree(300, 1)
		if err := f.x.Alloc(e, f.rootBlk, tnAddRecord(0, tgt, 1, f.data),
			udf.Extent{Start: int64(tgt), Count: 1, Type: int64(f.data)}); err != nil {
			return err
		}
		// Parent never written: no on-disk pointer; dealloc frees now.
		if err := f.x.Dealloc(e, f.rootBlk, tnRemoveLast(1),
			udf.Extent{Start: int64(tgt), Count: 1, Type: int64(f.data)}); err != nil {
			return err
		}
		if !f.x.IsFree(tgt) {
			t.Error("block not immediately free")
		}
		return nil
	})
}

func TestModifyMustNotChangeOwnership(t *testing.T) {
	f := newFixture(t)
	f.run(t, "modify", func(e *kernel.Env) error {
		tgt, _ := f.x.FindFree(300, 1)
		// Modify that sneaks in an allocation must be rejected.
		err := f.x.Modify(e, f.rootBlk, tnAddRecord(0, tgt, 1, f.data))
		if !errors.Is(err, ErrBadDelta) {
			t.Errorf("err = %v, want ErrBadDelta", err)
		}
		// Owner change (no ownership delta) is fine.
		owner := make([]byte, 4)
		binary.LittleEndian.PutUint32(owner, 42)
		return f.x.Modify(e, f.rootBlk, []Mod{{Off: tnOwnerOff, Bytes: owner}})
	})
}

func TestMetadataNeverMappedWritable(t *testing.T) {
	f := newFixture(t)
	f.run(t, "maprw", func(e *kernel.Env) error {
		_, err := f.x.MapData(e, f.rootBlk, true)
		if !errors.Is(err, ErrMetadataRW) {
			t.Errorf("err = %v, want ErrMetadataRW", err)
		}
		_, err = f.x.MapData(e, f.rootBlk, false)
		return err // read-only mapping of metadata is fine
	})
}

// TestAdoptPageRejectsMetadataSource is the regression for a metadata
// alias: adopting a metadata block's page into a data block, which can
// then be mapped writable, would let the caller rewrite the metadata
// past acl-uf and owns-udf.
func TestAdoptPageRejectsMetadataSource(t *testing.T) {
	f := newFixture(t)
	f.run(t, "adopt-meta", func(e *kernel.Env) error {
		d, _ := f.x.FindFree(300, 1)
		if err := f.x.Alloc(e, f.rootBlk, tnAddRecord(0, d, 1, f.data),
			udf.Extent{Start: int64(d), Count: 1, Type: int64(f.data)}); err != nil {
			return err
		}
		if err := f.x.AdoptPage(e, d, f.rootBlk); !errors.Is(err, ErrMetadataRW) {
			t.Errorf("AdoptPage from the root tnode: err = %v, want ErrMetadataRW", err)
		}
		root, _ := f.x.Lookup(f.rootBlk)
		if p, err := f.x.MapData(e, d, true); err == nil && p == root.Page {
			t.Errorf("data block %d maps the root tnode's page %d writable", d, p)
		}
		return nil
	})
}

// TestRecycleKeepsUninitializedEntry reallocates a block whose disk
// still holds its previous incarnation, reads it (zeros: it was never
// initialized) and recycles everything it can. The entry must stay, so
// that reading the block back serves zeros rather than the previous
// owner's content.
func TestRecycleKeepsUninitializedEntry(t *testing.T) {
	f := newFixture(t)
	f.run(t, "stale", func(e *kernel.Env) error {
		m, _ := f.x.FindFree(500, 1)
		ext := udf.Extent{Start: int64(m), Count: 1, Type: int64(f.tnode)}
		if err := f.x.Alloc(e, f.rootBlk, tnAddRecord(0, m, 1, f.tnode), ext); err != nil {
			return err
		}
		if err := f.x.InitMetadata(e, m, []byte{7, 0, 0, 0}); err != nil {
			return err
		}
		if err := f.x.Sync(e); err != nil {
			return err
		}
		if err := f.x.Dealloc(e, f.rootBlk, tnRemoveLast(1), ext); err != nil {
			return err
		}
		if err := f.x.Sync(e); err != nil {
			return err
		}
		if !f.x.IsFree(m) {
			return fmt.Errorf("block %d not free once its last pointer was written", m)
		}
		if err := f.x.Alloc(e, f.rootBlk, tnAddRecord(0, m, 1, f.tnode), ext); err != nil {
			return err
		}
		if err := f.x.Read(e, []disk.BlockNo{m}, nil); err != nil {
			return err
		}
		for ok := true; ok; {
			_, ok = f.x.RecycleLRU(e)
		}
		if err := f.x.Insert(e, f.rootBlk, ext); err != nil {
			return err
		}
		if err := f.x.Read(e, []disk.BlockNo{m}, nil); err != nil {
			return err
		}
		if owner := binary.LittleEndian.Uint32(f.x.PageData(m)); owner != 0 {
			return fmt.Errorf("block %d read back with owner %d, its previous incarnation's", m, owner)
		}
		return nil
	})
}

func TestLocking(t *testing.T) {
	f := newFixture(t)
	// Env 1 locks the root; env 2's modification must fail with
	// ErrLocked; after unlock it succeeds.
	locked := make(chan struct{})
	release := make(chan struct{})
	_ = locked
	_ = release
	f.run(t, "locker", func(e *kernel.Env) error {
		return f.x.Lock(e, f.rootBlk)
	})
	f.run(t, "blocked", func(e *kernel.Env) error {
		owner := make([]byte, 4)
		err := f.x.Modify(e, f.rootBlk, []Mod{{Off: tnOwnerOff, Bytes: owner}})
		if !errors.Is(err, ErrLocked) {
			t.Errorf("err = %v, want ErrLocked", err)
		}
		err = f.x.Write(e, []disk.BlockNo{f.rootBlk})
		if !errors.Is(err, ErrLocked) {
			t.Errorf("write err = %v, want ErrLocked", err)
		}
		err = f.x.Unlock(e, f.rootBlk)
		if !errors.Is(err, ErrLocked) {
			t.Errorf("foreign unlock err = %v, want ErrLocked", err)
		}
		return nil
	})
}

func TestRawReadThenBind(t *testing.T) {
	f := newFixture(t)
	var target disk.BlockNo
	f.run(t, "setup", func(e *kernel.Env) error {
		tgt, _ := f.x.FindFree(300, 1)
		target = tgt
		if err := f.x.Alloc(e, f.rootBlk, tnAddRecord(0, tgt, 1, f.data),
			udf.Extent{Start: int64(tgt), Count: 1, Type: int64(f.data)}); err != nil {
			return err
		}
		if _, err := f.x.AttachPage(e, tgt); err != nil {
			return err
		}
		copy(f.x.PageData(tgt), "spec")
		if err := f.x.MarkDirty(e, tgt); err != nil {
			return err
		}
		if err := f.x.Write(e, []disk.BlockNo{tgt}); err != nil {
			return err
		}
		if err := f.x.Write(e, []disk.BlockNo{f.rootBlk}); err != nil {
			return err
		}
		for {
			if _, ok := f.x.RecycleLRU(e); !ok {
				break
			}
		}
		return nil
	})
	f.run(t, "raw", func(e *kernel.Env) error {
		if err := f.x.RawRead(e, target); err != nil {
			return err
		}
		en, _ := f.x.Lookup(target)
		if en.Tmpl != TmplUnknown {
			t.Errorf("speculative entry tmpl = %v, want unknown", en.Tmpl)
		}
		// Unusable until bound: MapData must fail.
		if _, err := f.x.MapData(e, target, false); err == nil {
			t.Error("unbound speculative block was mappable")
		}
		// Bind via parent.
		if _, err := f.x.LoadRoot(e, f.rootName); err != nil {
			return err
		}
		if err := f.x.Insert(e, f.rootBlk, udf.Extent{Start: int64(target), Count: 1, Type: int64(f.data)}); err != nil {
			return err
		}
		if _, err := f.x.MapData(e, target, false); err != nil {
			return err
		}
		if string(f.x.PageData(target)[:4]) != "spec" {
			t.Error("speculative read content wrong")
		}
		return nil
	})
}

func TestCrashRecoveryGC(t *testing.T) {
	f := newFixture(t)
	var synced, lost disk.BlockNo
	f.run(t, "build", func(e *kernel.Env) error {
		// One persistent allocation, synced to disk...
		s, _ := f.x.FindFree(300, 1)
		synced = s
		if err := f.x.Alloc(e, f.rootBlk, tnAddRecord(0, s, 1, f.data),
			udf.Extent{Start: int64(s), Count: 1, Type: int64(f.data)}); err != nil {
			return err
		}
		if _, err := f.x.AttachPage(e, s); err != nil {
			return err
		}
		if err := f.x.MarkDirty(e, s); err != nil {
			return err
		}
		if err := f.x.Sync(e); err != nil {
			return err
		}
		// ...and one allocation that never reaches the disk.
		l, _ := f.x.FindFree(600, 1)
		lost = l
		return f.x.Alloc(e, f.rootBlk, tnAddRecord(1, l, 1, f.data),
			udf.Extent{Start: int64(l), Count: 1, Type: int64(f.data)})
	})

	// Crash: throw away all in-memory state, remount from the disk.
	x2, err := Mount(f.k)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := x2.TemplateByName("tnode"); !ok {
		t.Fatal("template catalogue lost across reboot")
	}
	if x2.IsFree(f.rootBlk) {
		t.Error("root block free after recovery")
	}
	if x2.IsFree(synced) {
		t.Error("synced block reclaimed by GC")
	}
	if !x2.IsFree(lost) {
		t.Error("unsynced allocation not reclaimed by GC")
	}
	// The recovered volume must be fully usable.
	f.x = x2
	f.run(t, "reuse", func(e *kernel.Env) error {
		if _, err := x2.LoadRoot(e, f.rootName); err != nil {
			return err
		}
		if err := x2.Insert(e, f.rootBlk, udf.Extent{Start: int64(synced), Count: 1, Type: int64(f.data)}); err != nil {
			return err
		}
		return x2.Read(e, []disk.BlockNo{synced}, nil)
	})
}

func TestTemporaryRootExemptFromOrdering(t *testing.T) {
	f := newFixture(t)
	f.run(t, "tmpfs", func(e *kernel.Env) error {
		start, err := f.x.AllocRootExtent(e, 2000, 1)
		if err != nil {
			return err
		}
		if err := f.x.RegisterRoot(e, Root{
			Name: "tmpfs", Start: start, Count: 1, Tmpl: f.tnode, Temporary: true,
		}); err != nil {
			return err
		}
		if _, err := f.x.LoadRoot(e, "tmpfs"); err != nil {
			return err
		}
		child, _ := f.x.FindFree(2100, 1)
		if err := f.x.Alloc(e, start, tnAddRecord(0, child, 1, f.tnode),
			udf.Extent{Start: int64(child), Count: 1, Type: int64(f.tnode)}); err != nil {
			return err
		}
		// Parent write with uninitialized child: allowed for temporary
		// file systems (Section 4.3.2).
		return f.x.Write(e, []disk.BlockNo{start})
	})
	// And temporary roots do not survive reboot.
	x2, err := Mount(f.k)
	if err != nil {
		t.Fatal(err)
	}
	f.run(t, "gone", func(e *kernel.Env) error {
		_, err := x2.LookupRoot(e, "tmpfs")
		if !errors.Is(err, ErrNoRoot) {
			t.Errorf("temporary root survived reboot: %v", err)
		}
		return nil
	})
}

func TestCacheSharingAcrossEnvironments(t *testing.T) {
	// Two environments read the same block; the second gets a cache
	// hit — "applications ... can also safely use each other's cached
	// pages" (Section 3.2).
	f := newFixture(t)
	var target disk.BlockNo
	f.run(t, "setup", func(e *kernel.Env) error {
		tgt, _ := f.x.FindFree(300, 1)
		target = tgt
		if err := f.x.Alloc(e, f.rootBlk, tnAddRecord(0, tgt, 1, f.data),
			udf.Extent{Start: int64(tgt), Count: 1, Type: int64(f.data)}); err != nil {
			return err
		}
		if _, err := f.x.AttachPage(e, tgt); err != nil {
			return err
		}
		if err := f.x.MarkDirty(e, tgt); err != nil {
			return err
		}
		return f.x.Sync(e)
	})
	hitsBefore := f.k.Stats.Get(sim.CtrCacheHits)
	f.run(t, "sharer", func(e *kernel.Env) error {
		if err := f.x.Insert(e, f.rootBlk, udf.Extent{Start: int64(target), Count: 1, Type: int64(f.data)}); err != nil {
			return err
		}
		return f.x.Read(e, []disk.BlockNo{target}, nil)
	})
	if f.k.Stats.Get(sim.CtrCacheHits) != hitsBefore+1 {
		t.Fatalf("expected one cache hit, got %d", f.k.Stats.Get(sim.CtrCacheHits)-hitsBefore)
	}
}

func TestLRURecycleReclaimsCleanBuffers(t *testing.T) {
	f := newFixture(t)
	f.run(t, "recycle", func(e *kernel.Env) error {
		before := len(f.x.reg)
		if before == 0 {
			t.Fatal("nothing cached")
		}
		p, ok := f.x.RecycleLRU(e)
		if !ok {
			// Root may be dirty; sync and retry.
			if err := f.x.Sync(e); err != nil {
				return err
			}
			p, ok = f.x.RecycleLRU(e)
		}
		if !ok {
			t.Fatal("recycle found no victim")
		}
		_ = p
		if len(f.x.reg) != before-1 {
			t.Errorf("registry size %d, want %d", len(f.x.reg), before-1)
		}
		return nil
	})
}

func TestFindFreeWraps(t *testing.T) {
	f := newFixture(t)
	// Hint near the end of the volume must wrap to find space.
	start, ok := f.x.FindFree(4090, 16)
	if !ok {
		t.Fatal("FindFree failed")
	}
	if start < disk.BlockNo(reservedEnd) {
		t.Fatalf("found run in reserved area at %d", start)
	}
}

func TestWakeupPredicateOnBlockState(t *testing.T) {
	// The Section 5.1 example verbatim: "to wait for a disk block to
	// be paged in, a wakeup predicate can bind to the block's state
	// and wake up when it changes from 'in transit' to 'resident'".
	// A third-party environment sleeps on the exposed state word while
	// another environment's read is in flight.
	f := newFixture(t)
	var target disk.BlockNo
	f.run(t, "setup", func(e *kernel.Env) error {
		tgt, _ := f.x.FindFree(300, 1)
		target = tgt
		if err := f.x.Alloc(e, f.rootBlk, tnAddRecord(0, tgt, 1, f.data),
			udf.Extent{Start: int64(tgt), Count: 1, Type: int64(f.data)}); err != nil {
			return err
		}
		if _, err := f.x.AttachPage(e, tgt); err != nil {
			return err
		}
		if err := f.x.MarkDirty(e, tgt); err != nil {
			return err
		}
		if err := f.x.Sync(e); err != nil {
			return err
		}
		_, ok := f.x.RecycleLRU(e) // evict the freshly written block
		for ok {
			_, ok = f.x.RecycleLRU(e)
		}
		return nil
	})

	var watcherWoke, readDone sim.Time
	reader := f.k.Spawn("reader", func(e *kernel.Env) {
		e.Creds = cap.UnixCreds(0)
		if _, err := f.x.LoadRoot(e, f.rootName); err != nil {
			t.Error(err)
			return
		}
		if err := f.x.Insert(e, f.rootBlk, udf.Extent{Start: int64(target), Count: 1, Type: int64(f.data)}); err != nil {
			t.Error(err)
			return
		}
		if err := f.x.Read(e, []disk.BlockNo{target}, nil); err != nil {
			t.Error(err)
			return
		}
		readDone = f.k.Now()
	})
	_ = reader
	f.k.Spawn("watcher", func(e *kernel.Env) {
		e.Creds = cap.UnixCreds(0)
		// Run after the reader has issued its I/O.
		for {
			if en, ok := f.x.Lookup(target); ok && en.State == StateInTransit {
				break
			}
			e.Use(10_000) // poll the read-only registry briefly
			if f.k.Now() > sim.FromMillis(500) {
				t.Error("read never became in-transit")
				return
			}
		}
		word, ok := f.x.StateWord(target)
		if !ok {
			t.Error("no state word")
			return
		}
		pred, err := wkpred.Compile(wkpred.Cmp(wkpred.EQ, wkpred.Load(word), wkpred.Const(int64(StateResident))))
		if err != nil {
			t.Error(err)
			return
		}
		e.SleepOn(pred, 0)
		watcherWoke = f.k.Now()
	})
	f.k.Run()
	if readDone == 0 || watcherWoke == 0 {
		t.Fatalf("read=%v watcher=%v: someone never finished", readDone, watcherWoke)
	}
	if watcherWoke < readDone {
		t.Fatalf("watcher woke at %v before the block was resident at %v", watcherWoke, readDone)
	}
}
