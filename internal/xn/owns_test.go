package xn

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"testing"

	"xok/internal/cap"
	"xok/internal/disk"
	"xok/internal/kernel"
	"xok/internal/sim"
	"xok/internal/udf"
)

// checkOwns audits the owns-udf results registry entries keep: an entry
// holds one only while resident, under a template with an owns-udf, and
// the result must be what a fresh interpretation of its page gives —
// runs, raw extents, step count and read words alike — however many
// modifications have reused it since it was made.
func checkOwns(x *XN) error {
	var rs runScratch
	for b, en := range x.reg {
		if en.owns == nil {
			continue
		}
		t, ok := x.templates[en.Tmpl]
		if en.State != StateResident || !ok {
			return fmt.Errorf("block %d: owns result held in state %d under template %d", b, en.State, en.Tmpl)
		}
		fresh, _, err := rs.interpret(t, x.M.Data(en.Page))
		if err != nil {
			return fmt.Errorf("block %d: owns result held over content owns-udf rejects: %v", b, err)
		}
		if err := sameOwns(en.owns, fresh); err != nil {
			return fmt.Errorf("block %d: %v", b, err)
		}
	}
	return nil
}

// sameOwns reports how a held owns result differs from a fresh one.
func sameOwns(held, fresh *ownsResult) error {
	switch {
	case !slices.Equal(held.runs, fresh.runs) || !slices.Equal(held.raw, fresh.raw):
		return fmt.Errorf("held %v (raw %v), content gives %v (raw %v)", held.runs, held.raw, fresh.runs, fresh.raw)
	case held.steps != fresh.steps:
		return fmt.Errorf("held %d steps, content gives %d", held.steps, fresh.steps)
	case held.reads != fresh.reads:
		return fmt.Errorf("held read words %x, content gives %x", held.reads, fresh.reads)
	}
	return nil
}

// TestOwnsResultClearedByInitMetadata gives an uninitialized tnode an
// owns result over its zero fill, then initializes it: the result over
// the zeros must not outlive them.
func TestOwnsResultClearedByInitMetadata(t *testing.T) {
	f := newFixture(t)
	f.run(t, "init", func(e *kernel.Env) error {
		b, _ := f.x.FindFree(300, 1)
		if err := f.x.Alloc(e, f.rootBlk, tnAddRecord(0, b, 1, f.tnode),
			udf.Extent{Start: int64(b), Count: 1, Type: int64(f.tnode)}); err != nil {
			return err
		}
		if err := f.x.Read(e, []disk.BlockNo{b}, nil); err != nil {
			return err
		}
		if err := f.x.Modify(e, b, []Mod{{Off: tnOwnerOff, Bytes: []byte{7, 0, 0, 0}}}); err != nil {
			return err
		}
		if f.x.reg[b].owns == nil {
			return fmt.Errorf("no owns result after Modify")
		}
		if err := f.x.InitMetadata(e, b, []byte{9, 0, 0, 0}); err != nil {
			return err
		}
		if f.x.reg[b].owns != nil {
			return fmt.Errorf("owns result kept across InitMetadata")
		}
		return checkOwns(f.x)
	})
}

// TestOwnsResultForkThenModify forks a machine whose root holds an owns
// result and modifies the root on the fork: the fork's result follows
// its own content, and the parent's still matches the parent's.
func TestOwnsResultForkThenModify(t *testing.T) {
	f := newFixture(t)
	alloc := func(x *XN, i int) func(*kernel.Env) error {
		return func(e *kernel.Env) error {
			b, _ := x.FindFree(disk.BlockNo(300+10*i), 1)
			return x.Alloc(e, f.rootBlk, tnAddRecord(i, b, 1, f.data),
				udf.Extent{Start: int64(b), Count: 1, Type: int64(f.data)})
		}
	}
	f.run(t, "alloc", alloc(f.x, 0))
	if f.x.reg[f.rootBlk].owns == nil {
		t.Fatal("no owns result on the root after Alloc")
	}
	ks, err := f.k.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	xs, err := f.x.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	parent := f.x
	fork := &fixture{k: kernel.Fork(ks), tnode: f.tnode, data: f.data, rootBlk: f.rootBlk, rootName: f.rootName}
	fork.x = ForkXN(xs, fork.k)
	if got := fork.x.reg[f.rootBlk].owns; got != parent.reg[f.rootBlk].owns || len(got.runs) != 1 {
		t.Fatalf("fork's root result = %+v, want the parent's, of one run", got)
	}
	fork.run(t, "fork alloc", alloc(fork.x, 1))
	fork.run(t, "fork modify", func(e *kernel.Env) error {
		return fork.x.Modify(e, f.rootBlk, []Mod{{Off: tnOwnerOff, Bytes: []byte{3, 0, 0, 0}}})
	})
	for name, x := range map[string]*XN{"parent": parent, "fork": fork.x} {
		if err := checkOwns(x); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
	if n, m := len(parent.reg[f.rootBlk].owns.runs), len(fork.x.reg[f.rootBlk].owns.runs); n != 1 || m != 2 {
		t.Errorf("root owns %d runs on the parent and %d on the fork, want 1 and 2", n, m)
	}
}

// TestMountCatalogueMemoOneByte mounts two catalogues that differ in one
// byte, one template name's last letter, alternately: each mount must
// see its own names, never the other image's decoding.
func TestMountCatalogueMemoOneByte(t *testing.T) {
	f := newFixture(t)
	var blk disk.BlockNo
	var off int
	for b := disk.BlockNo(tmplCatStart); b < reservedEnd; b++ {
		if i := bytes.Index(f.k.Disk.ViewBlock(b), []byte("tnode")); i >= 0 {
			blk, off = b, i+len("tnode")-1
			break
		}
	}
	if blk == 0 {
		t.Fatal("template name not found in the catalogue blocks")
	}
	setLast := func(c byte) {
		img := append([]byte(nil), f.k.Disk.ViewBlock(blk)...)
		img[off] = c
		f.k.Disk.PokeBlock(blk, img)
	}
	for i := 0; i < 4; i++ {
		want, other := "tnode", "tnodf"
		if i%2 == 1 {
			want, other = other, want
		}
		setLast(want[len(want)-1])
		x, err := Mount(f.k)
		if err != nil {
			t.Fatalf("mount %d: %v", i, err)
		}
		if _, ok := x.TemplateByName(want); !ok {
			t.Errorf("mount %d: template %q missing", i, want)
		}
		if _, ok := x.TemplateByName(other); ok {
			t.Errorf("mount %d: template %q of the other catalogue present", i, other)
		}
	}
}

// TestSelfOverlappingOwnsAudit pins what XN's audits make of an
// owns-udf output that names one block twice. The root tnode on disk
// names block x twice with the same type and block y twice with two
// types. Mount's reachability GC, the free map, CheckConsistency and
// the on-disk reference counts count each occurrence; Insert accepts an
// extent when any occurrence of its type covers it; and rewriting the
// root without changing its pointers leaves the counts alone.
func TestSelfOverlappingOwnsAudit(t *testing.T) {
	f := newFixture(t)
	const x, y = 300, 301
	img := make([]byte, 4096)
	recs := []udf.Extent{
		{Start: x, Count: 1, Type: int64(f.data)},
		{Start: x, Count: 1, Type: int64(f.data)},
		{Start: y, Count: 1, Type: int64(f.data)},
		{Start: y, Count: 1, Type: int64(f.tnode)},
	}
	binary.LittleEndian.PutUint32(img[tnCountOff:], uint32(len(recs)))
	for i, r := range recs {
		rec := img[tnRecsOff+i*tnRecSize:]
		binary.LittleEndian.PutUint64(rec[0:], uint64(r.Start))
		binary.LittleEndian.PutUint32(rec[8:], uint32(r.Count))
		binary.LittleEndian.PutUint32(rec[12:], uint32(r.Type))
	}
	f.k.Disk.PokeBlock(f.rootBlk, img)
	x2, err := Mount(f.k)
	if err != nil {
		t.Fatal(err)
	}
	f.x = x2
	audit := func(when string) {
		t.Helper()
		want := []string{"block 300 has 2 on-disk owners", "block 301 has 2 on-disk owners"}
		if got := x2.CheckConsistency(); !slices.Equal(got, want) {
			t.Errorf("%s: CheckConsistency = %q, want %q", when, got, want)
		}
		for _, b := range []disk.BlockNo{x, y} {
			if n := x2.diskRefs[b]; n != 2 {
				t.Errorf("%s: block %d has %d on-disk references, want 2", when, b, n)
			}
			if x2.IsFree(b) {
				t.Errorf("%s: block %d on the free map", when, b)
			}
		}
	}
	audit("after Mount")
	f.run(t, "insert", func(e *kernel.Env) error {
		if _, err := x2.LoadRoot(e, f.rootName); err != nil {
			return err
		}
		for _, c := range []struct {
			ext  udf.Extent
			want error
		}{
			{udf.Extent{Start: x, Count: 1, Type: int64(f.tnode)}, ErrNotOwned},
			{udf.Extent{Start: x, Count: 1, Type: int64(f.data)}, nil},
			{udf.Extent{Start: y, Count: 1, Type: int64(f.data)}, nil},
			{udf.Extent{Start: y, Count: 1, Type: int64(f.tnode)}, nil},
			{udf.Extent{Start: x, Count: 2, Type: int64(f.data)}, nil},
			{udf.Extent{Start: x - 1, Count: 2, Type: int64(f.data)}, ErrNotOwned},
		} {
			if err := x2.Insert(e, f.rootBlk, c.ext); !errors.Is(err, c.want) {
				t.Errorf("Insert(%+v) = %v, want %v", c.ext, err, c.want)
			}
		}
		if err := x2.Modify(e, f.rootBlk, []Mod{{Off: tnOwnerOff, Bytes: []byte{5, 0, 0, 0}}}); err != nil {
			return err
		}
		return x2.Write(e, []disk.BlockNo{f.rootBlk})
	})
	audit("after rewriting the root")
	if err := checkOwns(x2); err != nil {
		t.Error(err)
	}
}

// TestModifyKeepsOwnsResultOverUnloadedWords modifies the root tnode
// three ways. A word owns-udf never loads, and a loaded word rewritten
// with its own bytes, keep the root's owns result: no interpretation,
// but the steps it stands for are still charged. The owner, which
// shares its word with the loaded record count, gets a new result of
// the same runs.
func TestModifyKeepsOwnsResultOverUnloadedWords(t *testing.T) {
	f := newFixture(t)
	f.run(t, "modify", func(e *kernel.Env) error {
		b, _ := f.x.FindFree(300, 2)
		if err := f.x.Alloc(e, f.rootBlk, tnAddRecord(0, b, 2, f.data),
			udf.Extent{Start: int64(b), Count: 2, Type: int64(f.data)}); err != nil {
			return err
		}
		en := f.x.reg[f.rootBlk]
		count := append([]byte(nil), f.x.M.Data(en.Page)[tnCountOff:tnCountOff+4]...)
		for _, c := range []struct {
			name string
			mod  Mod
			keep bool
		}{
			{"unloaded word", Mod{Off: 2048, Bytes: []byte{1, 2, 3, 4, 5, 6, 7, 8, 9}}, true},
			{"same count", Mod{Off: tnCountOff, Bytes: count}, true},
			{"new owner", Mod{Off: tnOwnerOff, Bytes: []byte{9, 0, 0, 0}}, false},
		} {
			held := en.owns
			before := f.k.Stats.Get(sim.CtrUDFSteps)
			if err := f.x.Modify(e, f.rootBlk, []Mod{c.mod}); err != nil {
				return fmt.Errorf("%s: %v", c.name, err)
			}
			if kept := en.owns == held; kept != c.keep {
				return fmt.Errorf("%s: result kept = %v, want %v", c.name, kept, c.keep)
			}
			acl, err := udf.Run(tnodeAcl, f.x.M.Data(en.Page), appendModsAux(nil, []Mod{c.mod}), udf.Env{0, OpModify, 0, 0}, 0)
			if err != nil {
				return err
			}
			if got, want := f.k.Stats.Get(sim.CtrUDFSteps)-before, int64(acl.Steps+2*held.steps); got != want {
				return fmt.Errorf("%s: charged %d udf steps, want %d (acl-uf, owns-udf twice)", c.name, got, want)
			}
			if err := checkOwns(f.x); err != nil {
				return fmt.Errorf("%s: %v", c.name, err)
			}
		}
		return nil
	})
}

// TestAllocDeallocRejectUnloadedModification hands Alloc and Dealloc
// modifications that rewrite only words owns-udf does not load: the
// owns result stands for the modified block too, so ownership does not
// change and both must fail the delta check.
func TestAllocDeallocRejectUnloadedModification(t *testing.T) {
	f := newFixture(t)
	f.run(t, "lie", func(e *kernel.Env) error {
		b, _ := f.x.FindFree(300, 1)
		ext := udf.Extent{Start: int64(b), Count: 1, Type: int64(f.data)}
		past := tnAddRecord(1, b, 1, f.data)[:1] // record 1 written, count left at 0
		if err := f.x.Alloc(e, f.rootBlk, past, ext); !errors.Is(err, ErrBadDelta) {
			t.Errorf("Alloc recording nothing: err = %v, want ErrBadDelta", err)
		}
		if !f.x.IsFree(b) {
			t.Error("refused Alloc took the block off the free map")
		}
		if err := f.x.Alloc(e, f.rootBlk, tnAddRecord(0, b, 1, f.data), ext); err != nil {
			return err
		}
		if err := f.x.Dealloc(e, f.rootBlk, past, ext); !errors.Is(err, ErrBadDelta) {
			t.Errorf("Dealloc dropping nothing: err = %v, want ErrBadDelta", err)
		}
		return checkOwns(f.x)
	})
}

// TestModifyRacingAllocKeepsOnlyTheCurrentResult parks a Modify of the
// root's owner in its first owns-udf charge while another environment
// commits an allocation into the root. The owner's word is loaded, but
// the shadow copy is taken after the park, from the page holding the
// allocation: only the result held then may be kept, never the one
// the Modify read before it parked. The Modify sees ownership change
// under it and fails; the root's result stays that of its content.
func TestModifyRacingAllocKeepsOnlyTheCurrentResult(t *testing.T) {
	const records = 60
	f := newFixtureQuantum(t, sim.CostUpcall+100)
	f.run(t, "setup", func(e *kernel.Env) error {
		for i := 0; i < records; i++ {
			c, _ := f.x.FindFree(700, 1)
			if err := f.x.Alloc(e, f.rootBlk, tnAddRecord(i, c, 1, f.data),
				udf.Extent{Start: int64(c), Count: 1, Type: int64(f.data)}); err != nil {
				return err
			}
		}
		return nil
	})
	var modErr error
	modified := false
	f.k.Spawn("allocator", func(e *kernel.Env) {
		e.Creds = cap.UnixCreds(0)
		c, _ := f.x.FindFree(900, 1)
		if err := f.x.Alloc(e, f.rootBlk, tnAddRecord(records, c, 1, f.data),
			udf.Extent{Start: int64(c), Count: 1, Type: int64(f.data)}); err != nil {
			t.Errorf("racing Alloc: %v", err)
		}
		if !modified {
			t.Error("Alloc finished before the Modify started")
		}
	})
	f.k.Spawn("modifier", func(e *kernel.Env) {
		e.Creds = cap.UnixCreds(0)
		for f.x.trials == 0 { // wait until the Alloc is in its last charge
			e.Use(10)
		}
		modified = true
		modErr = f.x.Modify(e, f.rootBlk, []Mod{{Off: tnOwnerOff, Bytes: []byte{0, 0, 0, 0}}})
	})
	f.k.Run()
	if !errors.Is(modErr, ErrBadDelta) {
		t.Errorf("Modify across a racing Alloc: err = %v, want ErrBadDelta", modErr)
	}
	if n := len(f.x.reg[f.rootBlk].owns.runs); n == 0 {
		t.Error("root holds no ownership")
	}
	if err := checkOwns(f.x); err != nil {
		t.Error(err)
	}
}
