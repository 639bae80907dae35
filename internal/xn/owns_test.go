package xn

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

	"xok/internal/disk"
	"xok/internal/kernel"
	"xok/internal/udf"
)

// checkOwns audits the owns-udf results registry entries keep: an entry
// holds one only while resident, under a template with an owns-udf, and
// the result must be what a fresh interpretation of its page gives,
// extents and step count alike.
func checkOwns(x *XN) error {
	for b, en := range x.reg {
		if !en.ownsValid {
			continue
		}
		t, ok := x.templates[en.Tmpl]
		if en.State != StateResident || !ok {
			return fmt.Errorf("block %d: owns result held in state %d under template %d", b, en.State, en.Tmpl)
		}
		res, err := udf.Run(t.Owns, x.M.Data(en.Page), nil, nil, 0)
		if err != nil {
			return fmt.Errorf("block %d: owns result held over content owns-udf rejects: %v", b, err)
		}
		if int(en.ownsSteps) != res.Steps || !slices.Equal(en.owns, res.Extents) {
			return fmt.Errorf("block %d: held %v in %d steps, content gives %v in %d",
				b, en.owns, en.ownsSteps, res.Extents, res.Steps)
		}
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
		if !f.x.reg[b].ownsValid {
			return fmt.Errorf("no owns result after Modify")
		}
		if err := f.x.InitMetadata(e, b, []byte{9, 0, 0, 0}); err != nil {
			return err
		}
		if f.x.reg[b].ownsValid {
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
	if !f.x.reg[f.rootBlk].ownsValid {
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
	if got := fork.x.reg[f.rootBlk]; !got.ownsValid || len(got.owns) != 1 {
		t.Fatalf("fork's root result = %v (valid %v), want the parent's one extent", got.owns, got.ownsValid)
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
	if n, m := len(parent.reg[f.rootBlk].owns), len(fork.x.reg[f.rootBlk].owns); n != 1 || m != 2 {
		t.Errorf("root owns %d extents on the parent and %d on the fork, want 1 and 2", n, m)
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
