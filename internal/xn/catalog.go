package xn

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"sort"
	"sync"

	"xok/internal/disk"
	"xok/internal/kernel"
	"xok/internal/sim"
)

// The template and root catalogues are persistent: "once installed,
// types are persistent across reboots" (Section 4.4). The simulation
// serializes both into the reserved block area so that Mount — and the
// crash-recovery path — can reconstruct XN entirely from the disk
// image.

const superMagic = 0x584E2D31 // "XN-1"

type catalogImage struct {
	NextTmpl  TemplateID
	Templates []Template
	Roots     []Root
}

// SuspendCatalogueFlush defers catalogue write-through until the
// matching ResumeCatalogueFlush. mkfs installs a handful of templates
// and roots back to back; re-serializing the whole catalogue after each
// one is pure overhead, so the format path brackets its setup with a
// suspend/resume pair and pays for one flush. Calls nest. The deferred
// state is only in-memory maps — crash boundaries cannot fall inside
// the bracket because catalogue writes use the untimed PokeBlock path
// and the machine has run no timed work yet.
func (x *XN) SuspendCatalogueFlush() { x.catFlushHold++ }

// ResumeCatalogueFlush re-enables write-through and performs the flush
// skipped while suspended, if any.
func (x *XN) ResumeCatalogueFlush() {
	if x.catFlushHold == 0 {
		panic("xn: ResumeCatalogueFlush without suspend")
	}
	x.catFlushHold--
	if x.catFlushHold == 0 && x.catFlushDirty {
		x.catFlushDirty = false
		x.flushCatalogues()
	}
}

// flushCatalogues serializes the catalogues into the reserved blocks.
// Catalogue updates (template installs, root registrations) are rare
// setup operations; they are written through immediately.
func (x *XN) flushCatalogues() {
	if x.catFlushHold > 0 {
		x.catFlushDirty = true
		return
	}
	img := catalogImage{NextTmpl: x.nextTmpl}
	for _, t := range x.templates {
		img.Templates = append(img.Templates, *t)
	}
	sort.Slice(img.Templates, func(i, j int) bool { return img.Templates[i].ID < img.Templates[j].ID })
	for _, r := range x.roots {
		img.Roots = append(img.Roots, r)
	}
	sort.Slice(img.Roots, func(i, j int) bool { return img.Roots[i].Name < img.Roots[j].Name })

	x.catBuf.Reset()
	if err := gob.NewEncoder(&x.catBuf).Encode(&img); err != nil {
		panic(fmt.Sprintf("xn: catalogue encode: %v", err))
	}
	capacity := (tmplCatBlocks + rootCatBlocks) * sim.DiskBlockSize
	if x.catBuf.Len() > capacity {
		panic(fmt.Sprintf("xn: catalogue image %d bytes exceeds reserved area %d", x.catBuf.Len(), capacity))
	}

	// One scratch block serves the superblock and every catalogue block:
	// PokeBlock copies the bytes into the media, never retaining them.
	if x.catScratch == nil {
		x.catScratch = make([]byte, sim.DiskBlockSize)
	}
	blk := x.catScratch
	clear(blk)
	binary.LittleEndian.PutUint32(blk[0:], superMagic)
	binary.LittleEndian.PutUint32(blk[4:], uint32(x.catBuf.Len()))
	x.D.PokeBlock(superBlock, blk)

	data := x.catBuf.Bytes()
	for i := 0; i < tmplCatBlocks+rootCatBlocks; i++ {
		clear(blk)
		lo := i * sim.DiskBlockSize
		if lo < len(data) {
			hi := lo + sim.DiskBlockSize
			if hi > len(data) {
				hi = len(data)
			}
			copy(blk, data[lo:hi])
		}
		x.D.PokeBlock(disk.BlockNo(tmplCatStart+i), blk)
	}
}

// Mount attaches XN to a previously-formatted disk: it reads the
// catalogues back and reconstructs the free map by garbage-collecting
// from the roots — "XN uses these roots to garbage-collect the disk by
// reconstructing the free map ... reachable blocks are allocated,
// non-reachable blocks are not" (Section 4.4). This is also the crash
// recovery path: after a simulated crash, Mount on the surviving disk
// image restores a consistent XN.
func Mount(k *kernel.Kernel) (*XN, error) {
	x := newEmpty(k)
	super := x.D.ViewBlock(superBlock)
	if binary.LittleEndian.Uint32(super[0:]) != superMagic {
		return nil, fmt.Errorf("xn: no XN volume on disk")
	}
	size := int(binary.LittleEndian.Uint32(super[4:]))
	data := make([]byte, 0, size)
	for i := 0; len(data) < size; i++ {
		blk := x.D.ViewBlock(disk.BlockNo(tmplCatStart + i))
		need := size - len(data)
		if need > len(blk) {
			need = len(blk)
		}
		data = append(data, blk[:need]...)
	}
	cat, err := decodeCatalog(data)
	if err != nil {
		return nil, err
	}
	x.nextTmpl = cat.nextTmpl
	for _, t := range cat.templates {
		x.templates[t.ID] = t
		x.tmplNames[t.Name] = t.ID
	}
	for _, r := range cat.roots {
		if r.Temporary {
			continue // temporary file systems do not survive reboot
		}
		x.roots[r.Name] = r
	}
	x.free = newBitmap(x.D.NumBlocks())
	x.free.setRange(reservedEnd, x.D.NumBlocks(), true)
	x.recoverGC()
	return x, nil
}

// mountedCatalog is a decoded catalogue image. Its templates are
// shared by every XN mounted from the same bytes, as Snapshot shares
// them with forks: a template never changes once installed.
type mountedCatalog struct {
	nextTmpl  TemplateID
	templates []*Template
	roots     []Root
}

// catalogMemoMax bounds the memo of decoded catalogues. A campaign of
// forked machines mounts a handful of distinct catalogues thousands of
// times; the memo is emptied when it fills.
const catalogMemoMax = 16

// catalogMemo maps a catalogue's exact bytes to its decoding. Mount
// runs on parallel workers, so the map is guarded.
var catalogMemo = struct {
	sync.Mutex
	m map[string]*mountedCatalog
}{m: make(map[string]*mountedCatalog)}

// decodeCatalog decodes a catalogue image, once per distinct image.
func decodeCatalog(data []byte) (*mountedCatalog, error) {
	catalogMemo.Lock()
	cat := catalogMemo.m[string(data)]
	catalogMemo.Unlock()
	if cat != nil {
		return cat, nil
	}
	var img catalogImage
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&img); err != nil {
		return nil, fmt.Errorf("xn: catalogue decode: %v", err)
	}
	cat = &mountedCatalog{nextTmpl: img.NextTmpl, roots: img.Roots}
	for i := range img.Templates {
		cat.templates = append(cat.templates, &img.Templates[i])
	}
	catalogMemo.Lock()
	if len(catalogMemo.m) >= catalogMemoMax {
		clear(catalogMemo.m)
	}
	catalogMemo.m[string(data)] = cat
	catalogMemo.Unlock()
	return cat, nil
}

// recoverGC rebuilds the free map and the on-disk reference counts by
// logically traversing all roots and all blocks reachable from them.
func (x *XN) recoverGC() {
	type frame struct {
		b    disk.BlockNo
		tmpl TemplateID
	}
	visited := make(map[disk.BlockNo]bool)
	var stack []frame

	names := make([]string, 0, len(x.roots))
	for name := range x.roots {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		r := x.roots[name]
		for i := int64(0); i < r.Count; i++ {
			b := r.Start + disk.BlockNo(i)
			x.diskRefs[b]++
			x.free.set(int64(b), false)
			stack = append(stack, frame{b, r.Tmpl})
		}
	}

	for len(stack) > 0 {
		f := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if visited[f.b] {
			continue
		}
		visited[f.b] = true
		t, ok := x.templates[f.tmpl]
		if !ok {
			continue
		}
		data := x.D.ViewBlock(f.b)
		owns, extents, err := x.evalOwns(t, data)
		x.chargeUDF(nil, owns.steps)
		if err != nil {
			// A block whose owns-udf faults owns nothing; the write
			// ordering rules guarantee reachable metadata is intact,
			// so this only happens for hostile or leaf content.
			continue
		}
		if len(owns.runs) > 0 {
			x.onDiskOwns[f.b] = owns
		}
		for _, ext := range extents {
			for j := int64(0); j < ext.Count; j++ {
				c := disk.BlockNo(ext.Start + j)
				if int64(c) < reservedEnd || int64(c) >= x.D.NumBlocks() {
					continue
				}
				x.diskRefs[c]++
				x.free.set(int64(c), false)
				stack = append(stack, frame{c, TemplateID(ext.Type)})
			}
		}
	}
}
