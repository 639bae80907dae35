package cffs

import (
	"encoding/binary"
	"errors"
	"fmt"
	"strconv"
	"strings"

	"xok/internal/disk"
	"xok/internal/kernel"
	"xok/internal/sim"
	"xok/internal/trace"
	"xok/internal/udf"
	"xok/internal/xn"
)

// Config selects the file system's structural policies. The C-FFS
// defaults are what give the paper's speedups; the FFS baseline
// (internal/ffs) reuses this implementation with the flags inverted,
// which isolates exactly the structural differences the C-FFS paper
// identifies (embedded inodes, co-location, asynchronous metadata).
type Config struct {
	// Colocate allocates file data adjacent to its directory block
	// (C-FFS). When false, data goes to a rotating cursor far from the
	// directory, FFS-style.
	Colocate bool

	// SyncMeta forces synchronous directory/inode writes on namespace
	// operations (create, mkdir, unlink, rmdir, rename) — the FFS
	// integrity discipline that XN's ordering rules make unnecessary.
	SyncMeta bool

	// EmbeddedInodes stores inodes inside directory blocks (C-FFS).
	// When false, every namespace operation also dirties (and, with
	// SyncMeta, synchronously writes) a block in a separate inode
	// table region, modelling FFS's split between inodes and
	// directories.
	EmbeddedInodes bool

	// Temporary marks the whole file system non-persistent. XN then
	// exempts it from the write-ordering rules ("entire file systems
	// [can] be marked 'temporary' ... memory-based file systems can be
	// implemented with no loss of efficiency", Section 4.3.2) and the
	// root does not survive a reboot.
	Temporary bool
}

// MemConfig is a memory-based (tmpfs-style) file system: C-FFS
// policies with persistence off — one of the file systems Section 4.6
// names as planned future work.
func MemConfig() Config {
	cfg := DefaultConfig()
	cfg.Temporary = true
	return cfg
}

// DefaultConfig is genuine C-FFS.
func DefaultConfig() Config {
	return Config{Colocate: true, SyncMeta: false, EmbeddedInodes: true}
}

// FFSConfig is the FFS-style baseline profile.
func FFSConfig() Config {
	return Config{Colocate: false, SyncMeta: true, EmbeddedInodes: false}
}

// Ref locates a file: the directory block holding its slot, and the
// slot index. With embedded inodes this *is* the inode's address. Gen
// is the incarnation the reference was resolved against; RefInode
// rejects a ref whose slot has since been recycled.
type Ref struct {
	Dir  disk.BlockNo
	Slot int
	Gen  uint32
}

// Errors.
var (
	ErrNotFound  = errors.New("cffs: no such file or directory")
	ErrExists    = errors.New("cffs: file exists")
	ErrNotDir    = errors.New("cffs: not a directory")
	ErrIsDir     = errors.New("cffs: is a directory")
	ErrNotEmpty  = errors.New("cffs: directory not empty")
	ErrDirFull   = errors.New("cffs: directory has no free slots")
	ErrFileLimit = errors.New("cffs: file size limit reached")
	ErrNameLen   = errors.New("cffs: name too long")
	ErrLinkLoop  = errors.New("cffs: too many levels of symbolic links")
	ErrInvalOp   = errors.New("cffs: invalid operation for this entry kind")
	ErrStale     = errors.New("cffs: stale file reference")
)

// MaxLinkDepth bounds symbolic-link resolution (ELOOP past it).
const MaxLinkDepth = 8

const itableBlocks = 32

// FS is one mounted C-FFS file system.
type FS struct {
	X    *xn.XN
	Name string
	Cfg  Config

	Root  disk.BlockNo
	DirT  xn.TemplateID
	IndT  xn.TemplateID
	DataT xn.TemplateID

	itable     disk.BlockNo // inode-table region (non-embedded mode)
	dataCursor disk.BlockNo // FFS-style allocation cursor
	genCtr     uint32       // monotonic slot-incarnation counter

	nameCache map[string]Ref
}

// nextGen mints a fresh slot incarnation number (never 0, so a
// zero-valued Ref can never validate against a live slot).
func (fs *FS) nextGen() uint32 {
	fs.genCtr++
	return fs.genCtr
}

// Mkfs formats a new C-FFS on the volume: installs the three templates
// (data first, then indirect, then the self-referential directory type
// whose ID is predicted via NextTemplateID), claims and registers the
// root directory block, and initializes it.
func Mkfs(e *kernel.Env, x *xn.XN, name string, cfg Config) (*FS, error) {
	fs := &FS{X: x, Name: name, Cfg: cfg, nameCache: make(map[string]Ref)}

	// The installs and root registrations below each write the whole
	// catalogue through to disk; batch them into one flush at the end.
	x.SuspendCatalogueFlush()
	defer x.ResumeCatalogueFlush()

	dataT, err := x.InstallTemplate(e, xn.Template{
		Name:        name + ".data",
		Owns:        mustAsm(name+".data.owns", noOwnsSource),
		Acl:         mustAsm(name+".data.acl", approveAllSource),
		Size:        mustAsm(name+".data.size", blockSizeSource),
		AclAtParent: true,
		Temporary:   cfg.Temporary,
	})
	if err != nil {
		return nil, err
	}
	indT, err := x.InstallTemplate(e, xn.Template{
		Name:      name + ".ind",
		Owns:      mustAsm(name+".ind.owns", indOwnsSource(int64(dataT))),
		Acl:       mustAsm(name+".ind.acl", approveAllSource),
		Size:      mustAsm(name+".ind.size", blockSizeSource),
		Temporary: cfg.Temporary,
	})
	if err != nil {
		return nil, err
	}
	dirT := x.NextTemplateID()
	gotDirT, err := x.InstallTemplate(e, xn.Template{
		Name:      name + ".dir",
		Owns:      mustAsm(name+".dir.owns", dirOwnsSource(int64(dirT), int64(dataT), int64(indT))),
		Acl:       mustAsm(name+".dir.acl", dirAclSource),
		Size:      mustAsm(name+".dir.size", dirSizeSource),
		Temporary: cfg.Temporary,
	})
	if err != nil {
		return nil, err
	}
	if gotDirT != dirT {
		return nil, fmt.Errorf("cffs: template id prediction failed: %d != %d", gotDirT, dirT)
	}
	fs.DataT, fs.IndT, fs.DirT = dataT, indT, dirT

	root, err := x.AllocRootExtent(e, 64, 1)
	if err != nil {
		return nil, err
	}
	fs.Root = root
	if err := x.RegisterRoot(e, xn.Root{
		Name: name, Start: root, Count: 1, Tmpl: dirT, Temporary: cfg.Temporary,
	}); err != nil {
		return nil, err
	}
	if _, err := x.LoadRoot(e, name); err != nil {
		return nil, err
	}
	// Initialize the root directory header in place (the freshly-read
	// zero block owns nothing, so this is a pure Modify).
	hdr := EncodeDirHeader(0, 0, 7) // uid 0, other bits rwx: world-usable root
	if err := x.Modify(e, root, []xn.Mod{{Off: 0, Bytes: hdr}}); err != nil {
		return nil, err
	}

	if !cfg.EmbeddedInodes {
		if err := fs.setupItable(e); err != nil {
			return nil, err
		}
	}
	fs.dataCursor = root + 512
	return fs, nil
}

// setupItable claims the separate inode-table region used by the FFS
// baseline profile.
func (fs *FS) setupItable(e *kernel.Env) error {
	x := fs.X
	itT, err := x.InstallTemplate(e, xn.Template{
		Name: fs.Name + ".itable",
		Owns: mustAsm(fs.Name+".itable.owns", noOwnsSource),
		Acl:  mustAsm(fs.Name+".itable.acl", approveAllSource),
		Size: mustAsm(fs.Name+".itable.size", blockSizeSource),
	})
	if err != nil {
		return err
	}
	start, err := x.AllocRootExtent(e, fs.Root+2048, itableBlocks)
	if err != nil {
		return err
	}
	if err := x.RegisterRoot(e, xn.Root{
		Name: fs.Name + ".itable", Start: start, Count: itableBlocks, Tmpl: itT,
	}); err != nil {
		return err
	}
	if _, err := x.LoadRoot(e, fs.Name+".itable"); err != nil {
		return err
	}
	fs.itable = start
	return nil
}

// Attach mounts an existing C-FFS (e.g. after a reboot): looks up the
// templates and root by name and loads the root directory.
func Attach(e *kernel.Env, x *xn.XN, name string, cfg Config) (*FS, error) {
	fs := &FS{X: x, Name: name, Cfg: cfg, nameCache: make(map[string]Ref)}
	for _, tp := range []struct {
		suffix string
		dst    *xn.TemplateID
	}{{".data", &fs.DataT}, {".ind", &fs.IndT}, {".dir", &fs.DirT}} {
		t, ok := x.TemplateByName(name + tp.suffix)
		if !ok {
			return nil, fmt.Errorf("cffs: template %s%s missing", name, tp.suffix)
		}
		*tp.dst = t.ID
	}
	r, err := x.LoadRoot(e, name)
	if err != nil {
		return nil, err
	}
	fs.Root = r.Start
	if !cfg.EmbeddedInodes {
		ir, err := x.LoadRoot(e, name+".itable")
		if err != nil {
			return nil, err
		}
		fs.itable = ir.Start
	}
	fs.dataCursor = fs.Root + 512
	return fs, nil
}

// ensureDir makes a directory block resident, inserting it under its
// parent in the registry if needed.
func (fs *FS) ensureDir(e *kernel.Env, blk, parent disk.BlockNo) error {
	if fs.X.Cached(blk) {
		fs.X.Pin(blk)
		return nil
	}
	if _, ok := fs.X.Lookup(blk); !ok {
		if err := fs.X.Insert(e, parent, udf.Extent{Start: int64(blk), Count: 1, Type: int64(fs.DirT)}); err != nil {
			return err
		}
	}
	if err := fs.X.Read(e, []disk.BlockNo{blk}, nil); err != nil {
		return err
	}
	// Directory blocks are the libFS's hot metadata: pin them so
	// handles and the name cache stay valid under cache pressure.
	fs.X.Pin(blk)
	return nil
}

func (fs *FS) dirData(blk disk.BlockNo) []byte { return fs.X.PageData(blk) }

// split normalizes a path into components. Hand-rolled rather than
// strings.Split: every namei allocates one of these, and the Split
// intermediate slice doubled the cost.
func split(path string) []string {
	n := 0
	for i := 0; i < len(path); {
		j := i
		for j < len(path) && path[j] != '/' {
			j++
		}
		if c := path[i:j]; c != "" && c != "." {
			n++
		}
		i = j + 1
	}
	if n == 0 {
		return nil
	}
	out := make([]string, 0, n)
	for i := 0; i < len(path); {
		j := i
		for j < len(path) && path[j] != '/' {
			j++
		}
		if c := path[i:j]; c != "" && c != "." {
			out = append(out, c)
		}
		i = j + 1
	}
	return out
}

// lastComp returns the last of split(path)'s components, or "" when it
// has none, without allocating.
func lastComp(path string) string {
	for j := len(path); j > 0; {
		i := strings.LastIndexByte(path[:j], '/') + 1
		if c := path[i:j]; c != "" && c != "." {
			return c
		}
		j = i - 1
	}
	return ""
}

// findEntry scans a directory chain for name. Returns the ref and
// inode.
func (fs *FS) findEntry(e *kernel.Env, head, parent disk.BlockNo, name string) (Ref, Inode, error) {
	blk, par := head, parent
	for {
		if err := fs.ensureDir(e, blk, par); err != nil {
			return Ref{}, Inode{}, err
		}
		data := fs.dirData(blk)
		e.Use(sim.TouchCost(DirHdrSize + SlotsPerBlock*8)) // scan cost
		for i := 0; i < SlotsPerBlock; i++ {
			if in, ok := decodeSlotNamed(data, i, name); ok {
				return Ref{Dir: blk, Slot: i, Gen: in.Gen}, in, nil
			}
		}
		next := DirNext(data)
		if next == 0 {
			return Ref{}, Inode{}, ErrNotFound
		}
		par = blk
		blk = disk.BlockNo(next)
	}
}

// walkDir resolves the directory containing path's last component,
// returning its head block and the final name. LibOS-level name cache
// first ("renaming or deleting a file updates the name cache",
// Section 4.5).
func (fs *FS) walkDir(e *kernel.Env, path string) (disk.BlockNo, string, error) {
	comps := split(path)
	if len(comps) == 0 {
		return 0, "", ErrIsDir
	}
	e.LibCall(100)
	cur := fs.Root
	var par disk.BlockNo = xn.NoParent
	if err := fs.ensureDir(e, cur, par); err != nil {
		return 0, "", err
	}
	for _, c := range comps[:len(comps)-1] {
		ref, in, err := fs.findEntry(e, cur, par, c)
		if err != nil {
			return 0, "", err
		}
		if in.Kind != KindDir {
			return 0, "", ErrNotDir
		}
		par = ref.Dir
		child := disk.BlockNo(in.Ext[0].Start)
		if err := fs.ensureDir(e, child, par); err != nil {
			return 0, "", err
		}
		par = ref.Dir
		cur = child
	}
	return cur, comps[len(comps)-1], nil
}

// LookupNoFollow resolves a path to its Ref and Inode without
// resolving a symbolic link in the final component (the lstat/unlink/
// rename view of the namespace).
func (fs *FS) LookupNoFollow(e *kernel.Env, path string) (Ref, Inode, error) {
	if r, ok := fs.nameCache[path]; ok {
		if fs.X.Cached(r.Dir) {
			// A slot can be recycled for a different name after
			// unlink+create; the name check keeps a stale cache entry
			// from resurrecting the old path.
			name := lastComp(path)
			if in, ok := decodeSlotNamed(fs.dirData(r.Dir), r.Slot, name); ok && name != "" {
				e.LibCall(50)
				// Same name can reoccupy the slot after unlink+create;
				// hand out the current incarnation, not the cached one.
				r.Gen = in.Gen
				return r, in, nil
			}
		}
		delete(fs.nameCache, path)
	}
	head, name, err := fs.walkDir(e, path)
	if err != nil {
		return Ref{}, Inode{}, err
	}
	ref, in, err := fs.findEntry(e, head, xn.NoParent, name)
	if err != nil {
		return Ref{}, Inode{}, err
	}
	fs.nameCache[path] = ref
	fs.touchItable(e, ref, false)
	return ref, in, nil
}

// Lookup resolves a path to its Ref and Inode, following symbolic
// links in the final component (up to MaxLinkDepth).
func (fs *FS) Lookup(e *kernel.Env, path string) (Ref, Inode, error) {
	return fs.lookupFollow(e, path, 0)
}

func (fs *FS) lookupFollow(e *kernel.Env, path string, depth int) (Ref, Inode, error) {
	ref, in, err := fs.LookupNoFollow(e, path)
	if err != nil || in.Kind != KindLink {
		return ref, in, err
	}
	if depth >= MaxLinkDepth {
		return Ref{}, Inode{}, ErrLinkLoop
	}
	target, err := fs.ReadLink(e, ref, in)
	if err != nil {
		return Ref{}, Inode{}, err
	}
	if target == "" {
		return Ref{}, Inode{}, ErrNotFound
	}
	// A relative target resolves against the link's containing
	// directory.
	if !strings.HasPrefix(target, "/") {
		trimmed := strings.TrimRight(path, "/")
		if i := strings.LastIndexByte(trimmed, '/'); i >= 0 {
			target = trimmed[:i+1] + target
		}
	}
	return fs.lookupFollow(e, target, depth+1)
}

// ReadLink returns the target path stored in a symbolic link's data
// block.
func (fs *FS) ReadLink(e *kernel.Env, ref Ref, in Inode) (string, error) {
	if in.Kind != KindLink {
		return "", ErrInvalOp
	}
	buf := make([]byte, in.Size)
	n, err := fs.ReadAt(e, ref, 0, buf)
	if err != nil {
		return "", err
	}
	return string(buf[:n]), nil
}

// Stat returns the inode for path.
func (fs *FS) Stat(e *kernel.Env, path string) (Inode, error) {
	if lastComp(path) == "" {
		return Inode{Used: true, Kind: KindDir, Name: "/"}, nil
	}
	_, in, err := fs.Lookup(e, path)
	return in, err
}

// touchItable models the FFS split-inode penalty: reads (and for
// namespace mutations dirties) the file's block in the separate inode
// region.
func (fs *FS) touchItable(e *kernel.Env, ref Ref, dirty bool) {
	if fs.Cfg.EmbeddedInodes {
		return
	}
	blk := fs.itable + disk.BlockNo((int64(ref.Dir)*SlotsPerBlock+int64(ref.Slot))%itableBlocks)
	if !fs.X.Cached(blk) {
		_ = fs.X.Read(e, []disk.BlockNo{blk}, nil)
	}
	if dirty {
		_ = fs.X.MarkDirty(e, blk)
		if fs.Cfg.SyncMeta {
			_ = fs.X.Write(e, []disk.BlockNo{blk})
		}
	}
}

// freeSlot finds (or creates, by extending the chain) a free slot in
// the directory whose head block is head. Returns the block and index.
func (fs *FS) freeSlot(e *kernel.Env, head disk.BlockNo) (disk.BlockNo, int, error) {
	blk := head
	var par disk.BlockNo = xn.NoParent
	for {
		if err := fs.ensureDir(e, blk, par); err != nil {
			return 0, 0, err
		}
		data := fs.dirData(blk)
		for i := 0; i < SlotsPerBlock; i++ {
			if data[SlotOff(i)] == 0 {
				return blk, i, nil
			}
		}
		next := DirNext(data)
		if next != 0 {
			par = blk
			blk = disk.BlockNo(next)
			continue
		}
		// Extend the chain with a continuation block co-located with
		// the directory.
		nb, ok := fs.X.FindFree(blk+1, 1)
		if !ok {
			return 0, 0, ErrDirFull
		}
		nextBytes := make([]byte, 8)
		binary.LittleEndian.PutUint64(nextBytes, uint64(nb))
		if err := fs.X.Alloc(e, blk, []xn.Mod{{Off: hoNext, Bytes: nextBytes}},
			udf.Extent{Start: int64(nb), Count: 1, Type: int64(fs.DirT)}); err != nil {
			return 0, 0, err
		}
		hdr := fs.dirData(blk)
		if err := fs.X.InitMetadata(e, nb, EncodeDirHeader(
			binary.LittleEndian.Uint32(hdr[hoUID:]),
			binary.LittleEndian.Uint32(hdr[hoGID:]),
			binary.LittleEndian.Uint32(hdr[hoMode:]))); err != nil {
			return 0, 0, err
		}
		fs.syncMeta(e, nb, blk)
		par = blk
		blk = nb
	}
}

// syncMeta performs the FFS-style synchronous metadata write when
// configured, flushing uninitialized children first to satisfy XN's
// ordering rules.
func (fs *FS) syncMeta(e *kernel.Env, blks ...disk.BlockNo) {
	if !fs.Cfg.SyncMeta {
		return
	}
	for _, b := range blks {
		fs.syncOne(e, b, 0)
	}
}

func (fs *FS) syncOne(e *kernel.Env, b disk.BlockNo, depth int) {
	if depth > 8 {
		return
	}
	begin := fs.X.K.Now()
	err := fs.X.Write(e, []disk.BlockNo{b})
	if err == nil {
		fs.noteSyncWrite(e, b, begin)
		return
	}
	if !errors.Is(err, xn.ErrTainted) {
		return
	}
	// Flush resident uninitialized children first, then retry.
	for _, c := range fs.childBlocks(b) {
		if en, ok := fs.X.Lookup(c); ok && en.Uninit && en.State == xn.StateResident {
			fs.syncOne(e, c, depth+1)
		}
	}
	begin = fs.X.K.Now()
	if fs.X.Write(e, []disk.BlockNo{b}) == nil {
		fs.noteSyncWrite(e, b, begin)
	}
}

// noteSyncWrite accounts one completed synchronous metadata write: the
// flat counter the paper's tables need, plus (when tracing) a span and
// a latency-histogram sample so the cost of FFS-style sync ordering is
// attributable per write.
func (fs *FS) noteSyncWrite(e *kernel.Env, b disk.BlockNo, begin sim.Time) {
	k := fs.X.K
	k.Stats.Inc(sim.CtrSyncWrites)
	if tr := k.Trace; tr != nil {
		now := k.Now()
		lane := int64(0)
		if e != nil {
			lane = e.TraceLane()
		}
		tr.Span(k.TracePID, lane, "cffs", "sync-write", begin, now,
			trace.Arg{Key: "block", Val: strconv.FormatInt(int64(b), 10)})
		tr.Observe(k.TracePID, "cffs.syncwrite", now-begin)
	}
}

// childBlocks lists the blocks a cached directory/indirect block owns,
// by decoding the slots (the libFS understands its own format; it does
// not need XN for this).
func (fs *FS) childBlocks(b disk.BlockNo) []disk.BlockNo {
	en, ok := fs.X.Lookup(b)
	if !ok || en.State != xn.StateResident {
		return nil
	}
	data := fs.X.PageData(b)
	var out []disk.BlockNo
	if en.Tmpl == fs.DirT {
		if next := DirNext(data); next != 0 {
			out = append(out, disk.BlockNo(next))
		}
		for i := 0; i < SlotsPerBlock; i++ {
			if data[SlotOff(i)] == 0 {
				continue
			}
			in := decodeSlotFields(data, i)
			for _, ext := range in.Ext {
				for j := uint32(0); j < ext.Count; j++ {
					out = append(out, disk.BlockNo(ext.Start+uint64(j)))
				}
			}
			if in.Ind != 0 {
				out = append(out, disk.BlockNo(in.Ind))
			}
		}
	} else if en.Tmpl == fs.IndT {
		for _, ext := range decodeIndirect(data) {
			for j := uint32(0); j < ext.Count; j++ {
				out = append(out, disk.BlockNo(ext.Start+uint64(j)))
			}
		}
	}
	return out
}

// Create makes a new empty file.
func (fs *FS) Create(e *kernel.Env, path string, uid, gid, mode uint32) (Ref, error) {
	head, name, err := fs.walkDir(e, path)
	if err != nil {
		return Ref{}, err
	}
	if len(name) > MaxNameLen {
		return Ref{}, ErrNameLen
	}
	// Name-uniqueness guarantee (Section 4.5): scan the chain.
	if _, _, err := fs.findEntry(e, head, xn.NoParent, name); err == nil {
		return Ref{}, ErrExists
	}
	blk, slot, err := fs.freeSlot(e, head)
	if err != nil {
		return Ref{}, err
	}
	in := Inode{
		Used: true, Kind: KindFile, Name: name,
		UID: uid, GID: gid, Mode: mode,
		MTime: uint32(fs.X.K.Now().Seconds()),
		Gen:   fs.nextGen(),
	}
	var img [SlotSize]byte
	if err := fs.X.Modify(e, blk, []xn.Mod{{Off: SlotOff(slot), Bytes: encodeSlotInto(img[:], in, in.Name)}}); err != nil {
		return Ref{}, err
	}
	ref := Ref{Dir: blk, Slot: slot, Gen: in.Gen}
	fs.nameCache[path] = ref
	fs.touchItable(e, ref, true)
	fs.syncMeta(e, blk)
	return ref, nil
}

// Mkdir creates a directory: a slot in the parent plus a freshly
// allocated, initialized directory block owned by the parent block.
func (fs *FS) Mkdir(e *kernel.Env, path string, uid, gid, mode uint32) error {
	head, name, err := fs.walkDir(e, path)
	if err != nil {
		return err
	}
	if len(name) > MaxNameLen {
		return ErrNameLen
	}
	if _, _, err := fs.findEntry(e, head, xn.NoParent, name); err == nil {
		return ErrExists
	}
	blk, slot, err := fs.freeSlot(e, head)
	if err != nil {
		return err
	}
	nb, ok := fs.X.FindFree(blk+1, 1)
	if !ok {
		return xn.ErrNotFree
	}
	in := Inode{
		Used: true, Kind: KindDir, Name: name,
		UID: uid, GID: gid, Mode: mode,
		MTime: uint32(fs.X.K.Now().Seconds()),
		Gen:   fs.nextGen(),
	}
	in.Ext[0] = Extent{Start: uint64(nb), Count: 1}
	var img [SlotSize]byte
	if err := fs.X.Alloc(e, blk, []xn.Mod{{Off: SlotOff(slot), Bytes: encodeSlotInto(img[:], in, in.Name)}},
		udf.Extent{Start: int64(nb), Count: 1, Type: int64(fs.DirT)}); err != nil {
		return err
	}
	if err := fs.X.InitMetadata(e, nb, EncodeDirHeader(uid, gid, mode)); err != nil {
		return err
	}
	ref := Ref{Dir: blk, Slot: slot, Gen: in.Gen}
	fs.touchItable(e, ref, true)
	fs.syncMeta(e, nb, blk)
	return nil
}

// Readdir lists the entries of the directory at path.
func (fs *FS) Readdir(e *kernel.Env, path string) ([]Inode, error) {
	head := fs.Root
	if lastComp(path) != "" {
		_, in, err := fs.Lookup(e, path)
		if err != nil {
			return nil, err
		}
		if in.Kind != KindDir {
			return nil, ErrNotDir
		}
		head = disk.BlockNo(in.Ext[0].Start)
	}
	var out []Inode
	blk := head
	var par disk.BlockNo = xn.NoParent
	for {
		if err := fs.ensureDir(e, blk, par); err != nil {
			return nil, err
		}
		data := fs.dirData(blk)
		e.Use(sim.TouchCost(sim.DiskBlockSize / 8))
		for i := 0; i < SlotsPerBlock; i++ {
			if data[SlotOff(i)] != 0 {
				out = append(out, DecodeSlot(data, i))
			}
		}
		next := DirNext(data)
		if next == 0 {
			return out, nil
		}
		par = blk
		blk = disk.BlockNo(next)
	}
}

// Symlink creates a symbolic link at path whose data block holds the
// target path. Structurally the link is a one-block file (so the
// owns-udf's file branch covers it); only the slot kind differs.
func (fs *FS) Symlink(e *kernel.Env, target, path string, uid, gid uint32) error {
	ref, err := fs.Create(e, path, uid, gid, 0777)
	if err != nil {
		return err
	}
	if _, err := fs.WriteAt(e, ref, 0, []byte(target)); err != nil {
		return err
	}
	in := DecodeSlot(fs.dirData(ref.Dir), ref.Slot)
	in.Kind = KindLink
	var img [SlotSize]byte
	if err := fs.X.Modify(e, ref.Dir, []xn.Mod{{Off: SlotOff(ref.Slot), Bytes: encodeSlotInto(img[:], in, in.Name)}}); err != nil {
		return err
	}
	fs.syncMeta(e, ref.Dir)
	return nil
}

// Chmod changes the permission bits of the entry at path (following a
// final-component symlink, as POSIX chmod does). For a directory the
// mode is also mirrored into every block header of its chain, which is
// where the acl-udf reads it.
func (fs *FS) Chmod(e *kernel.Env, path string, mode uint32) error {
	var modeBuf [4]byte
	modeB := modeBuf[:]
	binary.LittleEndian.PutUint32(modeB, mode)
	if lastComp(path) == "" {
		if err := fs.ensureDir(e, fs.Root, xn.NoParent); err != nil {
			return err
		}
		if err := fs.X.Modify(e, fs.Root, []xn.Mod{{Off: hoMode, Bytes: modeB}}); err != nil {
			return err
		}
		fs.syncMeta(e, fs.Root)
		return nil
	}
	ref, in, err := fs.Lookup(e, path)
	if err != nil {
		return err
	}
	in.Mode = mode
	var img [SlotSize]byte
	if err := fs.X.Modify(e, ref.Dir, []xn.Mod{{Off: SlotOff(ref.Slot), Bytes: encodeSlotInto(img[:], in, in.Name)}}); err != nil {
		return err
	}
	if in.Kind == KindDir {
		blk, par := disk.BlockNo(in.Ext[0].Start), ref.Dir
		for blk != 0 {
			if err := fs.ensureDir(e, blk, par); err != nil {
				return err
			}
			if err := fs.X.Modify(e, blk, []xn.Mod{{Off: hoMode, Bytes: modeB}}); err != nil {
				return err
			}
			par = blk
			blk = disk.BlockNo(DirNext(fs.dirData(blk)))
		}
	}
	fs.touchItable(e, ref, true)
	fs.syncMeta(e, ref.Dir)
	return nil
}

// Rename renames within a directory via a slot update; a cross-
// directory rename degrades to copy-and-delete at the libOS level.
func (fs *FS) Rename(e *kernel.Env, oldPath, newPath string) error {
	oldHead, oldName, err := fs.walkDir(e, oldPath)
	if err != nil {
		return err
	}
	newHead, newName, err := fs.walkDir(e, newPath)
	if err != nil {
		return err
	}
	if len(newName) > MaxNameLen {
		return ErrNameLen
	}
	if oldHead != newHead {
		return fmt.Errorf("cffs: cross-directory rename not supported at this layer")
	}
	ref, in, err := fs.findEntry(e, oldHead, xn.NoParent, oldName)
	if err != nil {
		return err
	}
	if _, _, err := fs.findEntry(e, newHead, xn.NoParent, newName); err == nil {
		return ErrExists
	}
	in.Name = newName
	var img [SlotSize]byte
	if err := fs.X.Modify(e, ref.Dir, []xn.Mod{{Off: SlotOff(ref.Slot), Bytes: encodeSlotInto(img[:], in, in.Name)}}); err != nil {
		return err
	}
	delete(fs.nameCache, oldPath) // implicit name-cache update
	if in.Kind == KindDir {
		// Every cached path under the old name now resolves through a
		// name that no longer exists; drop the whole subtree.
		prefix := "/" + strings.Join(split(oldPath), "/") + "/"
		for k := range fs.nameCache {
			if strings.HasPrefix("/"+strings.Join(split(k), "/")+"/", prefix) {
				delete(fs.nameCache, k)
			}
		}
	}
	fs.nameCache[newPath] = ref
	fs.touchItable(e, ref, true)
	fs.syncMeta(e, ref.Dir)
	return nil
}

// Sync flushes all dirty state in dependency order.
func (fs *FS) Sync(e *kernel.Env) error { return fs.X.Sync(e) }
