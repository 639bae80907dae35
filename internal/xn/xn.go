// Package xn implements XN, Xok's extensible, low-level in-kernel
// stable storage system (Section 4). XN provides access to storage at
// the level of disk blocks and exports a buffer cache registry, a free
// map, and template/root catalogues. Its job is to determine, as
// efficiently as possible, the access rights of a principal to a disk
// block — without understanding the metadata layouts of the library
// file systems (libFSes) built above it.
//
// The cornerstone is UDFs (untrusted deterministic functions,
// internal/udf): each metadata type is described once, in a template,
// by three functions —
//
//	owns-udf  (deterministic) — metadata bytes -> owned extents
//	acl-uf    — approves/denies a proposed modification
//	size-uf   — byte size of the structure
//
// To allocate a block b into metadata m, a libFS hands XN m, b and a
// proposed byte-level modification to m. XN runs owns-udf(m), applies
// the modification to a copy, runs owns-udf(m'), and verifies the new
// ownership set equals the old set plus exactly b (Section 4.1). The
// symmetric check guards deallocation, and a modification that must not
// change ownership at all (Modify) is verified to have an empty delta.
//
// XN also enforces the two Ganger/Patt integrity rules that protect the
// whole system (Section 4.3.2): an on-disk resource is never reused
// before all on-disk pointers to it are nullified (will-free list with
// reference counts), and persistent pointers to uninitialized
// structures are never written (tainted-block tracking, with the
// temporary-filesystem and unattached-subtree exemptions).
package xn

import (
	"bytes"
	"errors"
	"fmt"
	"strconv"

	"xok/internal/cap"
	"xok/internal/disk"
	"xok/internal/kernel"
	"xok/internal/mem"
	"xok/internal/sim"
	"xok/internal/trace"
	"xok/internal/udf"
)

// TemplateID names an installed template.
type TemplateID int64

// ExtentPair is a (start, count) run of blocks — the common currency
// of libFS extent tables.
type ExtentPair struct {
	Start disk.BlockNo
	Count uint32
}

// Reserved template IDs.
const (
	// TmplUnknown marks a registry entry whose type is not yet known
	// (raw speculative reads, Section 4.4).
	TmplUnknown TemplateID = 0
)

// Template describes one on-disk metadata type (Section 4.1). Once
// installed, a template cannot be changed.
type Template struct {
	ID   TemplateID
	Name string // unique string, e.g. "FFS Inode"

	Owns *udf.Program // deterministic: metadata -> extents
	Acl  *udf.Program // modification approval (may read env)
	Size *udf.Program // structure size in bytes

	// Temporary marks types belonging to a non-persistent file system:
	// exempt from the ordering rules (Section 4.3.2).
	Temporary bool

	// AclAtParent routes access-control checks to the parent's acl-uf
	// instead of this type's own. Data blocks carry no permission
	// information of their own, so "access control through acl-uf is
	// performed at the parent (e.g., if the data loaded is a bare disk
	// block), at the child (e.g., if the data is an inode), or both"
	// (Section 4.4).
	AclAtParent bool
}

// Root is a persistent entry in the root catalogue: "a root entry
// consists of a disk extent and corresponding template type, identified
// by a unique string" (Section 4.4).
type Root struct {
	Name      string
	Start     disk.BlockNo
	Count     int64
	Tmpl      TemplateID
	Temporary bool
}

// Errors.
var (
	ErrBadTemplate    = errors.New("xn: template verification failed")
	ErrDupTemplate    = errors.New("xn: template name already installed")
	ErrNoTemplate     = errors.New("xn: unknown template")
	ErrDupRoot        = errors.New("xn: root name already registered")
	ErrNoRoot         = errors.New("xn: unknown root")
	ErrNotInRegistry  = errors.New("xn: block not in buffer cache registry")
	ErrNotResident    = errors.New("xn: block not resident")
	ErrNotOwned       = errors.New("xn: metadata does not own requested block")
	ErrBadDelta       = errors.New("xn: modification changes ownership incorrectly")
	ErrNotFree        = errors.New("xn: requested block is not free")
	ErrAccessDenied   = errors.New("xn: acl-uf rejected the operation")
	ErrTainted        = errors.New("xn: write would persist pointer to uninitialized data")
	ErrLocked         = errors.New("xn: registry entry locked by another environment")
	ErrPinned         = errors.New("xn: block pinned by another application")
	ErrMetadataRW     = errors.New("xn: metadata blocks may not be mapped read/write")
	ErrOutOfRange     = errors.New("xn: block outside volume")
	ErrUDF            = errors.New("xn: UDF execution failed")
	ErrWrongParent    = errors.New("xn: entry bound to a different parent")
	ErrStillReachable = errors.New("xn: block still has on-disk references")
)

// Layout of the reserved area (in blocks).
const (
	superBlock    = 0
	tmplCatStart  = 1
	tmplCatBlocks = 16
	rootCatStart  = tmplCatStart + tmplCatBlocks
	rootCatBlocks = 8
	reservedEnd   = rootCatStart + rootCatBlocks
)

// XN is the storage system for one disk.
type XN struct {
	K *kernel.Kernel
	D *disk.Disk
	M *mem.PhysMem

	templates map[TemplateID]*Template
	tmplNames map[string]TemplateID
	nextTmpl  TemplateID

	roots map[string]Root

	free *bitmap

	reg map[disk.BlockNo]*Entry

	// waiters holds the environments waiting for each entry's read in
	// flight, woken when it completes.
	waiters map[*Entry][]*kernel.Env

	// dirty indexes the registry's dirty entries in block order,
	// flushable the dirty ones with no flush-behind write in flight,
	// and lru is the sentinel of its LRU list (index.go).
	dirty     dirtySet
	flushable dirtySet
	lru       Entry

	// taint holds the bad-child count of each metadata block's current
	// incarnation (taint.go).
	taint map[disk.BlockNo]*taintCount

	// useClock stamps registry entries for LRU recycling. Per-machine
	// state: a package-level clock would be a data race (and a hidden
	// cross-machine coupling) once machines run on parallel workers.
	useClock uint64

	// onDiskOwns is what each written metadata block pointed to the
	// last time it hit the disk; diffing against it on each write
	// maintains diskRefs.
	onDiskOwns map[disk.BlockNo][]udf.Extent
	// diskRefs counts on-disk pointers to each block.
	diskRefs map[disk.BlockNo]int
	// willFree holds deallocated blocks awaiting diskRefs == 0
	// ("XN enqueues the block on a 'will free' list until the block's
	// reference count is zero", Section 4.4).
	willFree map[disk.BlockNo]bool

	// FreeCost disables per-call trap and UDF charging. The monolithic
	// BSD personalities reuse this package as their in-kernel file
	// system substrate: there, block bookkeeping is ordinary kernel
	// code whose cost is charged by the syscall layer above, not a
	// protection boundary. Xok machines leave this false — the
	// difference is precisely the paper's "cost of protection"
	// (Section 6.3).
	FreeCost bool

	// MaxCachePages caps buffer-cache size (0 = unlimited). See
	// getPage in ops.go.
	MaxCachePages int

	// FlushBehind, when non-zero, starts asynchronous write-back once
	// more than this many blocks are dirty (C-FFS flush-behind: writes
	// are asynchronous but dirty data does not accumulate unboundedly).
	FlushBehind int

	// trials counts the envs inside mutateMeta between trial-applying
	// a modification and committing it (see mutateMeta).
	trials int

	// runs is the reusable scratch of the ownership comparisons
	// (runs.go), lent to one caller at a time (see takeRuns).
	runs     runScratch
	runsBusy bool

	// Catalogue write-through batching and scratch (see catalog.go).
	catFlushHold  int
	catFlushDirty bool
	catBuf        bytes.Buffer
	catScratch    []byte
}

// New attaches XN to a kernel's disk and formats the volume (mkfs):
// fresh catalogues, everything past the reserved area free. Use Mount
// to attach to an existing volume instead.
func New(k *kernel.Kernel) *XN {
	x := newEmpty(k)
	x.free = newBitmap(k.Disk.NumBlocks())
	x.free.setRange(reservedEnd, k.Disk.NumBlocks(), true)
	x.flushCatalogues()
	return x
}

func newEmpty(k *kernel.Kernel) *XN {
	if k.Disk == nil {
		panic("xn: kernel has no disk")
	}
	x := &XN{
		K:          k,
		D:          k.Disk,
		M:          k.Mem,
		templates:  make(map[TemplateID]*Template),
		tmplNames:  make(map[string]TemplateID),
		nextTmpl:   1,
		roots:      make(map[string]Root),
		reg:        make(map[disk.BlockNo]*Entry),
		waiters:    make(map[*Entry][]*kernel.Env),
		taint:      make(map[disk.BlockNo]*taintCount),
		onDiskOwns: make(map[disk.BlockNo][]udf.Extent),
		diskRefs:   make(map[disk.BlockNo]int),
		willFree:   make(map[disk.BlockNo]bool),
	}
	x.lruInit()
	return x
}

// InstallTemplate verifies the three UDFs and installs a new type in
// the type catalogue. "Creating new file formats should be simple and
// lightweight. It should not require any special privilege"
// (Section 4): any environment may call this.
func (x *XN) InstallTemplate(e *kernel.Env, t Template) (TemplateID, error) {
	x.charge(e, sim.Time(200))
	if _, dup := x.tmplNames[t.Name]; dup {
		return 0, ErrDupTemplate
	}
	if t.Owns == nil || t.Acl == nil || t.Size == nil {
		return 0, fmt.Errorf("%w: missing UDF", ErrBadTemplate)
	}
	// owns-udf must be deterministic; acl-uf and size-uf may not.
	if err := udf.Verify(t.Owns, true); err != nil {
		return 0, fmt.Errorf("%w: owns: %v", ErrBadTemplate, err)
	}
	if err := udf.Verify(t.Acl, false); err != nil {
		return 0, fmt.Errorf("%w: acl: %v", ErrBadTemplate, err)
	}
	if err := udf.Verify(t.Size, false); err != nil {
		return 0, fmt.Errorf("%w: size: %v", ErrBadTemplate, err)
	}
	t.ID = x.nextTmpl
	x.nextTmpl++
	tc := t
	x.templates[t.ID] = &tc
	x.tmplNames[t.Name] = t.ID
	x.flushCatalogues()
	return t.ID, nil
}

// TemplateByName looks up an installed template (exposed catalogue).
func (x *XN) TemplateByName(name string) (*Template, bool) {
	id, ok := x.tmplNames[name]
	if !ok {
		return nil, false
	}
	return x.templates[id], true
}

// RegisterRoot records a persistent root in the root catalogue
// (Section 4.4, "LibFS persistence"). The extent must be allocated
// first (via Alloc or claimed from the free map at mkfs time with
// AllocRootExtent).
func (x *XN) RegisterRoot(e *kernel.Env, r Root) error {
	x.charge(e, 200)
	if _, dup := x.roots[r.Name]; dup {
		return ErrDupRoot
	}
	if _, ok := x.templates[r.Tmpl]; !ok {
		return ErrNoTemplate
	}
	x.roots[r.Name] = r
	// Root catalogue references are on-disk pointers: they pin the
	// extent across crashes.
	for i := int64(0); i < r.Count; i++ {
		x.diskRefs[r.Start+disk.BlockNo(i)]++
	}
	x.flushCatalogues()
	return nil
}

// LookupRoot returns a root catalogue entry.
func (x *XN) LookupRoot(e *kernel.Env, name string) (Root, error) {
	x.charge(e, 50)
	r, ok := x.roots[name]
	if !ok {
		return Root{}, ErrNoRoot
	}
	return r, nil
}

// AllocRootExtent claims count free contiguous blocks for a new libFS
// root, preferring the given start hint. Used at libFS-creation time,
// before any metadata exists to hang an Alloc off.
func (x *XN) AllocRootExtent(e *kernel.Env, hint disk.BlockNo, count int64) (disk.BlockNo, error) {
	x.charge(e, 200)
	start, ok := x.free.findRun(int64(hint), count)
	if !ok {
		return 0, ErrNotFree
	}
	x.free.setRange(start, start+count, false)
	return disk.BlockNo(start), nil
}

// FreeBlocks reports the number of free blocks (exposed free map).
func (x *XN) FreeBlocks() int64 { return x.free.count() }

// IsFree reports whether block b is free (libFSes read the free map to
// control layout, Section 4.4 "Allocate").
func (x *XN) IsFree(b disk.BlockNo) bool {
	return x.free.get(int64(b))
}

// FindFree locates a run of count free blocks at or after hint,
// wrapping once. Pure free-map read: libFSes use it to choose layout.
func (x *XN) FindFree(hint disk.BlockNo, count int64) (disk.BlockNo, bool) {
	start, ok := x.free.findRun(int64(hint), count)
	return disk.BlockNo(start), ok
}

// charge bills e for one XN system call plus work; nil env runs free
// (mkfs-time setup).
func (x *XN) charge(e *kernel.Env, work sim.Time) {
	if e == nil || x.FreeCost {
		return
	}
	e.Syscall(work)
}

// chargeUDF bills interpreted UDF steps. With tracing on, each
// interpretation becomes a span and a latency sample, so the cost of
// in-kernel UDF interpretation is attributable per call.
func (x *XN) chargeUDF(e *kernel.Env, steps int) {
	x.K.Stats.Add(sim.CtrUDFSteps, int64(steps))
	if e != nil && !x.FreeCost {
		if tr := x.K.Trace; tr != nil {
			begin := x.K.Now()
			e.Use(sim.Time(steps) * sim.CostUDFStep)
			now := x.K.Now()
			tr.Span(x.K.TracePID, e.TraceLane(), "xn", "udf", begin, now,
				trace.Arg{Key: "steps", Val: strconv.Itoa(steps)})
			tr.Observe(x.K.TracePID, "xn.udf", now-begin)
			return
		}
		e.Use(sim.Time(steps) * sim.CostUDFStep)
	}
}

// NextTemplateID previews the ID the next InstallTemplate call will
// assign (exposed information; self-referential templates like a
// directory type that owns other directories need it to compile their
// owns-udf).
func (x *XN) NextTemplateID() TemplateID { return x.nextTmpl }

// evalOwns interprets a template's owns-udf over metadata bytes,
// without charging for it.
func evalOwns(t *Template, meta []byte) ([]udf.Extent, int, error) {
	res, err := udf.Run(t.Owns, meta, nil, nil, 0)
	if err != nil {
		return nil, res.Steps, fmt.Errorf("%w: owns-udf(%s): %v", ErrUDF, t.Name, err)
	}
	return res.Extents, res.Steps, nil
}

// runOwns interprets a template's owns-udf over metadata bytes.
func (x *XN) runOwns(e *kernel.Env, t *Template, meta []byte) ([]udf.Extent, error) {
	owns, steps, err := evalOwns(t, meta)
	x.chargeUDF(e, steps)
	return owns, err
}

// ownsOf is runOwns over data, the content of en's page. owns-udf is
// deterministic, so its result is a function of the template and the
// bytes: en keeps the last one until its content changes, and a repeat
// is charged the steps of the run it stands for without interpreting
// them again. The result is stored before the charge parks e, so a
// modification committed meanwhile is not overwritten by a stale one.
func (x *XN) ownsOf(e *kernel.Env, en *Entry, t *Template, data []byte) ([]udf.Extent, error) {
	if en.ownsValid {
		x.chargeUDF(e, int(en.ownsSteps))
		return en.owns, nil
	}
	owns, steps, err := evalOwns(t, data)
	if err == nil && !en.dropped {
		en.setOwns(owns, steps)
	}
	x.chargeUDF(e, steps)
	return owns, err
}

// runAcl interprets acl-uf: metadata, proposed modification bytes, and
// the caller's identity in the environment words.
func (x *XN) runAcl(e *kernel.Env, t *Template, meta, mod []byte, op int64) (bool, error) {
	env := udf.Env{
		int64(x.K.Now().Seconds()), // env[0]: time of day
		op,                         // env[1]: operation code
		credWord(e, 0),             // env[2]: uid
		credWord(e, 1),             // env[3]: gid
	}
	res, err := udf.Run(t.Acl, meta, mod, env, 0)
	x.chargeUDF(e, res.Steps)
	if err != nil {
		return false, fmt.Errorf("%w: acl-uf(%s): %v", ErrUDF, t.Name, err)
	}
	return res.Ret != 0, nil
}

// Operation codes passed to acl-uf in env[1].
const (
	OpRead    = 1
	OpModify  = 2
	OpAlloc   = 3
	OpDealloc = 4
)

// credWord extracts the caller's uid (i=0) or gid (i=1) from its
// credentials for acl-uf consumption. Root credentials read as 0.
func credWord(e *kernel.Env, i int) int64 {
	if e == nil {
		return 0
	}
	return cap.CredWord(e.Creds, i)
}
