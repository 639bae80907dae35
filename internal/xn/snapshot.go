package xn

import (
	"cmp"
	"fmt"
	"maps"
	"slices"

	"xok/internal/disk"
	"xok/internal/kernel"
)

// Snapshot is XN's frozen bookkeeping: the type catalogue, roots, the
// free map, the buffer-cache registry, and the on-disk reference
// counting state. Template values and owns-udf results are shared
// with the live XN and its forks rather than deep-copied — both are
// immutable once stored (templates never change after install; an
// owns result is replaced, never changed) — so a snapshot
// costs the tables, not the data they index. Forking from one
// Snapshot is safe from concurrent goroutines: forks only read it.
type Snapshot struct {
	templates map[TemplateID]*Template
	tmplNames map[string]TemplateID
	nextTmpl  TemplateID

	roots     map[string]Root
	freeWords []uint64
	freeN     int64

	// entries is the registry, flattened and sorted by lastUse (the
	// LRU order); list links nil, nothing in flight.
	entries  []Entry
	useClock uint64

	// taint is the live bad-child count of each metadata block. The
	// counts keep changing in the live XN: a fork uses them, and the
	// entries' up pointers, only to tell which entries share a count,
	// and recounts.
	taint map[disk.BlockNo]*taintCount

	onDiskOwns map[disk.BlockNo]*ownsResult
	diskRefs   map[disk.BlockNo]int
	willFree   map[disk.BlockNo]bool

	freeCost      bool
	maxCachePages int
	flushBehind   int
}

// Snapshot captures XN's state. The kernel-level quiescence check
// (engine drained, no environments) already rules out in-flight reads
// and flush-behind writes; the errors here are defensive — they catch
// a caller snapshotting from inside an operation.
func (x *XN) Snapshot() (*Snapshot, error) {
	if x.catFlushHold != 0 {
		return nil, fmt.Errorf("xn: snapshot with catalogue flush suspended (%d holds)", x.catFlushHold)
	}
	if x.trials != 0 {
		return nil, fmt.Errorf("xn: snapshot from inside a metadata modification")
	}
	s := &Snapshot{
		templates:     make(map[TemplateID]*Template, len(x.templates)),
		tmplNames:     make(map[string]TemplateID, len(x.tmplNames)),
		nextTmpl:      x.nextTmpl,
		roots:         make(map[string]Root, len(x.roots)),
		freeWords:     append([]uint64(nil), x.free.words...),
		freeN:         x.free.n,
		entries:       make([]Entry, 0, len(x.reg)),
		useClock:      x.useClock,
		onDiskOwns:    make(map[disk.BlockNo]*ownsResult, len(x.onDiskOwns)),
		diskRefs:      make(map[disk.BlockNo]int, len(x.diskRefs)),
		willFree:      make(map[disk.BlockNo]bool, len(x.willFree)),
		freeCost:      x.FreeCost,
		maxCachePages: x.MaxCachePages,
		flushBehind:   x.FlushBehind,
	}
	for id, t := range x.templates {
		s.templates[id] = t
	}
	for n, id := range x.tmplNames {
		s.tmplNames[n] = id
	}
	for n, r := range x.roots {
		s.roots[n] = r
	}
	for _, en := range x.reg {
		if en.flushing {
			return nil, fmt.Errorf("xn: snapshot with flush-behind write in flight on block %d", en.Block)
		}
		if ws := x.waiters[en]; len(ws) != 0 {
			return nil, fmt.Errorf("xn: snapshot with %d environments waiting on block %d", len(ws), en.Block)
		}
		cp := *en
		cp.lruPrev, cp.lruNext = nil, nil
		s.entries = append(s.entries, cp)
	}
	slices.SortFunc(s.entries, func(a, b Entry) int { return cmp.Compare(a.lastUse, b.lastUse) })
	s.taint = maps.Clone(x.taint)
	for b, owns := range x.onDiskOwns {
		s.onDiskOwns[b] = owns
	}
	for b, n := range x.diskRefs {
		s.diskRefs[b] = n
	}
	for b, v := range x.willFree {
		s.willFree[b] = v
	}
	return s, nil
}

// Fork rebuilds an XN from the snapshot on a forked kernel (whose
// memory and disk are the copy-on-write forks of the snapshotted
// machine's). Page numbers in registry entries are valid by
// construction: the forked PhysMem has the identical frame layout.
func ForkXN(s *Snapshot, k *kernel.Kernel) *XN {
	x := newEmpty(k)
	x.nextTmpl = s.nextTmpl
	x.useClock = s.useClock
	x.FreeCost = s.freeCost
	x.MaxCachePages = s.maxCachePages
	x.FlushBehind = s.flushBehind
	x.free = &bitmap{words: append([]uint64(nil), s.freeWords...), n: s.freeN}
	for id, t := range s.templates {
		x.templates[id] = t
	}
	for n, id := range s.tmplNames {
		x.tmplNames[n] = id
	}
	for n, r := range s.roots {
		x.roots[n] = r
	}
	fresh := make(map[*taintCount]*taintCount, len(s.taint))
	for b, c := range s.taint {
		x.taint[b] = &taintCount{}
		fresh[c] = x.taint[b]
	}
	for i := range s.entries {
		en := s.entries[i]
		x.reg[en.Block] = &en
		if en.Dirty {
			x.dirty.add(en.Block)
			x.flushable.add(en.Block)
		}
		// An entry under a count no block has any more (its parent was
		// freed) counts toward nothing, and needs no count of its own.
		en.up = fresh[en.up]
		if en.up != nil && en.bad() {
			en.up.n++
		}
		if en.lastUse != 0 {
			x.lruAppend(&en)
		}
	}
	for b, owns := range s.onDiskOwns {
		x.onDiskOwns[b] = owns
	}
	for b, n := range s.diskRefs {
		x.diskRefs[b] = n
	}
	for b, v := range s.willFree {
		x.willFree[b] = v
	}
	return x
}
