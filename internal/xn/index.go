package xn

import (
	"cmp"
	"math/bits"
	"slices"

	"xok/internal/disk"
	"xok/internal/mem"
)

// The registry keeps three indices beside its map, so the write-back
// daemon, flush-behind and page recycling cost what they touch rather
// than a scan of every cached block:
//
//   - dirty, the dirty entries in block order (DirtyBlocks, WriteBack
//     and Sync walk it), which also counts them;
//   - flushable, the dirty entries with no flush-behind write in flight,
//     in block order (flush-behind walks it: until a flush-behind write
//     completes its blocks stay dirty, and they are most of the set);
//   - an intrusive LRU list of the touched entries in lastUse order
//     (RecycleLRU takes the first eligible entry from its head).
//
// Every way out of the registry goes through dropEntry, which keeps
// them in step with the map.

// dirtyChunkBlocks is the span of one dirtySet chunk: 64 words of bits.
const dirtyChunkBlocks = 64 * 64

// dirtyChunk holds the dirty bits of the blocks [base, base+4096).
type dirtyChunk struct {
	base  int64
	n     int // bits set
	words [dirtyChunkBlocks / 64]uint64
}

// dirtySet is an ordered set of block numbers: a bitmap split into
// 4096-block chunks, allocated on first use and kept in base order.
// Adding or removing a block costs a binary search over the chunks; a
// walk skips empty chunks and costs one word per 64 blocks of the rest.
type dirtySet struct {
	chunks []*dirtyChunk
	n      int
}

// chunk returns the chunk holding b and b's offset in it, creating the
// chunk if create is set (else nil when absent).
func (s *dirtySet) chunk(b int64, create bool) (*dirtyChunk, int64) {
	base := b &^ (dirtyChunkBlocks - 1)
	i, found := slices.BinarySearchFunc(s.chunks, base, func(c *dirtyChunk, base int64) int {
		return cmp.Compare(c.base, base)
	})
	if found {
		return s.chunks[i], b - base
	}
	if !create {
		return nil, 0
	}
	c := &dirtyChunk{base: base}
	s.chunks = slices.Insert(s.chunks, i, c)
	return c, b - base
}

func (s *dirtySet) add(b disk.BlockNo) {
	c, off := s.chunk(int64(b), true)
	w, bit := &c.words[off/64], uint64(1)<<(off%64)
	if *w&bit == 0 {
		*w |= bit
		c.n++
		s.n++
	}
}

func (s *dirtySet) remove(b disk.BlockNo) {
	c, off := s.chunk(int64(b), false)
	if c == nil {
		return
	}
	w, bit := &c.words[off/64], uint64(1)<<(off%64)
	if *w&bit != 0 {
		*w &^= bit
		c.n--
		s.n--
	}
}

// each calls fn on every block of the set in ascending order until fn
// returns false. fn must not change the set.
func (s *dirtySet) each(fn func(disk.BlockNo) bool) {
	for _, c := range s.chunks {
		if c.n == 0 {
			continue
		}
		for i, w := range &c.words {
			for w != 0 {
				off := int64(i*64 + bits.TrailingZeros64(w))
				if !fn(disk.BlockNo(c.base + off)) {
					return
				}
				w &= w - 1
			}
		}
	}
}

// setDirty marks an entry dirty, maintaining the dirty index and
// triggering flush-behind when configured. An entry already dropped
// from the registry stays out of the index.
func (x *XN) setDirty(en *Entry) {
	if en.dropped {
		return
	}
	if !en.Dirty {
		en.Dirty = true
		x.dirty.add(en.Block)
		x.flushable.add(en.Block)
	}
	x.maybeFlushBehind()
}

// clearDirty marks an entry clean.
func (x *XN) clearDirty(en *Entry) {
	if en.Dirty {
		en.Dirty = false
		x.dirty.remove(en.Block)
		x.flushable.remove(en.Block)
	}
}

// lruInit empties the LRU list: x.lru is its sentinel, so an entry is
// linked exactly when its lruNext is set.
func (x *XN) lruInit() {
	x.lru.lruNext, x.lru.lruPrev = &x.lru, &x.lru
}

// lruAppend links en at the most-recently-used end.
func (x *XN) lruAppend(en *Entry) {
	tail := x.lru.lruPrev
	en.lruPrev, en.lruNext = tail, &x.lru
	tail.lruNext = en
	x.lru.lruPrev = en
}

func (x *XN) lruUnlink(en *Entry) {
	if en.lruNext == nil {
		return
	}
	en.lruPrev.lruNext = en.lruNext
	en.lruNext.lruPrev = en.lruPrev
	en.lruPrev, en.lruNext = nil, nil
}

// dropEntry removes en from the registry: it leaves the LRU list, the
// dirty indices and its parent's bad-child count and gives up its page
// pin. An operation still in flight on en (a flush-behind write, a
// read) completes against the detached entry without touching any of
// them.
func (x *XN) dropEntry(en *Entry) {
	delete(x.reg, en.Block)
	en.dropped = true
	en.owns = nil
	x.lruUnlink(en)
	x.clearDirty(en)
	x.unbind(en)
	if en.Page != mem.NoPage {
		x.M.Unref(en.Page)
	}
}
