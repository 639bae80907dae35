package xn

import "math/bits"

// bitmap is XN's free map: bit set = block free. LibFSes read it to
// control their own layout; only XN writes it.
type bitmap struct {
	words []uint64
	n     int64
}

func newBitmap(n int64) *bitmap {
	return &bitmap{words: make([]uint64, (n+63)/64), n: n}
}

func (b *bitmap) get(i int64) bool {
	if i < 0 || i >= b.n {
		return false
	}
	return b.words[i/64]&(1<<(uint(i)%64)) != 0
}

func (b *bitmap) set(i int64, v bool) {
	if i < 0 || i >= b.n {
		return
	}
	if v {
		b.words[i/64] |= 1 << (uint(i) % 64)
	} else {
		b.words[i/64] &^= 1 << (uint(i) % 64)
	}
}

// setRange sets bits [lo, hi), clipped to the map, a word at a time.
func (b *bitmap) setRange(lo, hi int64, v bool) {
	lo, hi = max(lo, 0), min(hi, b.n)
	for lo < hi {
		w, off := lo/64, uint(lo%64)
		span := min(hi-lo, int64(64-off))
		mask := ^uint64(0) >> (64 - uint(span)) << off
		if v {
			b.words[w] |= mask
		} else {
			b.words[w] &^= mask
		}
		lo += span
	}
}

func (b *bitmap) count() int64 {
	var c int
	for _, w := range b.words {
		c += bits.OnesCount64(w)
	}
	return int64(c)
}

// findRun locates `count` consecutive free blocks at or after hint,
// wrapping around once. Returns (start, ok).
func (b *bitmap) findRun(hint, count int64) (int64, bool) {
	if count <= 0 || count > b.n {
		return 0, false
	}
	if hint < 0 || hint >= b.n {
		hint = 0
	}
	check := func(lo, hi int64) (int64, bool) {
		run := int64(0)
		for i := lo; i < hi; i++ {
			if b.get(i) {
				run++
				if run == count {
					return i - count + 1, true
				}
			} else {
				run = 0
			}
		}
		return 0, false
	}
	if s, ok := check(hint, b.n); ok {
		return s, true
	}
	return check(0, hint+count) // wrap (overlap covers runs crossing hint)
}
