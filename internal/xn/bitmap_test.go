package xn

import (
	"testing"
	"testing/quick"
)

func TestBitmapBasics(t *testing.T) {
	b := newBitmap(200)
	if b.count() != 0 {
		t.Fatal("fresh bitmap not empty")
	}
	b.setRange(10, 20, true)
	if b.count() != 10 {
		t.Fatalf("count = %d, want 10", b.count())
	}
	if !b.get(10) || !b.get(19) || b.get(20) || b.get(9) {
		t.Fatal("range bounds wrong")
	}
	b.set(15, false)
	if b.get(15) || b.count() != 9 {
		t.Fatal("clear failed")
	}
	// Out-of-range accesses are inert.
	b.set(-1, true)
	b.set(1000, true)
	if b.get(-1) || b.get(1000) {
		t.Fatal("out-of-range bits set")
	}
}

func TestBitmapFindRun(t *testing.T) {
	b := newBitmap(100)
	b.setRange(0, 100, true)
	b.setRange(30, 40, false) // hole

	// Run entirely after the hint.
	s, ok := b.findRun(10, 5)
	if !ok || s != 10 {
		t.Fatalf("findRun(10,5) = %d, %v", s, ok)
	}
	// Run straddling the hole must land after it.
	s, ok = b.findRun(28, 15)
	if !ok || s != 40 {
		t.Fatalf("findRun(28,15) = %d, %v", s, ok)
	}
	// Wrapping: hint near the end, run exists only at the start.
	b2 := newBitmap(100)
	b2.setRange(0, 10, true)
	s, ok = b2.findRun(90, 8)
	if !ok || s != 0 {
		t.Fatalf("wrap findRun = %d, %v", s, ok)
	}
	// Impossible requests.
	if _, ok := b2.findRun(0, 11); ok {
		t.Fatal("found an 11-run in a 10-run bitmap")
	}
	if _, ok := b2.findRun(0, 0); ok {
		t.Fatal("zero-length run reported found")
	}
	if _, ok := b2.findRun(0, 1000); ok {
		t.Fatal("run longer than bitmap reported found")
	}
}

func TestBitmapFindRunProperty(t *testing.T) {
	// For random bit patterns, any run findRun returns must (a) be
	// entirely free and (b) have the requested length within bounds.
	f := func(pattern []bool, hint8, count8 uint8) bool {
		n := int64(len(pattern))
		if n == 0 {
			return true
		}
		b := newBitmap(n)
		for i, v := range pattern {
			b.set(int64(i), v)
		}
		hint := int64(hint8) % n
		count := int64(count8)%8 + 1
		s, ok := b.findRun(hint, count)
		if !ok {
			// Verify there really is no run of that length anywhere.
			run := int64(0)
			for i := int64(0); i < n; i++ {
				if b.get(i) {
					run++
					if run >= count {
						return false // findRun missed one
					}
				} else {
					run = 0
				}
			}
			return true
		}
		if s < 0 || s+count > n {
			return false
		}
		for i := s; i < s+count; i++ {
			if !b.get(i) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// setRangeRef is the per-bit reference setRange is checked against.
func setRangeRef(b *bitmap, lo, hi int64, v bool) {
	for i := lo; i < hi; i++ {
		b.set(i, v)
	}
}

// TestBitmapSetRangeMatchesPerBit checks the word-level setRange
// against the per-bit loop with lo and hi on and beside word edges,
// over an empty, a full and a patterned map, on maps that end inside a
// word and on one.
func TestBitmapSetRangeMatchesPerBit(t *testing.T) {
	for _, n := range []int64{130, 128} {
		edges := []int64{0, 63, 64, 65, n}
		for _, fill := range []uint64{0, ^uint64(0), 0xA5A5_5A5A_F00F_0FF0} {
			for _, lo := range edges {
				for _, hi := range edges {
					for _, v := range []bool{true, false} {
						got, want := newBitmap(n), newBitmap(n)
						for i := int64(0); i < n; i++ {
							bit := fill>>(uint(i)%64)&1 != 0
							got.set(i, bit)
							want.set(i, bit)
						}
						got.setRange(lo, hi, v)
						setRangeRef(want, lo, hi, v)
						for w := range want.words {
							if got.words[w] != want.words[w] {
								t.Fatalf("n=%d fill=%x setRange(%d, %d, %v): word %d = %x, want %x",
									n, fill, lo, hi, v, w, got.words[w], want.words[w])
							}
						}
						var c int64
						for i := int64(0); i < n; i++ {
							if want.get(i) {
								c++
							}
						}
						if got.count() != c {
							t.Fatalf("n=%d fill=%x setRange(%d, %d, %v): count %d, want %d",
								n, fill, lo, hi, v, got.count(), c)
						}
					}
				}
			}
		}
	}
}
