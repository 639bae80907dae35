package xn

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"xok/internal/disk"
	"xok/internal/udf"
)

// ownsMap and verifyDelta are the per-block reference for the
// run-based ownership comparison in runs.go: expand every extent into a
// map from block to type, and check new = old + add - remove block by
// block. The differential tests below hold the run-based check to
// exactly their verdicts and messages.

// ownsMap expands extents to a per-block type map.
func ownsMap(extents []udf.Extent) map[disk.BlockNo]int64 {
	m := make(map[disk.BlockNo]int64)
	for _, e := range extents {
		for i := int64(0); i < e.Count; i++ {
			m[disk.BlockNo(e.Start+i)] = e.Type
		}
	}
	return m
}

// verifyDelta checks new = old + add - remove exactly.
func verifyDelta(old, new map[disk.BlockNo]int64, add, remove udf.Extent) error {
	want := make(map[disk.BlockNo]int64, len(old))
	for b, t := range old {
		want[b] = t
	}
	for i := int64(0); i < add.Count; i++ {
		b := disk.BlockNo(add.Start + i)
		if _, dup := want[b]; dup {
			return fmt.Errorf("%w: block %d already owned", ErrBadDelta, b)
		}
		want[b] = add.Type
	}
	for i := int64(0); i < remove.Count; i++ {
		b := disk.BlockNo(remove.Start + i)
		if t, ok := want[b]; !ok || t != remove.Type {
			return fmt.Errorf("%w: block %d not owned with type %d", ErrBadDelta, b, remove.Type)
		}
		delete(want, b)
	}
	if len(new) != len(want) {
		return ErrBadDelta
	}
	for b, t := range want {
		if nt, ok := new[b]; !ok || nt != t {
			return ErrBadDelta
		}
	}
	return nil
}

// mapRefDelta is the reference on-disk reference diff: the blocks new
// owns and old does not, and the reverse, types ignored.
func mapRefDelta(old, new map[disk.BlockNo]int64) (gained, lost []int64) {
	for b := range new {
		if _, had := old[b]; !had {
			gained = append(gained, int64(b))
		}
	}
	for b := range old {
		if _, has := new[b]; !has {
			lost = append(lost, int64(b))
		}
	}
	slices.Sort(gained)
	slices.Sort(lost)
	return gained, lost
}

// runBlocks expands a run list to its ascending blocks.
func runBlocks(runs []ownRun) []int64 {
	var out []int64
	for _, r := range runs {
		for b := r.first; ; b++ {
			out = append(out, b)
			if b == r.last {
				break
			}
		}
	}
	return out
}

// deltaCase is one ownership comparison: the owns-udf output before and
// after a modification, and the extents it claims to add and remove.
type deltaCase struct {
	old, new    []udf.Extent
	add, remove udf.Extent
}

// decodeDeltaCase turns arbitrary bytes into a deltaCase over a window
// of 48 blocks, so extents overlap, touch and collide often. Byte 0
// picks the window (one in four sits at the top of int64, where
// extents wrap around) and the types in play. Extents take three bytes
// each: start, count (-8..8, so zero and negative counts occur) and
// type. A later byte picks whether new is an unrelated list or the
// expected ownership re-cut into extents, possibly perturbed.
func decodeDeltaCase(data []byte) deltaCase {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	mode := next()
	base := int64(0)
	if mode%4 == 0 {
		base = math.MaxInt64 - 24
	}
	types := int64(mode/4%3 + 1)
	ext := func() udf.Extent {
		return udf.Extent{
			Start: base + int64(next()%48),
			Count: int64(int8(next())) % 9,
			Type:  int64(next()) % types,
		}
	}
	var c deltaCase
	for n := next() % 12; n > 0; n-- {
		c.old = append(c.old, ext())
	}
	c.add, c.remove = ext(), ext()
	switch next() % 4 {
	case 0: // an unrelated list: almost always a bare mismatch
		for n := next() % 12; n > 0; n-- {
			c.new = append(c.new, ext())
		}
	default: // the expected ownership, re-cut, possibly perturbed
		want := ownsMap(c.old)
		for i := int64(0); i < c.add.Count; i++ {
			want[disk.BlockNo(c.add.Start+i)] = c.add.Type
		}
		for i := int64(0); i < c.remove.Count; i++ {
			delete(want, disk.BlockNo(c.remove.Start+i))
		}
		blocks := make([]disk.BlockNo, 0, len(want))
		for b := range want {
			blocks = append(blocks, b)
		}
		slices.Sort(blocks)
		for i := 0; i < len(blocks); {
			j := i + 1
			whole := next()%4 != 0 // else the run's first block stands alone
			for whole && j < len(blocks) && blocks[j] == blocks[j-1]+1 && want[blocks[j]] == want[blocks[i]] {
				j++
			}
			c.new = append(c.new, udf.Extent{Start: int64(blocks[i]), Count: int64(j - i), Type: want[blocks[i]]})
			i = j
		}
		if k := int(next()); len(c.new) > 1 {
			// Reorder, and overlap one extent with a copy of another:
			// the copy is appended last, so it wins and changes nothing.
			c.new[0], c.new[k%len(c.new)] = c.new[k%len(c.new)], c.new[0]
			c.new = append(c.new, c.new[k%len(c.new)])
		}
		if next()%3 == 0 {
			c.new = append(c.new, ext()) // perturb
		}
	}
	return c
}

// checkDeltaCase holds the run-based comparison to the map reference on
// one case: the same verdict, the same offending block in the message,
// and the same on-disk reference diff.
func checkDeltaCase(t *testing.T, rs *runScratch, c deltaCase) {
	t.Helper()
	got := rs.checkDelta(c.old, c.new, c.add, c.remove)
	want := verifyDelta(ownsMap(c.old), ownsMap(c.new), c.add, c.remove)
	switch {
	case (got == nil) != (want == nil):
		t.Fatalf("%+v: run check %v, map reference %v", c, got, want)
	case want != nil && (!errors.Is(got, ErrBadDelta) || got.Error() != want.Error()):
		t.Fatalf("%+v: run check says %q, map reference %q", c, got, want)
	}
	gained, lost := rs.refDelta(c.old, c.new)
	wantGained, wantLost := mapRefDelta(ownsMap(c.old), ownsMap(c.new))
	if !slices.Equal(runBlocks(gained), wantGained) || !slices.Equal(runBlocks(lost), wantLost) {
		t.Fatalf("%+v: reference diff +%v -%v, map reference +%v -%v",
			c, runBlocks(gained), runBlocks(lost), wantGained, wantLost)
	}
}

// deltaSeeds are hand-picked cases: the shapes the run-based check must
// get right, also the seed corpus of FuzzOwnsDelta.
var deltaSeeds = []deltaCase{
	// Adding to a disjoint set; adjacent runs of one type coalesce.
	{old: []udf.Extent{{Start: 10, Count: 3, Type: 1}}, new: []udf.Extent{{Start: 10, Count: 5, Type: 1}},
		add: udf.Extent{Start: 13, Count: 2, Type: 1}},
	// Adjacent runs of different types stay apart.
	{old: []udf.Extent{{Start: 10, Count: 3, Type: 1}}, new: []udf.Extent{{Start: 13, Count: 2, Type: 2}, {Start: 10, Count: 3, Type: 1}},
		add: udf.Extent{Start: 13, Count: 2, Type: 2}},
	{old: []udf.Extent{{Start: 10, Count: 3, Type: 1}}, new: []udf.Extent{{Start: 10, Count: 5, Type: 1}},
		add: udf.Extent{Start: 13, Count: 2, Type: 2}},
	// Overlap: the later extent wins.
	{old: []udf.Extent{{Start: 10, Count: 6, Type: 1}, {Start: 12, Count: 2, Type: 2}},
		new:    []udf.Extent{{Start: 10, Count: 2, Type: 1}, {Start: 14, Count: 2, Type: 1}},
		remove: udf.Extent{Start: 12, Count: 2, Type: 2}},
	{old: []udf.Extent{{Start: 10, Count: 6, Type: 1}, {Start: 12, Count: 2, Type: 2}},
		new:    []udf.Extent{{Start: 10, Count: 2, Type: 1}, {Start: 14, Count: 2, Type: 1}},
		remove: udf.Extent{Start: 12, Count: 2, Type: 1}},
	// Zero and negative counts own nothing.
	{old: []udf.Extent{{Start: 10, Count: 0, Type: 1}, {Start: 11, Count: -3, Type: 1}}, new: nil},
	{old: nil, new: []udf.Extent{{Start: 5, Count: -1, Type: 1}}, add: udf.Extent{Start: 5, Count: 0, Type: 1}},
	// Add collides with an owned block, part-way in.
	{old: []udf.Extent{{Start: 14, Count: 2, Type: 1}}, new: []udf.Extent{{Start: 10, Count: 6, Type: 1}},
		add: udf.Extent{Start: 10, Count: 6, Type: 1}},
	// Remove only partly covered, or covered with the wrong type.
	{old: []udf.Extent{{Start: 10, Count: 3, Type: 1}}, new: nil, remove: udf.Extent{Start: 10, Count: 5, Type: 1}},
	{old: []udf.Extent{{Start: 10, Count: 2, Type: 1}, {Start: 12, Count: 1, Type: 2}}, new: nil,
		remove: udf.Extent{Start: 10, Count: 3, Type: 1}},
	// Remove what the same modification adds.
	{old: nil, new: []udf.Extent{{Start: 11, Count: 1, Type: 1}},
		add: udf.Extent{Start: 10, Count: 2, Type: 1}, remove: udf.Extent{Start: 10, Count: 1, Type: 1}},
	// Extents wrapping past the top of int64.
	{old: []udf.Extent{{Start: math.MaxInt64 - 1, Count: 4, Type: 1}},
		new: []udf.Extent{{Start: math.MinInt64 + 2, Count: 1, Type: 1}, {Start: math.MaxInt64 - 1, Count: 4, Type: 1}},
		add: udf.Extent{Start: math.MinInt64 + 2, Count: 1, Type: 1}},
	{old: []udf.Extent{{Start: math.MaxInt64, Count: 1, Type: 1}}, new: nil,
		remove: udf.Extent{Start: math.MaxInt64 - 1, Count: 3, Type: 1}},
}

// encodeDeltaCase is the inverse of decodeDeltaCase's unrelated-list
// mode, for cases within one window and three types: it turns
// deltaSeeds into the fuzz corpus.
func encodeDeltaCase(c deltaCase) []byte {
	base, mode := int64(0), byte(1+4*2)
	for _, e := range append(append([]udf.Extent{c.add, c.remove}, c.old...), c.new...) {
		if e.Start < 0 || e.Start > math.MaxInt64/2 {
			base, mode = math.MaxInt64-24, 4*2
		}
	}
	enc := func(out []byte, e udf.Extent) []byte {
		return append(out, byte(e.Start-base), byte(int8(e.Count)), byte(e.Type))
	}
	out := []byte{mode, byte(len(c.old))}
	for _, e := range c.old {
		out = enc(out, e)
	}
	out = enc(enc(out, c.add), c.remove)
	out = append(out, 0, byte(len(c.new)))
	for _, e := range c.new {
		out = enc(out, e)
	}
	return out
}

func TestOwnsDeltaSeeds(t *testing.T) {
	var rs runScratch
	for _, c := range deltaSeeds {
		checkDeltaCase(t, &rs, c)
		// The fuzz corpus must mean what the seed says.
		d := decodeDeltaCase(encodeDeltaCase(c))
		if got, want := fmt.Sprint(rs.checkDelta(d.old, d.new, d.add, d.remove)),
			fmt.Sprint(rs.checkDelta(c.old, c.new, c.add, c.remove)); got != want {
			t.Errorf("%+v encodes as %+v: verdict %s, want %s", c, d, got, want)
		}
	}
}

// TestOwnsDeltaMatchesMapReference is the differential property test:
// random cases, one scratch reused throughout as XN reuses its own.
func TestOwnsDeltaMatchesMapReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var rs runScratch
	buf := make([]byte, 96)
	accepted := 0
	for i := 0; i < 20000; i++ {
		rng.Read(buf[:rng.Intn(len(buf))])
		c := decodeDeltaCase(buf)
		checkDeltaCase(t, &rs, c)
		if rs.checkDelta(c.old, c.new, c.add, c.remove) == nil {
			accepted++
		}
	}
	if accepted < 1000 {
		t.Fatalf("only %d of 20000 random cases were valid deltas; the generator lost its accept path", accepted)
	}
}

func FuzzOwnsDelta(f *testing.F) {
	for _, c := range deltaSeeds {
		f.Add(encodeDeltaCase(c))
	}
	var rs runScratch
	f.Fuzz(func(t *testing.T, data []byte) {
		checkDeltaCase(t, &rs, decodeDeltaCase(data))
	})
}

// TestOwnsDeltaSteadyStateAllocs pins the ownership comparison of a
// full C-FFS-shaped directory block (31 slots, each owning a few data
// extents and an indirect block, some 470 blocks) at zero allocations
// once XN's scratch has grown: the delta check runs on every metadata
// modification and the reference diff on every metadata write.
func TestOwnsDeltaSteadyStateAllocs(t *testing.T) {
	var old []udf.Extent
	for s := int64(0); s < 31; s++ {
		base := 5000 + s*20
		old = append(old,
			udf.Extent{Start: base, Count: 9, Type: 2},
			udf.Extent{Start: base + 10, Count: 5, Type: 2},
			udf.Extent{Start: base + 16, Count: 1, Type: 3})
	}
	add := udf.Extent{Start: 9000, Count: 3, Type: 2}
	new := append(append([]udf.Extent(nil), old...), add)
	var rs runScratch
	check := func() {
		if err := rs.checkDelta(old, new, add, udf.Extent{}); err != nil {
			t.Fatal(err)
		}
		if err := rs.checkDelta(old, old, udf.Extent{}, udf.Extent{}); err != nil {
			t.Fatal(err)
		}
		rs.refDelta(old, new)
	}
	check()
	if avg := testing.AllocsPerRun(100, check); avg != 0 {
		t.Fatalf("steady-state ownership delta check: %.1f allocs/op, want 0", avg)
	}
}
