package xn

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"xok/internal/udf"
)

// Ownership sets are compared at extent granularity. An owns-udf
// result is normalized into runs, and the delta check and the on-disk
// reference diff merge run lists, so their cost follows the number of
// extents rather than the number of blocks owned (a C-FFS directory
// block owns hundreds of blocks through a dozen extents).

// ownRun is the inclusive block range [first, last] owned with type typ.
// A normalized run list is sorted, disjoint and coalesced: neighbouring
// runs never touch with the same type. Two normalized lists therefore
// describe the same per-block ownership exactly when they are equal.
type ownRun struct {
	first, last int64
	typ         int64
}

// runScratch holds the reusable buffers of one owns-udf interpretation
// or ownership comparison.
type runScratch struct {
	ext    []udf.Extent // owns-udf output as emitted
	pieces []ownRun
	bounds []int64
	owner  []int32 // per segment between bounds: index into pieces, or -1
	norm   []ownRun
	want   []ownRun
	out    []ownRun
	edge   [2]ownRun // an add or remove extent's runs
}

// takeRuns lends out XN's run scratch. Charging parks the borrower,
// so another env can arrive while it is held: a caller that finds it
// held gets a private one.
// Release with releaseRuns.
func (x *XN) takeRuns() *runScratch {
	if x.runsBusy {
		return new(runScratch)
	}
	x.runsBusy = true
	return &x.runs
}

func (x *XN) releaseRuns(rs *runScratch) {
	if rs == &x.runs {
		x.runsBusy = false
	}
}

// extentPieces splits ext into at most two non-wrapping runs, in the
// order its blocks Start, Start+1, ... are visited (block numbers wrap
// around int64 like any Go integer). A non-positive count yields none.
func extentPieces(ext udf.Extent) (pieces [2]ownRun, n int) {
	if ext.Count <= 0 {
		return pieces, 0
	}
	last := ext.Start + (ext.Count - 1)
	if last >= ext.Start {
		pieces[0] = ownRun{first: ext.Start, last: last, typ: ext.Type}
		return pieces, 1
	}
	pieces[0] = ownRun{first: ext.Start, last: math.MaxInt64, typ: ext.Type}
	pieces[1] = ownRun{first: math.MinInt64, last: last, typ: ext.Type}
	return pieces, 2
}

// appendRun appends r, which must lie after the end of runs, merging it
// into the last run when the two touch with the same type.
func appendRun(runs []ownRun, r ownRun) []ownRun {
	if n := len(runs); n > 0 && runs[n-1].typ == r.typ && runs[n-1].last+1 == r.first {
		runs[n-1].last = r.last
		return runs
	}
	return append(runs, r)
}

// normalize turns extents into a normalized run list in *dst, with the
// per-block meaning of expanding each extent in order into a map from
// block to type: a later extent wins on overlap, and an extent with a
// zero or negative count owns nothing. plain reports that no two
// extents share a block and none reaches the top of int64 (where
// Start+Count wraps): the runs then hold each owned block exactly
// once, as the extents do.
func (rs *runScratch) normalize(dst *[]ownRun, extents []udf.Extent) (runs []ownRun, plain bool) {
	rs.pieces = rs.pieces[:0]
	rs.bounds = rs.bounds[:0]
	plain = true
	for _, ext := range extents {
		ps, n := extentPieces(ext)
		plain = plain && (n == 0 || n == 1 && ps[0].last != math.MaxInt64)
		for _, p := range ps[:n] {
			rs.pieces = append(rs.pieces, p)
			rs.bounds = append(rs.bounds, p.first)
			if p.last != math.MaxInt64 {
				rs.bounds = append(rs.bounds, p.last+1)
			}
		}
	}
	slices.Sort(rs.bounds)
	rs.bounds = slices.Compact(rs.bounds)

	// Every piece starts and ends on segment boundaries. Paint the
	// segments in extent order, so a later extent overwrites an earlier
	// one; without overlaps each piece paints a single segment.
	rs.owner = slices.Grow(rs.owner[:0], len(rs.bounds))[:len(rs.bounds)]
	for k := range rs.owner {
		rs.owner[k] = -1
	}
	for i, p := range rs.pieces {
		k, _ := slices.BinarySearch(rs.bounds, p.first)
		for ; k < len(rs.bounds) && rs.bounds[k] <= p.last; k++ {
			plain = plain && rs.owner[k] < 0
			rs.owner[k] = int32(i)
		}
	}
	out := (*dst)[:0]
	for k, b := range rs.bounds {
		if rs.owner[k] < 0 {
			continue
		}
		end := int64(math.MaxInt64)
		if k+1 < len(rs.bounds) {
			end = rs.bounds[k+1] - 1
		}
		out = appendRun(out, ownRun{first: b, last: end, typ: rs.pieces[rs.owner[k]].typ})
	}
	*dst = out
	return out, plain
}

// runAt returns the index of the first run that ends at or after block
// b (len(runs) if none).
func runAt(runs []ownRun, b int64) int {
	i, _ := slices.BinarySearchFunc(runs, b, func(r ownRun, b int64) int { return cmp.Compare(r.last, b) })
	return i
}

// mergeRuns appends the union of two disjoint normalized lists to dst.
func mergeRuns(dst, a, b []ownRun) []ownRun {
	for len(a) > 0 || len(b) > 0 {
		if len(b) == 0 || (len(a) > 0 && a[0].first < b[0].first) {
			dst = appendRun(dst, a[0])
			a = a[1:]
		} else {
			dst = appendRun(dst, b[0])
			b = b[1:]
		}
	}
	return dst
}

// cutRuns appends to dst the blocks of a not covered by cut, whatever
// their types; both lists are normalized, and so is the result.
func cutRuns(dst, a, cut []ownRun) []ownRun {
	for _, r := range a {
		left := true // r has blocks past the cuts seen so far
		for j := runAt(cut, r.first); j < len(cut) && cut[j].first <= r.last; j++ {
			if cut[j].first > r.first {
				dst = append(dst, ownRun{first: r.first, last: cut[j].first - 1, typ: r.typ})
			}
			if cut[j].last >= r.last {
				left = false
				break
			}
			r.first = cut[j].last + 1
		}
		if left {
			dst = append(dst, r)
		}
	}
	return dst
}

// checkDelta verifies that the ownership newOwns equals oldOwns plus
// exactly the blocks of add and minus exactly those of remove, block
// for block and type for type (Section 4.1); both are normalized run
// lists. Adding an owned block, or removing one not owned with
// remove's type, names the first offending block in the extent's own
// order; any other mismatch is a bare ErrBadDelta.
func (rs *runScratch) checkDelta(old, newOwns []ownRun, add, remove udf.Extent) error {
	addPieces, nAdd := extentPieces(add)
	for _, p := range addPieces[:nAdd] {
		if i := runAt(old, p.first); i < len(old) && old[i].first <= p.last {
			return fmt.Errorf("%w: block %d already owned", ErrBadDelta, max(old[i].first, p.first))
		}
	}
	want := mergeRuns(rs.want[:0], old, rs.edgeRuns(addPieces, nAdd))
	rs.want = want

	if c, ok := ownedAs(want, remove); !ok {
		return fmt.Errorf("%w: block %d not owned with type %d", ErrBadDelta, c, remove.Type)
	}
	rmPieces, nRm := extentPieces(remove)
	rs.out = cutRuns(rs.out[:0], want, rs.edgeRuns(rmPieces, nRm))
	if !slices.Equal(rs.out, newOwns) {
		return ErrBadDelta
	}
	return nil
}

// ownedAs reports whether runs own every block of ext with ext's type;
// if not, c is the first block in ext's own order that they do not.
func ownedAs(runs []ownRun, ext udf.Extent) (c int64, ok bool) {
	pieces, n := extentPieces(ext)
	for _, p := range pieces[:n] {
		for c, j := p.first, runAt(runs, p.first); ; j++ {
			if j == len(runs) || runs[j].first > c || runs[j].typ != ext.Type {
				return c, false
			}
			if runs[j].last >= p.last {
				break
			}
			c = runs[j].last + 1
		}
	}
	return 0, true
}

// edgeRuns returns extentPieces' output as a run list in block order
// (a wrapped extent's pieces come out high piece first), held in
// rs.edge.
func (rs *runScratch) edgeRuns(pieces [2]ownRun, n int) []ownRun {
	for i, p := range pieces[:n] {
		rs.edge[n-1-i] = p
	}
	return rs.edge[:n]
}

// refDelta compares a metadata block's normalized ownership before and
// after a write, ignoring types: gained lists the blocks cur owns and
// old does not, lost the reverse. Both alias the scratch.
func (rs *runScratch) refDelta(old, cur []ownRun) (gained, lost []ownRun) {
	rs.out = cutRuns(rs.out[:0], cur, old)
	rs.want = cutRuns(rs.want[:0], old, cur)
	return rs.out, rs.want
}
