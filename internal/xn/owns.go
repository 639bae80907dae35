package xn

import (
	"bytes"
	"fmt"
	"slices"

	"xok/internal/disk"
	"xok/internal/sim"
	"xok/internal/udf"
)

// owns-udf is deterministic and gets no aux and no env, so its run over
// a metadata block depends only on the block's length and the bytes it
// loads. XN keeps one interpretation per version of a block's content,
// normalized when it is made and never changed after: registry entries,
// snapshots, forks and the on-disk ownership table share it. A
// modification that rewrites no word the run loaded leaves the result
// standing, and costs no interpretation.

// readWords is the size of an owns result's read set: one bit per
// 8-byte word of a block.
const readWords = sim.DiskBlockSize / 8 / 64

// ownsResult is one owns-udf run over one version of a block's content.
type ownsResult struct {
	// runs is the ownership, normalized (runs.go).
	runs []ownRun
	// raw is the extents as emitted, kept only when two of them share
	// a block or one reaches the top of int64: the audits that count an
	// owned block once per extent naming it, and Insert's coverage
	// check, then read them instead of runs.
	raw []udf.Extent
	// steps is what the interpretation cost, charged on every use.
	steps int
	// reads marks the words of the block the run loaded (udf.RunInto).
	reads [readWords]uint64
}

// interpret runs t's owns-udf over meta without charging for it. The
// result carries the steps even when the run fails; raw is the output
// as emitted, aliasing rs until its next use.
func (rs *runScratch) interpret(t *Template, meta []byte) (o *ownsResult, raw []udf.Extent, err error) {
	o = new(ownsResult)
	if udf.ReadWords(len(meta)) > len(o.reads) {
		panic("xn: owns-udf over more than a block")
	}
	res, err := udf.RunInto(t.Owns, meta, nil, nil, 0, rs.ext, o.reads[:])
	rs.ext = res.Extents[:0]
	o.steps = res.Steps
	if err != nil {
		return o, nil, fmt.Errorf("%w: owns-udf(%s): %v", ErrUDF, t.Name, err)
	}
	runs, plain := rs.normalize(&rs.norm, res.Extents)
	o.runs = slices.Clone(runs)
	if !plain {
		o.raw = slices.Clone(res.Extents)
	}
	return o, res.Extents, nil
}

// readsUnchanged reports whether o, the result over data, is also the
// result over shadow, which equals data outside the ranges mods wrote:
// no word o's run loaded differs between the two inside those ranges.
func (o *ownsResult) readsUnchanged(data, shadow []byte, mods []Mod) bool {
	for _, m := range mods {
		if len(m.Bytes) == 0 {
			continue
		}
		for w := m.Off >> 3; w <= (m.Off+len(m.Bytes)-1)>>3; w++ {
			if o.reads[w>>6]&(1<<(w&63)) == 0 {
				continue
			}
			lo, hi := w<<3, min(w<<3+8, len(data))
			if !bytes.Equal(data[lo:hi], shadow[lo:hi]) {
				return false
			}
		}
	}
	return true
}

// covers reports whether o owns every block of ext with ext's type.
// With raw extents kept, a block is covered when any extent of the
// type names it, as the extents said it.
func (o *ownsResult) covers(ext udf.Extent) bool {
	if o.raw == nil {
		_, ok := ownedAs(o.runs, ext)
		return ok
	}
	for i := int64(0); i < ext.Count; i++ {
		b := ext.Start + i
		found := false
		for _, r := range o.raw {
			if r.Type == ext.Type && b >= r.Start && b < r.Start+r.Count {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// eachBlock calls fn for every block o owns, once per extent naming
// it: the count the reachability GC, a freed block's reference release
// and CheckConsistency take.
func (o *ownsResult) eachBlock(fn func(disk.BlockNo)) {
	if o.raw != nil {
		for _, ext := range o.raw {
			for j := int64(0); j < ext.Count; j++ {
				fn(disk.BlockNo(ext.Start + j))
			}
		}
		return
	}
	for _, r := range o.runs {
		for c := r.first; ; c++ {
			fn(disk.BlockNo(c))
			if c == r.last {
				break
			}
		}
	}
}
