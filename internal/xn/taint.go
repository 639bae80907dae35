package xn

import (
	"xok/internal/disk"
	"xok/internal/udf"
)

// Tainted-block tracking (Section 4.3.2): "any block is considered
// tainted if it points either to an uninitialized block or to a tainted
// block". Rather than rerunning owns-udf and looking up every owned
// block on each question, XN keeps, for each metadata block, the number
// of its cached children that are bad (Uninit or Tainted). Whether a
// block may be written, and whether its Tainted flag flips, is then one
// lookup, and a flip propagates up the parent chain one block a level.
//
// A count belongs to an incarnation of the block, not to its registry
// entry. It survives the entry being recycled and read back, because
// the children stay cached and bound to it. It ends when the block is
// removed from its parent's content (Dealloc, Replace), so the children
// a freed block leaves behind never count toward a later allocation of
// the same block number. Each child points at the count it is bound
// under (Entry.up) and adds one to it exactly while it is bad; every
// change to Uninit or Tainted goes through noteBad, and every way out
// of its parent's content through unbind.

// taintCount is the number of bad children of one incarnation of a
// metadata block.
type taintCount struct{ n int }

// bad reports whether en taints a parent that points to it.
func (en *Entry) bad() bool { return en.Uninit || en.Tainted }

// noteBad updates en's parent count after its Uninit or Tainted flag
// changed; wasBad is en.bad() from before the change.
func (en *Entry) noteBad(wasBad bool) {
	if en.up == nil || wasBad == en.bad() {
		return
	}
	if wasBad {
		en.up.n--
	} else {
		en.up.n++
	}
}

// bind places en under the count of parent's current incarnation.
func (x *XN) bind(en *Entry, parent disk.BlockNo) {
	c := x.taint[parent]
	if c == nil {
		c = &taintCount{}
		x.taint[parent] = c
	}
	en.up = c
	if en.bad() {
		c.n++
	}
}

// unbind takes en out of its parent's count: en has left the registry
// or its parent's content.
func (x *XN) unbind(en *Entry) {
	if en.up != nil && en.bad() {
		en.up.n--
	}
	en.up = nil
}

// detachChildren runs when a committed modification removes ext from
// its parent's content: the removed blocks stop counting toward the
// parent at once (a flush-behind pass may check the parent before
// their entries are dropped), and each block's own count ends with it.
func (x *XN) detachChildren(ext udf.Extent) {
	for i := int64(0); i < ext.Count; i++ {
		b := disk.BlockNo(ext.Start + i)
		if en, ok := x.reg[b]; ok {
			x.unbind(en)
		}
		delete(x.taint, b)
	}
}

// badChildren reports the number of b's cached children that are bad.
func (x *XN) badChildren(b disk.BlockNo) int {
	if c := x.taint[b]; c != nil {
		return c.n
	}
	return 0
}

// recomputeTaint refreshes the taint flag of b and propagates changes
// up the parent chain. Unattached and temporary trees are not tracked.
func (x *XN) recomputeTaint(b disk.BlockNo) {
	for b != NoParent {
		en, ok := x.reg[b]
		if !ok || en.State != StateResident || en.Temporary || !en.Attached {
			return
		}
		if !x.isMetadata(en.Tmpl) {
			return
		}
		tainted := x.badChildren(b) > 0
		if en.Tainted == tainted {
			return
		}
		wasBad := en.bad()
		en.Tainted = tainted
		en.noteBad(wasBad)
		b = en.Parent
	}
}

// taintCheck reports whether writing en's current cached content would
// persist a pointer to uninitialized data.
func (x *XN) taintCheck(en *Entry) error {
	if en.Temporary || !en.Attached {
		return nil // exemptions, Section 4.3.2
	}
	if !x.isMetadata(en.Tmpl) {
		return nil
	}
	if x.badChildren(en.Block) > 0 {
		return ErrTainted
	}
	return nil
}
