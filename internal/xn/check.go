package xn

import (
	"fmt"
	"sort"

	"xok/internal/disk"
)

// CheckConsistency audits XN's block bookkeeping and returns one
// message per violated invariant (empty = clean). The invariants are
// the ones the Ganger/Patt write-ordering rules exist to preserve
// across crashes:
//
//   - a referenced block is never on the free map (a reachable block
//     handed out again is how trees get cross-linked);
//   - no block has more than one on-disk owner, counting root extents
//     (single ownership is what makes reachability GC sound);
//   - every block owned by a written metadata block lies inside the
//     volume.
//
// Blocks on the will-free list are exempt from the sharing check:
// deallocation deliberately leaves the old pointer until it is
// nullified on disk. The crash-enumeration harness runs this against
// every remounted image, after Mount's recoverGC.
func (x *XN) CheckConsistency() []string {
	var errs []string

	owners := make(map[disk.BlockNo]int)
	for _, r := range x.roots {
		for i := int64(0); i < r.Count; i++ {
			owners[r.Start+disk.BlockNo(i)]++
		}
	}
	for _, owns := range x.onDiskOwns {
		owns.eachBlock(func(b disk.BlockNo) {
			if int64(b) < reservedEnd || int64(b) >= x.D.NumBlocks() {
				errs = append(errs, fmt.Sprintf("owned block %d outside volume [%d,%d)",
					b, reservedEnd, x.D.NumBlocks()))
				return
			}
			owners[b]++
		})
	}
	for b, n := range owners {
		if n > 1 && !x.willFree[b] {
			errs = append(errs, fmt.Sprintf("block %d has %d on-disk owners", b, n))
		}
		if x.free.get(int64(b)) {
			errs = append(errs, fmt.Sprintf("block %d is referenced but on the free map", b))
		}
	}
	// Deterministic report order (maps iterate randomly; the crash
	// harness digests these messages byte-for-byte).
	sort.Strings(errs)
	return errs
}
