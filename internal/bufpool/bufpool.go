// Package bufpool recycles the 4-KB buffers that dominate the
// simulator's heap churn: physical page frames (internal/mem), disk
// media blocks (internal/disk) and crash-image snapshots. One campaign
// of the differential fuzzer boots and discards hundreds of machines;
// without recycling, every boot re-allocates (and the GC re-scans and
// re-frees) tens of thousands of these buffers, and that GC pressure —
// not simulated work — is what serialized the parallel harness.
//
// The pool is a plain sync.Pool, safe for concurrent use from the
// worker goroutines of internal/parallel. Ownership discipline is the
// caller's: a buffer must be Put at most once, and never used after.
// The teardown entry point that honors this is kernel.(*Kernel).
// Release, which machine.Machine's Close calls — only by harnesses that
// are finished with the whole machine.
package bufpool

import (
	"sync"

	"xok/internal/sim"
)

// Size is the one buffer size the pool handles: sim.PageSize ==
// sim.DiskBlockSize == 4096.
const Size = sim.PageSize

var pool = sync.Pool{
	New: func() any {
		b := make([]byte, Size)
		return &b
	},
}

// Get returns a zeroed Size-byte buffer. Callers that rely on
// fresh-allocation semantics (lazily materialized page frames, disk
// blocks never written) get identical behavior to make([]byte, Size).
func Get() []byte {
	b := *pool.Get().(*[]byte)
	clear(b)
	return b
}

// GetDirty returns a Size-byte buffer with unspecified contents, for
// callers that overwrite the whole buffer anyway (snapshot copies).
func GetDirty() []byte {
	return *pool.Get().(*[]byte)
}

// Put recycles a buffer. Buffers of the wrong size (hand-built test
// images, sub-block slices) are dropped for the GC rather than
// poisoning the pool.
func Put(b []byte) {
	if len(b) != Size {
		return
	}
	pool.Put(&b)
}
