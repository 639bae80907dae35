package main

import (
	"runtime"
	"sort"
)

// The reference: fixed Go code that imports nothing from the simulator,
// timed in a process of its own (-phase ref) after each set-up and run
// process. No change to the simulator can change it, so its CPU time
// measures only how fast the host is running at that moment. On a
// shared VM that speed drifts by ±20% or more, in eras from seconds to
// many minutes, mostly in code that touches memory. run.py divides a
// run's median host times by its median reference score, which turns
// CPU seconds into CPU seconds at the nominal host speed.
//
// Each kernel stands for one kind of work the simulator does: hashing
// into a small and a large map, allocating and collecting small
// objects, sorting, and chasing pointers across a working set larger
// than the L2 cache.

// refKernel is one part of the reference and its nominal CPU time.
type refKernel struct {
	name    string
	nominal float64 // seconds on a quiet 2.0 GHz Xeon host
	fn      func() uint64
}

var refKernels = []refKernel{
	{"map_small", 0.021, refMapSmall},
	{"map_large", 0.060, refMapLarge},
	{"alloc", 0.018, refAlloc},
	{"sort", 0.040, refSort},
	{"chase", 0.060, refChase},
}

// refSink keeps the kernels' results alive.
var refSink uint64

// measureRef runs every kernel once after a forced GC and returns the
// CPU seconds of each and the reference score: the mean over kernels of
// measured over nominal time. A score of 1.2 means the host ran 20%
// slower than nominal.
func measureRef() (map[string]float64, float64) {
	secs := map[string]float64{}
	var score float64
	for _, k := range refKernels {
		runtime.GC()
		t := cpuNow()
		refSink += k.fn()
		s := (cpuNow() - t).Seconds()
		secs[k.name] = s
		score += s / k.nominal
	}
	return secs, score / float64(len(refKernels))
}

// xorshift is the reference's generator.
type xorshift uint64

func (x *xorshift) next() uint64 {
	*x ^= *x << 13
	*x ^= *x >> 7
	*x ^= *x << 17
	return uint64(*x)
}

func refMapSmall() uint64 {
	m := map[uint64]uint64{}
	x := xorshift(3)
	for i := 0; i < 1_000_000; i++ {
		v := x.next()
		m[v&(1<<14-1)] += v
	}
	return uint64(len(m))
}

func refMapLarge() uint64 {
	m := make(map[uint64]uint64, 1<<18)
	x := xorshift(5)
	for i := 0; i < 1<<18; i++ {
		v := x.next()
		m[v&(1<<20-1)] = v
	}
	var s uint64
	for i := 0; i < 1<<19; i++ {
		s += m[x.next()&(1<<20-1)]
	}
	return s
}

type refNode struct{ l, r *refNode }

func refTree(depth int) *refNode {
	if depth == 0 {
		return &refNode{}
	}
	return &refNode{refTree(depth - 1), refTree(depth - 1)}
}

func (n *refNode) count() uint64 {
	if n.l == nil {
		return 1
	}
	return 1 + n.l.count() + n.r.count()
}

func refAlloc() uint64 {
	var s uint64
	for i := 0; i < 3; i++ {
		s += refTree(16).count()
	}
	return s
}

func refSort() uint64 {
	a := make([]uint64, 200_000)
	x := xorshift(7)
	for i := range a {
		a[i] = x.next()
	}
	sort.Slice(a, func(i, j int) bool { return a[i] < a[j] })
	return a[len(a)/2]
}

// refChase follows one random cycle (Sattolo's shuffle) through 8 MB
// of indices.
func refChase() uint64 {
	const n = 1 << 21
	next := make([]uint32, n)
	for i := range next {
		next[i] = uint32(i)
	}
	x := xorshift(11)
	for i := n - 1; i > 0; i-- {
		j := x.next() % uint64(i)
		next[i], next[j] = next[j], next[i]
	}
	j := uint32(0)
	for i := 0; i < 300_000; i++ {
		j = next[j]
	}
	return uint64(j)
}
