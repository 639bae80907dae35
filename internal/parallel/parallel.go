// Package parallel fans independent simulated-machine runs across OS
// threads while keeping every observable output identical to a serial
// run.
//
// The simulator's machines are fully self-contained once the tracer is
// routed through machine.Config: one engine, one kernel, one fault
// plan, one tracer per machine, touched by exactly one goroutine at a
// time (a machine's environments are coroutines its host goroutine
// switches into, see internal/kernel). Distinct machines therefore
// parallelize trivially — the only thing that must NOT parallelize is
// the *consumption* of their results, because logs, tables, replay
// tokens and digest comparisons are all order-sensitive.
//
// Stream is the primitive that enforces this split: produce(i) calls
// run concurrently on a bounded worker pool, consume(i, r) runs
// strictly in index order in the caller's goroutine. A caller that
// does all its printing and comparing inside consume gets byte-
// identical output at any worker count, including 1 (which takes a
// no-goroutine fast path, so serial runs stay exactly as before).
package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers normalizes a requested worker count: n <= 0 selects one
// worker per available CPU (the -parallel flag's default).
func Workers(n int) int {
	if n <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// Stream runs produce(i) for i in [0, n) on up to workers goroutines
// and delivers each result to consume(i, r) strictly in increasing
// index order, always in the caller's goroutine. consume returning
// false stops the stream early: no new produce calls start, in-flight
// ones finish and their results are discarded. workers <= 1, the zero
// value included, runs fully serially with no goroutines, producing and
// consuming alternately; callers wanting one worker per CPU resolve
// that with Workers first.
func Stream[R any](workers, n int, produce func(int) R, consume func(int, R) bool) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if !consume(i, produce(i)) {
				return
			}
		}
		return
	}

	type indexed struct {
		i int
		r R
	}
	// Permit protocol: a worker takes one permit per index it claims and
	// the consumer returns one per result it consumes. Claimed-but-
	// unconsumed indices therefore never exceed the worker count, which
	// is exactly the reorder-buffer bound: without it, one slow index
	// lets fast workers race ahead and buffer up to n results. done is
	// closed on early stop so blocked workers exit instead of waiting
	// for permits that will never come back.
	permits := make(chan struct{}, workers)
	for w := 0; w < workers; w++ {
		permits <- struct{}{}
	}
	done := make(chan struct{})
	out := make(chan indexed, workers)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-permits:
				case <-done:
					return
				}
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				r := produce(i)
				select {
				case out <- indexed{i, r}:
				case <-done:
					return
				}
			}
		}()
	}
	go func() {
		wg.Wait()
		close(out)
	}()

	// Reorder buffer: results arrive in completion order, leave in
	// index order. The permit protocol above caps its size at the
	// worker count.
	pending := make(map[int]R, workers)
	want := 0
	stopped := false
	for r := range out {
		pending[r.i] = r.r
		if streamPendingObserver != nil {
			streamPendingObserver(len(pending))
		}
		for {
			v, ok := pending[want]
			if !ok {
				break
			}
			delete(pending, want)
			if !stopped {
				if !consume(want, v) {
					stopped = true
					close(done)
				} else {
					// Return the permit. Never blocks: at most `workers`
					// permits exist and this one was held by the index
					// just consumed.
					permits <- struct{}{}
				}
			}
			want++
		}
	}
}

// streamPendingObserver, when non-nil, receives the reorder buffer's
// size after each insertion. Test hook: the bound test asserts the
// buffer never exceeds the worker count.
var streamPendingObserver func(size int)

// Map runs f(i) for i in [0, n) on up to workers goroutines and
// returns the n results in index order.
func Map[R any](workers, n int, f func(int) R) []R {
	out := make([]R, n)
	Stream(workers, n, f, func(i int, r R) bool {
		out[i] = r
		return true
	})
	return out
}
