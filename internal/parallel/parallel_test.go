package parallel

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

func TestStreamOrdered(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 16} {
		var got []int
		Stream(workers, 100, func(i int) int {
			// Finish out of order on purpose.
			time.Sleep(time.Duration((i%5)*100) * time.Microsecond)
			return i * i
		}, func(i, r int) bool {
			got = append(got, r)
			return true
		})
		if len(got) != 100 {
			t.Fatalf("workers=%d: consumed %d results, want 100", workers, len(got))
		}
		for i, r := range got {
			if r != i*i {
				t.Fatalf("workers=%d: result[%d] = %d, want %d (out of order)", workers, i, r, i*i)
			}
		}
	}
}

func TestStreamConsumeInCallerGoroutine(t *testing.T) {
	// The whole point: consume may touch caller state without locks.
	sum := 0
	Stream(8, 1000, func(i int) int { return i }, func(_, r int) bool {
		sum += r
		return true
	})
	if sum != 1000*999/2 {
		t.Fatalf("sum = %d, want %d", sum, 1000*999/2)
	}
}

func TestStreamEarlyStop(t *testing.T) {
	var produced atomic.Int64
	consumed := 0
	Stream(4, 10_000, func(i int) int {
		produced.Add(1)
		return i
	}, func(i, r int) bool {
		consumed++
		return i < 9 // stop after consuming index 9
	})
	if consumed != 10 {
		t.Fatalf("consumed %d, want 10", consumed)
	}
	if p := produced.Load(); p >= 10_000 {
		t.Fatalf("early stop did not stop production (produced %d)", p)
	}
}

func TestStreamSerialFastPathAlternates(t *testing.T) {
	// With one worker, produce(i+1) must not start before consume(i):
	// the serial path is the reference behavior parallel runs must match.
	// The zero value means serial too, never one worker per CPU.
	for _, workers := range []int{0, 1} {
		var trace []string
		Stream(workers, 3, func(i int) int {
			trace = append(trace, fmt.Sprintf("p%d", i))
			return i
		}, func(i, _ int) bool {
			trace = append(trace, fmt.Sprintf("c%d", i))
			return true
		})
		want := "[p0 c0 p1 c1 p2 c2]"
		if got := fmt.Sprint(trace); got != want {
			t.Fatalf("workers=%d: serial order %v, want %v", workers, got, want)
		}
	}
}

func TestStreamZeroItems(t *testing.T) {
	called := false
	Stream(4, 0, func(int) int { return 0 }, func(int, int) bool {
		called = true
		return true
	})
	if called {
		t.Fatal("consume called with zero items")
	}
}

func TestMap(t *testing.T) {
	got := Map(8, 50, func(i int) string { return fmt.Sprint(i) })
	for i, s := range got {
		if s != fmt.Sprint(i) {
			t.Fatalf("Map[%d] = %q", i, s)
		}
	}
}

func TestStreamReorderBufferBounded(t *testing.T) {
	// One slow head index while every other produce returns instantly:
	// fast workers race ahead of index 0, and each completed-but-
	// unconsumable result parks in the reorder buffer. The permit
	// protocol must cap that buffer at the worker count; the unbounded
	// version buffered up to n results here.
	const workers, n = 4, 200
	maxPending := 0
	streamPendingObserver = func(size int) {
		if size > maxPending {
			maxPending = size
		}
	}
	defer func() { streamPendingObserver = nil }()

	var got []int
	Stream(workers, n, func(i int) int {
		if i == 0 {
			time.Sleep(20 * time.Millisecond)
		}
		return i
	}, func(i, r int) bool {
		got = append(got, r)
		return true
	})
	if maxPending > workers {
		t.Fatalf("reorder buffer reached %d entries, documented bound is the worker count (%d)", maxPending, workers)
	}
	if len(got) != n {
		t.Fatalf("consumed %d results, want %d", len(got), n)
	}
	for i, r := range got {
		if r != i {
			t.Fatalf("result[%d] = %d: order lost", i, r)
		}
	}
}

func TestStreamEarlyStopNoLeakNoLoss(t *testing.T) {
	// Early stop with slow producers still in flight: Stream must (1)
	// consume exactly the prefix, in order, (2) stop claiming new
	// indices, and (3) return only after every worker goroutine has
	// exited — nothing may keep running or block forever on the permit
	// or output channels.
	const workers, n = 4, 1000
	before := runtime.NumGoroutine()

	var produced atomic.Int64
	var got []int
	doneCh := make(chan struct{})
	go func() {
		defer close(doneCh)
		Stream(workers, n, func(i int) int {
			produced.Add(1)
			if i > 1 {
				time.Sleep(5 * time.Millisecond) // in flight while the stop lands
			}
			return i
		}, func(i, r int) bool {
			got = append(got, r)
			return i != 1 // stop after consuming index 1
		})
	}()
	select {
	case <-doneCh:
	case <-time.After(10 * time.Second):
		t.Fatal("Stream did not return after early stop (worker deadlock)")
	}

	if want := []int{0, 1}; len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Fatalf("consumed %v, want %v", got, want)
	}
	// No new claims after the stop: every produce call traces to a
	// permit issued before done closed — the initial `workers` permits
	// plus one returned for the single successful consume (plus one for
	// a worker that won a permit/done race at the instant of the stop).
	if p := produced.Load(); p > int64(workers+2) {
		t.Fatalf("produced %d results after early stop, want <= %d (production did not stop)", p, workers+2)
	}
	// Worker goroutines are gone (poll briefly: exiting goroutines are
	// counted until the scheduler reaps them).
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if g := runtime.NumGoroutine(); g > before {
		t.Fatalf("%d goroutines alive after Stream returned, %d before it started: leak", g, before)
	}
}

func TestWorkers(t *testing.T) {
	if Workers(3) != 3 {
		t.Fatal("explicit count not honored")
	}
	if Workers(0) < 1 || Workers(-1) < 1 {
		t.Fatal("defaulted worker count < 1")
	}
}
