package sim

import (
	"sync"
	"testing"
)

// goSpawn is the test fan-out: one goroutine per worker.
func goSpawn(n int, run func(i int)) {
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			run(i)
		}(i)
	}
	wg.Wait()
}

// workerCounts are the pool sizes every island test runs under: one
// worker multiplexes all islands; two run them concurrently, so the
// race detector sees the cross-worker hand-offs.
var workerCounts = []int{1, 2}

// TestIslandNullMessageStarvation: an island whose only neighbor is
// completely quiet (no events, never sends) must still advance past it
// — here 100 lookahead windows, which the stall jump crosses at once.
func TestIslandNullMessageStarvation(t *testing.T) {
	for _, w := range workerCounts {
		testIslandNullMessageStarvation(t, w)
	}
}

func testIslandNullMessageStarvation(t *testing.T, workers int) {
	const lookahead = 100
	const eventAt = 10_000 // 100 lookahead windows past the quiet island
	busy := NewIsland(0, NewEngine())
	quiet := NewIsland(1, NewEngine())
	// Both directions wired: busy's execution is gated on quiet's
	// promises, and vice versa.
	Connect(quiet, busy, lookahead)
	Connect(busy, quiet, lookahead)

	fired := Time(0)
	busy.eng.At(eventAt, func() { fired = busy.eng.Now() })

	runIslands([]*Island{busy, quiet}, workers, goSpawn)

	if fired != eventAt {
		t.Fatalf("workers=%d: event fired at %d, want %d", workers, fired, eventAt)
	}
	if busy.eng.Now() != eventAt {
		t.Fatalf("workers=%d: busy clock %d, want %d", workers, busy.eng.Now(), eventAt)
	}
}

// TestIslandCrossTrafficDeterministic: two islands ping-ponging
// messages must interleave identically on every run from the
// recording island's point of view — the merge is (time, scheduling
// instant, island) ordered, not wall-clock ordered. (Only one island
// records: cross-island recording order is inherently unordered, which
// is why the fabric keeps every tracer on a single island.)
func TestIslandCrossTrafficDeterministic(t *testing.T) {
	run := func(workers int) []Time {
		var log []Time
		a := NewIsland(0, NewEngine())
		b := NewIsland(1, NewEngine())
		ab := Connect(a, b, 10)
		ba := Connect(b, a, 10)

		// a volleys to b, b volleys back, ten rounds; a also runs a
		// local ticker that interleaves with the returns. All recording
		// happens on a's goroutine.
		var volley func(n int)
		volley = func(n int) {
			if n == 0 {
				return
			}
			ab.Send(a.eng.Now()+11, func() {
				serverAt := b.eng.Now()
				ba.Send(b.eng.Now()+11, func() {
					log = append(log, serverAt, a.eng.Now())
					volley(n - 1)
				})
			})
		}
		a.eng.At(0, func() { volley(10) })
		for i := Time(1); i <= 20; i++ {
			at := 7 * i
			a.eng.At(at, func() { log = append(log, at) })
		}
		runIslands([]*Island{a, b}, workers, goSpawn)
		return log
	}
	first := run(1)
	if len(first) < 40 {
		t.Fatalf("log too short: %d entries", len(first))
	}
	for trial := 0; trial < 20; trial++ {
		got := run(workerCounts[trial%len(workerCounts)])
		if len(got) != len(first) {
			t.Fatalf("trial %d: %d entries, want %d", trial, len(got), len(first))
		}
		for i := range got {
			if got[i] != first[i] {
				t.Fatalf("trial %d: entry %d = %d, want %d", trial, i, got[i], first[i])
			}
		}
	}
}

// TestIslandMatchesSingleEngine: the same workload run on one engine
// and split across two islands yields the same event sequence.
func TestIslandMatchesSingleEngine(t *testing.T) {
	// Workload: a "client" fires requests every 25 cycles; each request
	// crosses to the "server" (lookahead 10, wire 3), the server works
	// 5 cycles, replies; client records completion times.
	type result struct{ completions []Time }

	single := func() result {
		var r result
		eng := NewEngine()
		for i := Time(0); i < 50; i++ {
			at := 25 * i
			eng.At(at, func() {
				// request arrives server side at at+13
				eng.At(at+13, func() {
					eng.At(eng.Now()+5, func() {
						done := eng.Now() + 13
						eng.At(done, func() { r.completions = append(r.completions, eng.Now()) })
					})
				})
			})
		}
		eng.Run()
		return r
	}

	sharded := func(workers int) result {
		var r result
		client := NewIsland(0, NewEngine())
		server := NewIsland(1, NewEngine())
		toSrv := Connect(client, server, 10)
		toCli := Connect(server, client, 10)
		for i := Time(0); i < 50; i++ {
			at := 25 * i
			client.eng.At(at, func() {
				toSrv.Send(at+13, func() {
					server.eng.At(server.eng.Now()+5, func() {
						toCli.Send(server.eng.Now()+13, func() {
							r.completions = append(r.completions, client.eng.Now())
						})
					})
				})
			})
		}
		runIslands([]*Island{client, server}, workers, goSpawn)
		return r
	}

	want := single()
	for _, w := range workerCounts {
		got := sharded(w)
		if len(want.completions) != len(got.completions) {
			t.Fatalf("workers=%d: completions: single %d, sharded %d", w, len(want.completions), len(got.completions))
		}
		for i := range want.completions {
			if want.completions[i] != got.completions[i] {
				t.Fatalf("workers=%d: completion %d: single %d, sharded %d", w, i, want.completions[i], got.completions[i])
			}
		}
	}
}

// TestConnectRejectsZeroLookahead: a zero-lookahead channel can never
// let either side advance and must be refused outright.
func TestConnectRejectsZeroLookahead(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Connect with zero lookahead did not panic")
		}
	}()
	Connect(NewIsland(0, NewEngine()), NewIsland(1, NewEngine()), 0)
}
