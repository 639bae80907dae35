package sim

// Conservative parallel discrete-event execution (Chandy–Misra–Bryant
// with null-message promises). A simulation is partitioned into
// Islands — each an Engine — joined by directed Channels that carry
// timestamped callbacks plus lookahead promises. A channel with
// lookahead L guarantees that a message handed over while the sender's
// clock reads S fires no earlier than S+L+1 on the receiver, so the
// receiver may safely execute everything up to (promised sender
// clock)+L without waiting, and an idle island still advances past a
// quiet neighbor on promises alone.
//
// The merge is deterministic: each island orders its engine's next
// event against the inbound channel heads by (fire time, scheduling
// time, origin island, channel index) — the same order a single shared
// engine's (time, seq) heap produces whenever the scheduling instants
// differ, with the island id as the tie-break of last resort.
//
// Islands run on a small worker pool, not a goroutine each: a worker
// takes a runnable island off the ready queue and executes it until it
// blocks, so setting an island aside costs a queue operation rather
// than a goroutine park and wake. When every island is blocked at
// once, all promises jump to the earliest pending event instead of
// climbing one lookahead per exchange. One mutex (shardState.mu)
// guards the queue, the channels and the promises; an island's engine
// is touched only by the worker holding it.

import (
	"runtime"
	"sync"
)

// maxTime is the saturation bound for promise arithmetic.
const maxTime = ^Time(0)

// satAdd adds two times, saturating instead of wrapping.
func satAdd(a, b Time) Time {
	if s := a + b; s >= a {
		return s
	}
	return maxTime
}

// msg is one cross-island event hand-off: a callback to run on the
// receiving island at virtual time at. sent is the sender's clock at
// the hand-over — the scheduling instant, used for the deterministic
// tie-break among same-instant events exactly as a shared engine's
// sequence numbers would order them. A message carries either a plain
// callback (fn) or an arg-carrying one (argFn+arg, the alloc-free
// variant mirroring Engine.AtArg).
type msg struct {
	at    Time
	sent  Time
	fn    func()
	argFn func(any)
	arg   any
}

// run invokes the message's callback.
func (m *msg) run() {
	if m.argFn != nil {
		m.argFn(m.arg)
		return
	}
	m.fn()
}

// Channel is a directed, timestamped event conduit between two
// islands. Messages must carry strictly increasing timestamps, each
// beyond the sender's clock plus the channel's lookahead — the
// conservative contract every promise is derived from. Queue storage
// is a reusable ring, so steady-state hand-off allocates nothing.
type Channel struct {
	from      *Island
	to        *Island
	lookahead Time

	// Sender-side state; only the sending island's goroutine touches
	// it. sentPromise mirrors the last published promise so redundant
	// publications skip the receiver's lock entirely, and pubQuantum is
	// the minimum clock advance between promise raises while busy.
	sentPromise Time
	pubQuantum  Time

	// Receiver-side state, guarded by the run's shardState.mu.
	promise Time  // proven lower bound on the sender's clock
	q       []msg // ring: q[head], q[head+1], ... (mod len), count live
	head    int
	count   int
	idx     int // position in to.in — the tie-break of last resort
}

// Island is one partition of a conservatively parallel simulation: an
// engine plus its inbound and outbound channels. At most one worker
// executes its events at a time.
type Island struct {
	id  int
	eng *Engine
	in  []*Channel
	out []*Channel

	// Scheduling state, guarded by st.mu. need is, while the island
	// is blocked, its earliest pending candidate (maxTime if none),
	// kept current as messages arrive, so wakers and the stall check
	// never touch a blocked island's engine.
	st    *shardState // the run it belongs to
	state islandState
	need  Time
}

// islandState is an island's place in its run's scheduler.
type islandState uint8

const (
	blocked islandState = iota // nothing executable; on no queue
	ready                      // on st.ready, waiting for a worker
	running                    // held by a worker
)

// NewIsland wraps an engine as one island. The id must be unique
// within the set later passed to RunIslands; it doubles as the
// deterministic tie-break among islands.
func NewIsland(id int, eng *Engine) *Island {
	// Until RunIslands adopts it, the island sits in a finished run of
	// its own, so a Send outside any run just queues the message.
	return &Island{id: id, eng: eng, st: &shardState{done: true}}
}

// ID returns the island's tie-break identity.
func (isl *Island) ID() int { return isl.id }

// Engine returns the island's engine.
func (isl *Island) Engine() *Engine { return isl.eng }

// Connect builds a directed channel with the given lookahead. A zero
// lookahead is rejected: it would let the receiver advance nowhere
// past the sender's clock, deadlocking both (the caller must merge
// such partitions instead).
func Connect(from, to *Island, lookahead Time) *Channel {
	if lookahead == 0 {
		panic("sim: cross-island channel needs lookahead >= 1")
	}
	c := &Channel{from: from, to: to, lookahead: lookahead, idx: len(to.in)}
	c.pubQuantum = lookahead
	if c.pubQuantum == 0 {
		c.pubQuantum = 1
	}
	from.out = append(from.out, c)
	to.in = append(to.in, c)
	return c
}

// Send hands fn to the receiving island to fire at virtual time at.
// It must be called while the sending island executes, with at
// strictly beyond the sender's clock plus the lookahead, and strictly
// beyond every earlier Send on the same channel. The hand-off is
// synchronous — the message is in the receiver's queue before Send
// returns — which is what makes idle-detection exact.
func (c *Channel) Send(at Time, fn func()) {
	c.send(msg{at: at, fn: fn})
}

// SendArg is Send through a pre-bound function and argument — the
// steady-state hand-off path, which allocates nothing (a closure per
// crossing otherwise dominates a packet-forwarding fabric's garbage).
func (c *Channel) SendArg(at Time, fn func(any), arg any) {
	c.send(msg{at: at, argFn: fn, arg: arg})
}

func (c *Channel) send(m msg) {
	at := m.at
	now := c.from.eng.Now()
	if at <= satAdd(now, c.lookahead) {
		panic("sim: Channel.Send violates the lookahead contract")
	}
	st := c.from.st
	st.mu.Lock()
	if c.count > 0 {
		if last := c.q[(c.head+c.count-1)%len(c.q)]; at <= last.at {
			st.mu.Unlock()
			panic("sim: Channel.Send timestamps must strictly increase")
		}
	}
	m.sent = now
	c.push(m)
	if c.promise < now {
		c.promise = now
	}
	st.wakeLocked(c.to, at)
	st.mu.Unlock()
	if now > c.sentPromise {
		c.sentPromise = now
	}
}

// push appends to the ring, growing it when full. Caller holds st.mu.
func (c *Channel) push(m msg) {
	if c.count == len(c.q) {
		grown := make([]msg, max(8, 2*len(c.q)))
		for i := 0; i < c.count; i++ {
			grown[i] = c.q[(c.head+i)%len(c.q)]
		}
		c.q, c.head = grown, 0
	}
	c.q[(c.head+c.count)%len(c.q)] = m
	c.count++
}

// pop removes the head message. Caller holds st.mu.
func (c *Channel) pop() msg {
	m := c.q[c.head]
	c.q[c.head] = msg{}
	c.head = (c.head + 1) % len(c.q)
	c.count--
	return m
}

// shardState is one RunIslands call's scheduler: the ready queue the
// workers take islands from, and the count of islands they hold. When
// the queue is empty and no worker holds an island, every island is
// blocked at once (sends are synchronous, so no message is in flight)
// and the run either jumps its promises or is over.
type shardState struct {
	mu      sync.Mutex
	cond    sync.Cond // idle workers wait here for the ready queue
	ready   []*Island
	held    int // islands a worker is executing
	idle    int // workers waiting on cond
	done    bool
	islands []*Island
}

// wakeLocked queues a blocked island that a new message (firing at
// at) or a raised promise (at == maxTime) has made runnable. An island
// a worker holds needs nothing: it re-examines its channels before it
// blocks, under this same lock. A raise that leaves a blocked island
// still short of its next candidate wakes no one; if the whole run
// stalls that way, stalledLocked moves it on. Caller holds st.mu.
func (st *shardState) wakeLocked(isl *Island, at Time) {
	if isl.state != blocked {
		return
	}
	isl.need = min(isl.need, at)
	if isl.need > isl.safeLocked() {
		return
	}
	isl.state = ready
	st.ready = append(st.ready, isl)
	if st.idle > 0 {
		st.cond.Signal()
	}
}

// stalledLocked handles every island being blocked at once. With no
// event or message left anywhere the run is over. Otherwise nothing
// can execute before the earliest pending candidate across all
// islands, so no island can send from an earlier clock: every promise
// is raised to that instant, which makes at least the island holding
// it runnable. Caller holds st.mu.
func (st *shardState) stalledLocked() {
	next := maxTime
	for _, isl := range st.islands {
		next = min(next, isl.need)
	}
	if next == maxTime {
		st.done = true
		st.cond.Broadcast()
		return
	}
	for _, isl := range st.islands {
		for _, c := range isl.out {
			c.promise = max(c.promise, next)
			c.sentPromise = max(c.sentPromise, next)
		}
	}
	for _, isl := range st.islands {
		st.wakeLocked(isl, maxTime)
	}
}

// work is one pool worker: take the oldest ready island, execute it
// until it blocks, repeat until the run is over.
func (st *shardState) work() {
	st.mu.Lock()
	defer st.mu.Unlock()
	for !st.done {
		if len(st.ready) == 0 {
			if st.held == 0 {
				st.stalledLocked()
				continue
			}
			st.idle++
			st.cond.Wait()
			st.idle--
			continue
		}
		isl := st.ready[0]
		st.ready = append(st.ready[:0], st.ready[1:]...)
		isl.state = running
		st.held++
		st.mu.Unlock()
		isl.run()
		st.held--
	}
}

// cand is one merge candidate: the engine's next event or an inbound
// channel head, keyed for the deterministic global order.
type cand struct {
	ch   *Channel // nil = the engine's own next event
	at   Time
	sent Time // scheduling instant (engine schedAt / channel msg.sent)
	from int  // origin island
	idx  int  // origin channel position (-1 for engine events)
}

// beats reports whether a orders before b under the global order:
// fire time, then scheduling instant, then origin island, then
// channel index.
func (a cand) beats(b cand) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	if a.sent != b.sent {
		return a.sent < b.sent
	}
	if a.from != b.from {
		return a.from < b.from
	}
	return a.idx < b.idx
}

// pickLocked merges the engine head with the inbound channel heads and
// computes the safe execution bound: the least promise+lookahead over
// the EMPTY inbound channels (a nonempty channel's head already bounds
// everything that can still arrive on it, since timestamps strictly
// increase per channel). chMin is the earliest queued channel head —
// engine events strictly before it need no merge at all. Caller holds
// st.mu and the island.
func (isl *Island) pickLocked() (best cand, ok bool, safe, chMin Time) {
	safe, chMin = maxTime, maxTime
	if at, schedAt, has := isl.eng.NextEvent(); has {
		best, ok = cand{at: at, sent: schedAt, from: isl.id, idx: -1}, true
	}
	for _, c := range isl.in {
		if c.count == 0 {
			if s := satAdd(c.promise, c.lookahead); s < safe {
				safe = s
			}
			continue
		}
		m := c.q[c.head]
		if m.at < chMin {
			chMin = m.at
		}
		mc := cand{ch: c, at: m.at, sent: m.sent, from: c.from.id, idx: c.idx}
		if !ok || mc.beats(best) {
			best, ok = mc, true
		}
	}
	return best, ok, safe, chMin
}

// safeLocked is pickLocked's safe bound alone, from the channels
// without the engine. Caller holds st.mu.
func (isl *Island) safeLocked() Time {
	safe := maxTime
	for _, c := range isl.in {
		if c.count == 0 {
			safe = min(safe, satAdd(c.promise, c.lookahead))
		}
	}
	return safe
}

// publish raises, while the island is busy, the promise on every
// outbound channel whose last publication lags value by at least a
// quantum, bounding lock traffic to a fraction of the lookahead.
func (isl *Island) publish(value Time) {
	for i, c := range isl.out {
		if value >= satAdd(c.sentPromise, c.pubQuantum) {
			isl.st.mu.Lock()
			for _, c := range isl.out[i:] {
				if value >= satAdd(c.sentPromise, c.pubQuantum) {
					c.raiseLocked(value)
				}
			}
			isl.st.mu.Unlock()
			return
		}
	}
}

// raiseLocked publishes value as the channel's promise, waking the
// receiver if that makes it runnable. Caller holds st.mu.
func (c *Channel) raiseLocked(value Time) {
	if c.promise < value {
		c.promise = value
		c.from.st.wakeLocked(c.to, maxTime)
	}
	c.sentPromise = value
}

// run executes the island for the worker holding it: merge, execute
// while safe, and when nothing is executable publish the clock it is
// now guaranteed to reach and mark it blocked. The final merge, the
// promise publication and the block happen under one hold of st.mu,
// so no wakeup can slip between them. Returns holding st.mu.
func (isl *Island) run() {
	st := isl.st
	for {
		st.mu.Lock()
		best, ok, safe, chMin := isl.pickLocked()
		if ok && best.at <= safe {
			if best.ch == nil {
				st.mu.Unlock()
				// Lock-free batch: every engine event strictly before the
				// earliest queued channel head and within the safe bound
				// wins the merge outright, so run them all without
				// re-taking the lock. The snapshot stays valid mid-batch:
				// per-channel timestamps strictly increase (queued heads
				// cannot drop below chMin) and any fresh arrival lands
				// strictly beyond safe. Events AT chMin or past safe fall
				// back to the locked merge for the deterministic
				// tie-break.
				for {
					isl.eng.Step()
					isl.publish(isl.eng.Now())
					at, _, has := isl.eng.NextEvent()
					if !has || at > safe || at >= chMin {
						break
					}
				}
			} else {
				m := best.ch.pop()
				st.mu.Unlock()
				if now := isl.eng.Now(); m.at > now {
					isl.eng.Advance(m.at - now)
				}
				m.run()
				isl.publish(isl.eng.Now())
			}
			continue
		}
		// Nothing executable. The clock is guaranteed to reach at least
		// safe+1 before the island sends anything else: every candidate
		// is past safe, and any future arrival is past safe too
		// (promise + lookahead is inclusive; real messages land
		// strictly beyond it).
		lbts := max(isl.eng.Now(), satAdd(safe, 1))
		for _, c := range isl.out {
			if lbts > c.sentPromise {
				c.raiseLocked(lbts)
			}
		}
		isl.state = blocked
		isl.need = maxTime
		if ok {
			isl.need = best.at
		}
		return
	}
}

// RunIslands drives the islands to global completion: every engine
// drained, every channel empty. spawn must run its argument for each
// i in 0..n-1 on concurrent goroutines and return once all have
// finished (internal/netsim routes this through internal/parallel).
// Channels persist across calls; promises are (re)seeded from the
// senders' current clocks, so a fabric that settles, loads and runs
// again never replays the null-message climb from time zero.
//
// The pool gets one worker per two CPUs the process may use (at least
// one, at most one per island), leaving the rest to the runtime's
// garbage collector and scheduler, as a single engine does. A worker
// per CPU lost on the 2-CPU reference host: in the 4-server cluster
// cell only 278 of 16,433 island runs overlapped, and the second
// worker's cross-CPU wakeups made the cell about 1.25x slower than one
// worker.
func RunIslands(islands []*Island, spawn func(n int, run func(i int))) {
	runIslands(islands, max(1, runtime.GOMAXPROCS(0)/2), spawn)
}

// runIslands is RunIslands on a given number of workers. Any count is
// deadlock-free, since a blocked island holds no worker.
func runIslands(islands []*Island, workers int, spawn func(n int, run func(i int))) {
	st := &shardState{islands: islands}
	st.cond.L = &st.mu
	for _, isl := range islands {
		isl.st = st
		isl.state = ready
		st.ready = append(st.ready, isl)
		now := isl.eng.Now()
		for _, c := range isl.out {
			c.promise = max(c.promise, now)
			c.sentPromise = max(c.sentPromise, now)
		}
	}
	spawn(min(workers, len(islands)), func(int) { st.work() })
	for _, isl := range islands {
		isl.eng.flushMeter()
	}
}
