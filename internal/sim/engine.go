package sim

// Event is a cancellable handle to a scheduled callback, returned by
// At/After/AfterArg. It is a small value (pointer + generation): the
// zero Event is inert, so fields holding "maybe a pending timer" need
// no pointer sentinel — Cancel on the zero value is a no-op.
//
// Handles are generation-checked: once the event has fired or been
// cancelled, its slot may be recycled for a future event, but stale
// handles keep referring to the *old* generation, so a late Cancel
// can never kill an unrelated newer event.
type Event struct {
	n   *node
	gen uint32
}

// Pending reports whether the event is still queued (not yet fired,
// not cancelled). The zero Event reports false.
func (ev Event) Pending() bool { return ev.n != nil && ev.n.gen == ev.gen }

// node is the engine-owned storage for one scheduled event. Nodes are
// pooled: on fire or cancel they return to the engine's free list and
// are reused by later At/After calls, so steady-state scheduling does
// not allocate. gen increments on every recycle, invalidating any
// handles still pointing at the slot.
type node struct {
	at    Time
	seq   uint64
	fn    func()
	fnArg func(any) // set (with arg) by AfterArg instead of fn
	arg   any
	gen   uint32
	index int32 // heap position, -1 once popped/removed, <= -2 in a wheel bucket
	next  *node // free-list / wheel-bucket link
	prev  *node // wheel-bucket back link (O(1) cancel)
}

// Engine is the discrete-event core: a virtual clock plus a
// time-ordered event queue. Events scheduled for the same instant fire
// in scheduling order, so runs are fully deterministic.
//
// The queue is a 4-ary min-heap ordered on (at, seq). A 4-ary heap
// does ~half the levels of a binary heap per operation, and the
// four-child scan stays within one cache line of the slice — the
// event queue is the hottest host-side structure in the simulator.
//
// RunAhead lets the code an event runs skip scheduling an event it
// would only wait for: RunAhead(d) behaves exactly as if an event
// scheduled now for now+d had been queued and the engine had run until
// it fired. That event's stamp would be (now+d, S), S being the seq it
// would take, so RunAhead first fires, on the caller's stack and in
// order, every event that orders before (now+d, S): heap and wheel
// residents, arrivals filed under earlier reserved stamps, and events
// the fired ones schedule (re-peeking after each). A tie at now+d fires
// first if it was scheduled before the call and after it otherwise.
// Then it advances the clock to now+d, counts one dispatched event and
// calls the event hook with the new time, so Dispatched, the global
// meters and a tracer's event count read the same as on the scheduled
// path. It refuses (reports false and changes nothing) when that event
// could not fire as the call's next step:
//   - now+d lies past the bound of the running RunUntil, so a crash
//     point or a deadline stops the clock where it always did;
//   - another RunAhead is firing the events ahead of it and now+d is
//     not strictly before that call's target: the inner event's stamp
//     would be the larger, and the outer caller's continuation sits
//     below it on the stack, so it must end first;
//   - no Run or RunUntil is running, so a caller driving Step by hand
//     still sees one event per Step.
//
// RunAhead takes no seq stamp where the scheduled event would have
// taken one. That keeps every other event's relative order: the stamp
// would only have ordered that event against events scheduled after
// it, and the comparison against S above keeps all of them behind it.
//
// Engine is not safe for concurrent use; the simulation guarantees
// that only one goroutine touches it at a time (the kernel runs each
// environment as a coroutine of the host goroutine, see
// internal/kernel). Distinct Engines are
// fully independent and may run on concurrent goroutines — the basis
// of the parallel harness (internal/parallel).
type Engine struct {
	now      Time
	heap     []*node
	seq      uint64
	free     *node
	hook     func(at Time) // observes every fired event; nil = off
	metered  Time          // clock value already flushed to the global meter
	wheel    *wheel        // far-future backend (wheel.go), lazily allocated
	heapOnly bool          // pure-heap reference mode, set only by tests before scheduling
	fired    int64         // events dispatched since the last meter flush
	flushed  int64         // events already published to the global meter
	// limitAt and limitSeq are the stamp a RunAhead must end strictly
	// before: (t, max) inside RunUntil(t), (max, max) inside Run, the
	// enclosing RunAhead's own stamp while it fires the events ahead of
	// it, and zero, which nothing orders before, outside any run.
	limitAt  Time
	limitSeq uint64
}

// Dispatched returns the total events this engine has fired since it
// was created — the per-engine view of the global EventsDispatched
// meter, deterministic for a deterministic schedule.
func (e *Engine) Dispatched() int64 { return e.flushed + e.fired }

// NewEngine returns an engine with the clock at zero and no events.
func NewEngine() *Engine { return &Engine{} }

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Pending reports the number of events queued, whether they currently
// sit in the heap or in a timer-wheel bucket. (Cancel removes events
// from both eagerly, so everything counted is live.)
func (e *Engine) Pending() int {
	n := len(e.heap)
	if e.wheel != nil {
		n += e.wheel.count
	}
	return n
}

// SetEventHook installs h to be called once per fired event, just
// before its callback runs and after the clock has advanced to its
// timestamp. Cancelled events never reach the hook. The tracing layer
// uses this to count event dispatches; nil disables it.
func (e *Engine) SetEventHook(h func(at Time)) { e.hook = h }

// schedule acquires a node (recycling from the free list when
// possible), stamps it, and files it: far-future events go to the
// timer wheel, everything else to the heap. The (at, seq) stamp is
// fixed here, so the filing decision can never affect pop order.
func (e *Engine) schedule(t Time) *node {
	e.seq++
	return e.scheduleSeq(t, e.seq-1)
}

// scheduleSeq is schedule with the FIFO stamp given.
func (e *Engine) scheduleSeq(t Time, seq uint64) *node {
	if t < e.now {
		t = e.now
	}
	n := e.free
	if n != nil {
		e.free = n.next
		n.next = nil
	} else {
		n = &node{}
	}
	n.at = t
	n.seq = seq
	if !e.wheelAdd(n) {
		e.push(n)
	}
	return n
}

// release returns a node to the free list, invalidating every
// outstanding handle to the event it carried.
func (e *Engine) release(n *node) {
	n.gen++
	n.fn = nil
	n.fnArg = nil
	n.arg = nil
	n.index = -1
	n.prev = nil
	n.next = e.free
	e.free = n
}

// At schedules fn to run when the clock reaches t. Scheduling in the
// past is a bug in the caller; the engine clamps it to "now" so the
// event still fires (in order) rather than corrupting the clock.
func (e *Engine) At(t Time, fn func()) Event {
	n := e.schedule(t)
	n.fn = fn
	return Event{n, n.gen}
}

// After schedules fn to run d cycles from now.
func (e *Engine) After(d Time, fn func()) Event {
	return e.At(e.now+d, fn)
}

// AfterArg schedules fn(arg) to run d cycles from now. Unlike After,
// the common timer pattern pays no closure allocation: callers keep
// one long-lived fn (typically a package-level func or a field) and
// pass the receiver through arg, and the event node itself comes from
// the engine's pool — steady-state cost is zero allocations.
func (e *Engine) AfterArg(d Time, fn func(any), arg any) Event {
	n := e.schedule(e.now + d)
	n.fnArg = fn
	n.arg = arg
	return Event{n, n.gen}
}

// AtArg schedules fn(arg) to run when the clock reaches t — the
// absolute-time analogue of AfterArg, with the same allocation-free
// steady state.
func (e *Engine) AtArg(t Time, fn func(any), arg any) Event {
	n := e.schedule(t)
	n.fnArg = fn
	n.arg = arg
	return Event{n, n.gen}
}

// Reserve sets aside the FIFO stamps of n events that will be
// scheduled later, and returns the first. AtArgReserved(t, first+i, ...)
// then files the i-th so that among events at t it fires exactly where
// it would have had it been scheduled at the reservation. That holds
// as long as it is filed before any event at t stamped after it has
// fired: for instance by an event at or before t that was itself
// stamped earlier, which is how a chain of pre-drawn arrivals files
// each successor from its predecessor (netsim.OpenLoop) instead of
// queueing them all up front.
func (e *Engine) Reserve(n int) uint64 {
	first := e.seq
	e.seq += uint64(n)
	return first
}

// AtArgReserved is AtArg under a stamp obtained from Reserve.
func (e *Engine) AtArgReserved(t Time, seq uint64, fn func(any), arg any) Event {
	n := e.scheduleSeq(t, seq)
	n.fnArg = fn
	n.arg = arg
	return Event{n, n.gen}
}

// Cancel prevents ev from firing. Cancelling the zero Event, an
// already-fired or already-cancelled event — even if its slot has
// since been recycled for a newer event — is a no-op.
func (e *Engine) Cancel(ev Event) {
	n := ev.n
	if n == nil || n.gen != ev.gen || n.index == -1 {
		return
	}
	if n.index < -1 {
		e.wheel.unlink(n)
	} else {
		e.remove(int(n.index))
	}
	e.release(n)
}

// Step pops and runs the next event, advancing the clock to its time.
// It reports whether an event ran. Cancelled events are never in the
// heap (Cancel removes them eagerly), so whatever is popped fires. The
// node is recycled before the callback runs, so a callback that
// schedules a new event typically reuses the slot it fired from.
func (e *Engine) Step() bool {
	e.syncWheel()
	if len(e.heap) == 0 {
		return false
	}
	e.fire()
	return true
}

// fire pops and runs the heap's head. The caller has synced the wheel
// and seen the heap non-empty.
func (e *Engine) fire() {
	n := e.pop()
	e.now = n.at
	fn, fnArg, arg := n.fn, n.fnArg, n.arg
	e.release(n)
	e.fired++
	if e.hook != nil {
		e.hook(e.now)
	}
	if fnArg != nil {
		fnArg(arg)
	} else {
		fn()
	}
}

// peek syncs the wheel and reports the earliest queued deadline.
func (e *Engine) peek() (Time, bool) {
	e.syncWheel()
	if len(e.heap) == 0 {
		return 0, false
	}
	return e.heap[0].at, true
}

// RunAhead advances the clock by d as if an event scheduled now for
// now+d had fired, first firing every event queued ahead of it, and
// reports whether it could (see the contract on Engine).
func (e *Engine) RunAhead(d Time) bool {
	t, seq := e.now+d, e.seq
	if !stampLess(t, seq, e.limitAt, e.limitSeq) {
		return false
	}
	outerAt, outerSeq := e.limitAt, e.limitSeq
	e.limitAt, e.limitSeq = t, seq
	for {
		e.syncWheel()
		if len(e.heap) == 0 || !stampLess(e.heap[0].at, e.heap[0].seq, t, seq) {
			break
		}
		e.fire()
	}
	e.limitAt, e.limitSeq = outerAt, outerSeq
	e.now = t
	e.fired++
	if e.hook != nil {
		e.hook(t)
	}
	return true
}

// enter marks a Run or RunUntil with horizon t as running and returns
// the limit it replaces; the deferred leave restores it, so a nested or
// panicking run leaves RunAhead's view of the enclosing one intact.
// That includes a RunAhead unwound by a panic from an event it fired.
func (e *Engine) enter(t Time) (at Time, seq uint64) {
	at, seq = e.limitAt, e.limitSeq
	e.limitAt, e.limitSeq = t, ^uint64(0)
	return at, seq
}

func (e *Engine) leave(at Time, seq uint64) {
	e.limitAt, e.limitSeq = at, seq
}

// Run processes events until the queue is empty.
func (e *Engine) Run() {
	defer e.leave(e.enter(^Time(0)))
	for e.Step() {
	}
	e.flushMeter()
}

// RunUntil processes events with timestamps <= t, then advances the
// clock to exactly t (if it isn't already past it).
func (e *Engine) RunUntil(t Time) {
	defer e.leave(e.enter(t))
	for {
		at, ok := e.peek()
		if !ok || at > t {
			break
		}
		e.fire()
	}
	if e.now < t {
		e.now = t
	}
	e.flushMeter()
}

// Advance moves the clock forward by d without processing any events.
// It must only be used when the caller knows no event falls inside the
// window; the engine panics otherwise, because silently reordering
// events would destroy determinism.
func (e *Engine) Advance(d Time) {
	target := e.now + d
	if at, ok := e.peek(); ok && at < target {
		panic("sim: Advance would skip a pending event")
	}
	e.now = target
}

// less orders the heap: by timestamp, then FIFO among simultaneous
// events.
func less(a, b *node) bool { return stampLess(a.at, a.seq, b.at, b.seq) }

// stampLess reports whether the stamp (at, seq) orders before (bat, bseq).
func stampLess(at Time, seq uint64, bat Time, bseq uint64) bool {
	if at != bat {
		return at < bat
	}
	return seq < bseq
}

// push appends n and restores the heap property.
func (e *Engine) push(n *node) {
	n.index = int32(len(e.heap))
	e.heap = append(e.heap, n)
	e.siftUp(int(n.index))
}

// pop removes and returns the minimum node.
func (e *Engine) pop() *node {
	root := e.heap[0]
	last := len(e.heap) - 1
	n := e.heap[last]
	e.heap[last] = nil
	e.heap = e.heap[:last]
	if last > 0 {
		e.heap[0] = n
		n.index = 0
		e.siftDown(0)
	}
	root.index = -1
	return root
}

// remove deletes the node at heap position i.
func (e *Engine) remove(i int) {
	last := len(e.heap) - 1
	n := e.heap[last]
	e.heap[last] = nil
	e.heap = e.heap[:last]
	if i < last {
		e.heap[i] = n
		n.index = int32(i)
		e.siftUp(i)
		e.siftDown(int(n.index))
	}
}

func (e *Engine) siftUp(i int) {
	n := e.heap[i]
	for i > 0 {
		p := (i - 1) >> 2
		if !less(n, e.heap[p]) {
			break
		}
		e.heap[i] = e.heap[p]
		e.heap[i].index = int32(i)
		i = p
	}
	e.heap[i] = n
	n.index = int32(i)
}

func (e *Engine) siftDown(i int) {
	n := e.heap[i]
	size := len(e.heap)
	for {
		first := i<<2 + 1
		if first >= size {
			break
		}
		best := first
		end := first + 4
		if end > size {
			end = size
		}
		for c := first + 1; c < end; c++ {
			if less(e.heap[c], e.heap[best]) {
				best = c
			}
		}
		if !less(e.heap[best], n) {
			break
		}
		e.heap[i] = e.heap[best]
		e.heap[i].index = int32(i)
		i = best
	}
	e.heap[i] = n
	n.index = int32(i)
}
