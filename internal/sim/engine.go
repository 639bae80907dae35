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

// At returns the virtual time at which the event is scheduled to
// fire, or 0 if it already fired or was cancelled (the slot may have
// been recycled, so the original timestamp is gone).
func (ev Event) At() Time {
	if !ev.Pending() {
		return 0
	}
	return ev.n.at
}

// node is the engine-owned storage for one scheduled event. Nodes are
// pooled: on fire or cancel they return to the engine's free list and
// are reused by later At/After calls, so steady-state scheduling does
// not allocate. gen increments on every recycle, invalidating any
// handles still pointing at the slot.
type node struct {
	at      Time
	schedAt Time // clock value when the event was scheduled
	seq     uint64
	fn      func()
	fnArg   func(any) // set (with arg) by AfterArg instead of fn
	arg     any
	gen     uint32
	index   int32 // heap position, -1 once popped/removed, <= -2 in a wheel bucket
	next    *node // free-list / wheel-bucket link
	prev    *node // wheel-bucket back link (O(1) cancel)
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
// Engine is not safe for concurrent use; the simulation guarantees
// that only one goroutine touches it at a time (the kernel runs each
// environment as a coroutine of the host goroutine, see
// internal/kernel). Distinct Engines are
// fully independent and may run on concurrent goroutines — the basis
// of the parallel harness (internal/parallel).
type Engine struct {
	now     Time
	heap    []*node
	seq     uint64
	free    *node
	hook    func(at Time) // observes every fired event; nil = off
	metered Time          // clock value already flushed to the global meter
	wheel   *wheel        // far-future backend (wheel.go), lazily allocated
	noWheel bool          // SetWheel(false): pure-heap baseline mode
	fired   int64         // events dispatched since the last meter flush
	flushed int64         // events already published to the global meter
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
	n.schedAt = e.now
	n.seq = e.seq
	e.seq++
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
	return true
}

// peek syncs the wheel and reports the earliest queued deadline.
func (e *Engine) peek() (Time, bool) {
	e.syncWheel()
	if len(e.heap) == 0 {
		return 0, false
	}
	return e.heap[0].at, true
}

// NextEvent peeks at the earliest queued event without firing it,
// reporting its fire time and the clock value at which it was
// scheduled. The conservative parallel scheduler (shard.go) uses the
// pair to merge engine events against cross-island channel arrivals
// with the same tie-break a single shared engine's (at, seq) order
// would produce: among same-instant events, the one scheduled earliest
// fires first.
func (e *Engine) NextEvent() (at, schedAt Time, ok bool) {
	e.syncWheel()
	if len(e.heap) == 0 {
		return 0, 0, false
	}
	return e.heap[0].at, e.heap[0].schedAt, true
}

// Run processes events until the queue is empty.
func (e *Engine) Run() {
	for e.Step() {
	}
	e.flushMeter()
}

// RunUntil processes events with timestamps <= t, then advances the
// clock to exactly t (if it isn't already past it).
func (e *Engine) RunUntil(t Time) {
	for {
		at, ok := e.peek()
		if !ok || at > t {
			break
		}
		e.Step()
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
func less(a, b *node) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
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
