//go:build go1.23

package kernel

import (
	"iter"
	"sync"
)

// maxFreeCoros bounds the free list of idle environment coroutines.
// The campaigns' machines have a handful of environments alive at a
// time; sixteen covers that several times over and bounds the stacks
// kept parked on the list.
const maxFreeCoros = 16

// coro is one environment coroutine: an iter.Pull iterator whose
// goroutine runs a body, reports its exit with a parkExit message, and
// then waits, parked, to run the body of the next environment that
// takes it. Reuse keeps the goroutine and the stack it has already
// grown; spawning on a fresh coroutine would grow a new one from
// scratch.
type coro struct {
	// next resumes the coroutine until its next park, stop unwinds it
	// for good, and yield, called from inside the running body, parks
	// it.
	next  func() (parkMsg, bool)
	stop  func()
	yield func(parkMsg) bool

	env  *Env       // the environment whose body runs next
	body func(*Env) // its body; both cleared once it starts
}

// freeCoros holds idle coroutines, each parked in the yield that
// reported its last body's exit. Machines on parallel workers share
// it; a coroutine is only ever resumed by whoever took it off the
// list, so next and stop are never called concurrently. It is not a
// sync.Pool: a pool drops entries at garbage collection, and a dropped
// coroutine is never stopped.
var freeCoros struct {
	sync.Mutex
	list []*coro
}

// start gives body e's coroutine: an idle one from the free list when
// there is one, else a new one. e.next runs the body until its next
// park and returns that park message; the parkExit message reports
// that the body returned or was killed. e.co.stop unwinds a parked or
// never-started body.
func (e *Env) start(body func(*Env)) {
	freeCoros.Lock()
	var c *coro
	if n := len(freeCoros.list); n > 0 {
		c = freeCoros.list[n-1]
		freeCoros.list[n-1] = nil
		freeCoros.list = freeCoros.list[:n-1]
	}
	freeCoros.Unlock()
	if c == nil {
		c = &coro{}
		c.next, c.stop = iter.Pull(c.loop)
	}
	c.env, c.body = e, body
	e.co, e.next = c, c.next
}

// loop is the coroutine's goroutine: one body per environment served.
// Once stop has been called, yield reports false, so a body unwound by
// stop, and an idle coroutine stopped on the free list, end the loop.
func (c *coro) loop(yield func(parkMsg) bool) {
	c.yield = yield
	for {
		c.run()
		if !yield(parkMsg{kind: parkExit}) {
			return
		}
	}
}

// run runs the current body to its return or its kill. A panic other
// than errKilled ends the coroutine; next re-raises it in the caller of
// Kernel.Run.
func (c *coro) run() {
	e, body := c.env, c.body
	c.env, c.body = nil, nil
	defer func() {
		if r := recover(); r != nil && r != errKilled {
			panic(r)
		}
	}()
	body(e)
}

// recycle puts an idle coroutine on the free list, or stops it when the
// list is full: an iter.Pull coroutine that is never stopped leaks its
// goroutine.
func (c *coro) recycle() {
	freeCoros.Lock()
	kept := len(freeCoros.list) < maxFreeCoros
	if kept {
		freeCoros.list = append(freeCoros.list, c)
	}
	freeCoros.Unlock()
	if !kept {
		c.stop()
	}
}
