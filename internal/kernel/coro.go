//go:build go1.23

package kernel

import "iter"

// start makes body e's coroutine: e.next runs it until its next park
// and returns that park message, or ok == false once the body has
// returned or unwound (its exit); e.stop unwinds a parked or
// never-started body.
func (e *Env) start(body func(*Env)) {
	e.next, e.stop = iter.Pull(func(yield func(parkMsg) bool) {
		defer func() {
			if r := recover(); r != nil && r != errKilled {
				panic(r) // next re-raises it in the caller of Kernel.Run
			}
		}()
		e.yield = yield
		body(e)
	})
}
