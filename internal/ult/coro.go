package ult

import "iter"

// coro is a pooled runtime coroutine: the private stack a ULT body runs
// on. The executor resumes it with next, and the body hands control back
// by yielding its disposition; both are direct coroutine switches
// (iter.Pull), so a dispatch costs neither a channel operation nor a trip
// through the Go scheduler's run queues. Across incarnations the
// coroutine loops: run the bound unit's body, publish completion, yield
// StatusDone, and on the next resume start the body of whatever unit is
// bound by then.
type coro struct {
	// t is the unit the coroutine runs on its next fresh start; set by
	// switchIn before the first resume of an incarnation.
	t     *ULT
	next  func() (Status, bool)
	stop  func()
	yield func(Status) bool
}

// maxIdleCoros bounds what an idle process retains after a burst:
// coroutines retired beyond it are stopped instead of pooled.
const maxIdleCoros = 1024

// coroIdle is the central pool of coroutines parked in their terminal
// yield, waiting for their next incarnation.
var coroIdle = make(chan *coro, maxIdleCoros)

// getCoro takes an idle coroutine, or creates one.
func getCoro() *coro {
	select {
	case c := <-coroIdle:
		return c
	default:
	}
	c := new(coro)
	c.next, c.stop = iter.Pull(c.run)
	return c
}

// putCoro returns a coroutine parked in its terminal yield to the idle
// pool; when the pool is full the coroutine is stopped, which ends its
// loop and its goroutine.
func putCoro(c *coro) {
	c.t = nil
	select {
	case coroIdle <- c:
	default:
		c.stop()
	}
}

// run is the coroutine body: one iteration per incarnation.
func (c *coro) run(yield func(Status) bool) {
	c.yield = yield
	for {
		t := c.t
		t.runBody()
		t.finish()
		if !yield(StatusDone) {
			return
		}
	}
}

// switchIn transfers e's control token to t and returns the disposition
// t hands it back with. The first dispatch of an incarnation binds an
// idle coroutine; an adopted primary, which has no coroutine, is resumed
// over its channel and answers on e.handback.
func (t *ULT) switchIn(e *Executor) Status {
	if t.resume != nil {
		t.resume <- struct{}{}
		h := <-e.handback
		if h.t != t {
			// The hand-off protocol guarantees the token returns from the
			// dispatched ULT; anything else is substrate corruption.
			panic("ult: hand-off protocol violation")
		}
		return h.st
	}
	if t.co == nil {
		t.co = getCoro()
		t.co.t = t
	}
	st, _ := t.co.next()
	return st
}

// switchOut hands the control token back to whoever resumed t, with the
// disposition st, and returns when t is dispatched again.
func (t *ULT) switchOut(st Status) {
	if t.resume != nil {
		t.owner.handback <- handoff{t: t, st: st}
		<-t.resume
		return
	}
	t.co.yield(st)
}

// retire ends a completed incarnation's hold on its coroutine: the
// coroutine goes back to the idle pool and the terminal release party
// lands. The coroutine is read and cleared before the release, which may
// recycle the descriptor. Adopted primaries have no coroutine and no
// release protocol.
func (t *ULT) retire() {
	co := t.co
	if co == nil {
		return
	}
	t.co = nil
	t.release()
	putCoro(co)
}
