package ult

import "sync/atomic"

// Adoption turns the calling goroutine into the *primary ULT* of an
// executor. This mirrors how the C libraries treat main(): in Argobots the
// caller of ABT_init becomes the primary ULT of Execution Stream 0, in
// MassiveThreads main runs as a ULT of worker 0 (which is what makes the
// work-first creation policy act on the main flow, §VI), and in Converse
// the main Processor runs the user code. Once adopted, the caller can
// Yield/YieldTo like any other ULT and the executor's scheduling loop runs
// whenever the caller is parked.

// Adopt converts the calling goroutine into the primary ULT of executor e
// and returns its handle. The executor's scheduling loop must begin with
// AwaitHandback, which blocks until the primary (or a later dispatch)
// hands control back.
//
// The returned ULT is pinned: runtimes never migrate the main flow unless
// they explicitly steal it (MassiveThreads work-first does; it then uses
// the normal dispatch path).
func Adopt(e *Executor) *ULT {
	p := &ULT{
		id: nextID(),
		// The adopted goroutine IS the body: every dispatch after a
		// yield hands the token to it over resume, never through a
		// coroutine.
		resume:     make(chan struct{}),
		migratable: true, // work-first runtimes move the main flow
		label:      "primary",
	}
	p.status.Store(int32(StatusRunning))
	p.owner = e
	return p
}

// AwaitHandback blocks until the adopted primary running on e hands
// control back and settles the hand-off exactly like dispatch. The
// executor loop of an adopted executor starts with this call:
// conceptually the primary ULT was "dispatched" by the runtime's
// initialization.
func (e *Executor) AwaitHandback() (*ULT, DispatchResult) {
	h := <-e.handback
	return h.t, e.settle(h.t, h.st)
}

// Detach ends the adopted primary ULT's participation in the runtime: it
// marks the primary Done and returns control to the executor loop one last
// time, without parking the caller. The caller's goroutine continues as a
// plain goroutine; the executor loop observes a completed unit and, once
// its idler is closed, returns at its next empty poll. Must be called
// from the adopted goroutine while it holds the control token (i.e.,
// while it is Running).
//
// An adopted descriptor has no coroutine and never enters the reuse
// pool: Detach publishes completion with finish but leaves the release
// protocol untouched.
func (t *ULT) Detach() {
	if t.Status() != StatusRunning {
		panic("ult: Detach on a ULT that is not running")
	}
	t.finish()
	t.owner.handback <- handoff{t: t, st: StatusDone}
}

// MainPark builds the park/unpark pair an adopted primary waits on when
// it has nothing to do: park suspends the primary, so its executor serves
// other units (or parks itself), and unpark — callable from any goroutine
// — resumes it through requeue. An unpark that lands before the park is
// kept as a pending token that the next park consumes without
// suspending, and unparks between two parks collapse into one; callers
// re-check their wait condition after every park. park must only be
// called from the primary's own goroutine while it is Running.
func MainPark(primary *ULT, requeue func(*ULT)) (park, unpark func()) {
	const (
		running = iota // no token pending
		pending        // an unpark arrived while the primary was running
		parked         // the primary is suspending or suspended
	)
	var state atomic.Int32
	park = func() {
		for {
			if state.CompareAndSwap(pending, running) {
				return
			}
			if state.CompareAndSwap(running, parked) {
				primary.Suspend()
				return
			}
		}
	}
	unpark = func() {
		for {
			switch state.Load() {
			case pending:
				return
			case running:
				if state.CompareAndSwap(running, pending) {
					return
				}
			case parked:
				if state.CompareAndSwap(parked, running) {
					// Spins out the window between the primary's CAS
					// and the Blocked store inside its Suspend.
					ResumeAndRequeue(primary, requeue)
					return
				}
			}
		}
	}
	return park, unpark
}
