package serve

import (
	"context"
	"fmt"
	"runtime"
	"sync/atomic"
)

// PanicError is the error a Future resolves to when the request body
// panicked on a backend executor. The panic is contained inside the work
// unit — it never unwinds into the backend's scheduler — and surfaces to
// the submitter as a value instead.
type PanicError struct {
	// Value is the recovered panic value.
	Value any
	// Stack is the goroutine stack captured at recovery.
	Stack []byte
}

// Error renders the panic value.
func (e *PanicError) Error() string {
	return fmt.Sprintf("serve: request panicked: %v", e.Value)
}

// Future is the result handle returned by a submission: the Table II API
// has join (completion) but no way to return a value from a work unit,
// so the serving layer adds one. A Future resolves exactly once, to a
// value, an application error, or a *PanicError; rejected submissions
// never produce a Future.
//
// A Future lives inside its request's call record, so it costs no
// allocation of its own, and its done channel is made only for a waiter
// that has to block. done is the seal word: nil while unresolved and
// unwatched, &claimedChan while a Done call is making the channel,
// &f.ch once it has, and &closedChan once resolved.
type Future[T any] struct {
	done atomic.Pointer[chan struct{}]
	ch   chan struct{}
	val  T
	err  error
}

var (
	// closedChan is the pre-closed channel every resolved Future hands
	// out; its address is the "resolved" seal.
	closedChan = func() chan struct{} {
		c := make(chan struct{})
		close(c)
		return c
	}()
	// claimedChan's address marks a Future whose channel a Done call is
	// making; it is never used as a channel.
	claimedChan chan struct{}
)

// complete resolves the Future. It must be called exactly once: it
// publishes val and err with the seal and closes a waiter's channel if
// one was made.
func (f *Future[T]) complete(val T, err error) {
	f.val, f.err = val, err
	if w := f.done.Swap(&closedChan); w == &f.ch {
		close(f.ch)
	}
}

// Done returns a channel that is closed once the result is available,
// for use in select loops. The channel is made on the first call before
// resolution; afterwards every call gets the shared closed channel.
func (f *Future[T]) Done() <-chan struct{} {
	for {
		switch w := f.done.Load(); w {
		case nil:
			if !f.done.CompareAndSwap(nil, &claimedChan) {
				continue
			}
			f.ch = make(chan struct{})
			if f.done.CompareAndSwap(&claimedChan, &f.ch) {
				return f.ch
			}
			// complete sealed the Future while the channel was made.
			return closedChan
		case &claimedChan:
			// A concurrent Done is making the channel: a few
			// instructions away.
			runtime.Gosched()
		default:
			return *w
		}
	}
}

// Ready reports, without blocking, whether the result is available.
func (f *Future[T]) Ready() bool { return f.done.Load() == &closedChan }

// Wait blocks until the result is available or ctx is cancelled. On
// cancellation it returns ctx.Err(); the request itself keeps running
// and the Future can be waited on again.
func (f *Future[T]) Wait(ctx context.Context) (T, error) {
	if f.Ready() {
		return f.val, f.err
	}
	select {
	case <-f.Done():
		return f.val, f.err
	case <-ctx.Done():
		var zero T
		return zero, ctx.Err()
	}
}

// MustWait blocks until the result is available and panics on error —
// the examples' shorthand.
func (f *Future[T]) MustWait() T {
	if !f.Ready() {
		<-f.Done()
	}
	if f.err != nil {
		panic(f.err)
	}
	return f.val
}
