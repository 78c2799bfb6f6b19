package aio

import (
	"context"
	"io"
	"runtime"
	"time"
)

// Parker couples a blocking operation to the work unit that issued it.
//
// Park suspends the calling work unit until Unpark; it must be called by
// the unit itself, exactly once per issued operation, immediately after
// the operation is registered. Unpark resumes the unit into its home
// pool; the operation's completer calls it exactly once, after the
// results are published. Unpark may be called from any goroutine and
// may spin briefly until the unit has actually parked (the
// ResumeAndRequeue contract), which is why the park must be
// unconditional: checking for completion first and skipping the park
// would leave the completer spinning against a unit that never
// suspends.
type Parker interface {
	Park()
	Unpark()
}

// pollParker is the degradation for backends that cannot foreign-resume:
// Park yields the work unit once and the waiter loops on the completion
// word. Unpark is never called (ops carrying a pollParker complete
// without one).
type pollParker struct{ yield func() }

func (p pollParker) Park()   { p.yield() }
func (p pollParker) Unpark() {}

// PollParker adapts a yield function into the polling degradation: the
// waiting unit stays scheduled and yields between completion checks
// instead of parking. Use it where the backend denies resuming a unit
// from outside its scheduler.
func PollParker(yield func()) Parker { return pollParker{yield: yield} }

// wait blocks the issuing work unit until o completes. Parking mode
// parks exactly once — the completer's completion store happens-before
// the Unpark that makes Park return, so the check afterwards is a safety
// net, not a spin. Poll mode (nil parker) yields between checks.
func wait(o *op, g uint64, yield func()) {
	if o.parker != nil {
		o.parker.Park()
		for !o.doneAt(g) {
			runtime.Gosched()
		}
		return
	}
	for !o.doneAt(g) {
		if yield != nil {
			yield()
		} else {
			runtime.Gosched()
		}
	}
}

// splitParker maps the public Parker to the op's parking field and the
// poll-mode yield: a PollParker never receives Unpark and its yield runs
// in the waiter's loop; a nil Parker polls with runtime.Gosched (callers
// outside any runtime, e.g. tests or the main thread).
func splitParker(p Parker) (parked Parker, yield func()) {
	switch v := p.(type) {
	case nil:
		return nil, nil
	case pollParker:
		return nil, v.yield
	default:
		return p, nil
	}
}

// Sleep blocks the calling work unit for at least d without occupying
// its executor: the unit parks and the reactor's timer heap resumes it.
func Sleep(p Parker, d time.Duration) {
	if d <= 0 {
		return
	}
	parker, yield := splitParker(p)
	o := acquire(parker)
	g := o.gen
	Default().addTimer(o, time.Now().Add(d))
	wait(o, g, yield)
	release(o)
}

// Deadline blocks the calling work unit until ctx is cancelled or its
// deadline passes, and returns ctx.Err(). A context that can never be
// done (Done() == nil) returns nil immediately rather than parking
// forever.
func Deadline(p Parker, ctx context.Context) error {
	if ctx.Done() == nil {
		return nil
	}
	parker, yield := splitParker(p)
	o := acquire(parker)
	g := o.gen
	stop := context.AfterFunc(ctx, func() {
		o.complete(0, ctx.Err())
	})
	defer stop()
	wait(o, g, yield)
	err := o.err
	release(o)
	return err
}

// Await blocks the calling work unit until done is closed (a Future's
// Done channel, typically). The wait costs one short-lived watcher
// goroutine in parking mode; poll mode selects inline.
func Await(p Parker, done <-chan struct{}) {
	select {
	case <-done:
		return
	default:
	}
	parker, yield := splitParker(p)
	if parker == nil {
		for {
			select {
			case <-done:
				return
			default:
				if yield != nil {
					yield()
				} else {
					runtime.Gosched()
				}
			}
		}
	}
	o := acquire(parker)
	g := o.gen
	go func() {
		<-done
		o.complete(0, nil)
	}()
	wait(o, g, nil)
	release(o)
}

// deadlineReader can be attempted in bounded quanta: with a read
// deadline a short interval out, Read returns os.ErrDeadlineExceeded
// after at most that interval instead of blocking indefinitely.
type deadlineReader interface {
	io.Reader
	SetReadDeadline(t time.Time) error
}

// deadlineWriter is the write-side twin.
type deadlineWriter interface {
	io.Writer
	SetWriteDeadline(t time.Time) error
}

// ioQuantum bounds each attempt a completer goroutine makes: long enough
// that a healthy descriptor almost always completes in one attempt,
// short enough that the loop re-checks the world at a human timescale.
const ioQuantum = 50 * time.Millisecond

// runAttempts drives o to completion from its completer goroutine. Each
// attempt is bounded by ioQuantum, so the goroutine revisits the loop
// instead of blocking forever in a single call.
func runAttempts(o *op) {
	for {
		done, n, err := o.attempt(ioQuantum)
		if done {
			o.complete(n, err)
			return
		}
	}
}

// Read reads from r into buf without occupying the calling unit's
// executor. Deadline-capable readers (net.Conn, os pipes) run on a
// completer goroutine attempting in deadline quanta; anything else is
// offloaded to a one-shot blocking goroutine. Like io.Reader, it returns
// after one successful read, which may be short.
func Read(p Parker, r io.Reader, buf []byte) (int, error) {
	parker, yield := splitParker(p)
	o := acquire(parker)
	g := o.gen
	if dr, ok := r.(deadlineReader); ok {
		o.attempt = func(budget time.Duration) (bool, int, error) {
			dr.SetReadDeadline(time.Now().Add(budget))
			n, err := dr.Read(buf)
			if n == 0 && isDeadline(err) {
				return false, 0, nil
			}
			dr.SetReadDeadline(time.Time{})
			if n > 0 && isDeadline(err) {
				err = nil
			}
			return true, n, err
		}
		go runAttempts(o)
	} else {
		go func() {
			n, err := r.Read(buf)
			o.complete(n, err)
		}()
	}
	wait(o, g, yield)
	n, err := o.n, o.err
	release(o)
	return n, err
}

// Write writes buf to w without occupying the calling unit's executor;
// it loops attempts until the whole buffer is written or an error
// surfaces, mirroring io.Writer's contract.
func Write(p Parker, w io.Writer, buf []byte) (int, error) {
	parker, yield := splitParker(p)
	o := acquire(parker)
	g := o.gen
	if dw, ok := w.(deadlineWriter); ok {
		written := 0
		o.attempt = func(budget time.Duration) (bool, int, error) {
			dw.SetWriteDeadline(time.Now().Add(budget))
			n, err := dw.Write(buf[written:])
			written += n
			if written < len(buf) && isDeadline(err) {
				return false, 0, nil
			}
			dw.SetWriteDeadline(time.Time{})
			if written == len(buf) && isDeadline(err) {
				err = nil
			}
			return true, written, err
		}
		go runAttempts(o)
	} else {
		go func() {
			n, err := w.Write(buf)
			o.complete(n, err)
		}()
	}
	wait(o, g, yield)
	n, err := o.n, o.err
	release(o)
	return n, err
}

// isDeadline reports whether err is the deadline-exceeded sentinel (in
// either its os or net.Error clothing).
func isDeadline(err error) bool {
	if err == nil {
		return false
	}
	type timeouter interface{ Timeout() bool }
	if t, ok := err.(timeouter); ok && t.Timeout() {
		return true
	}
	return false
}
