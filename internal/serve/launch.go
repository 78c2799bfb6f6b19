package serve

import (
	"context"
	"runtime/debug"
	"time"

	"repro/internal/core"
	"repro/internal/trace"
)

// claim takes one of the shard's executor slots: a CAS increment of
// inflight while inflight minus ioparked is below MaxInFlight. Work
// units parked on the async-I/O reactor hold no executor, so they are
// discounted: the shard keeps launching while they wait. It reports
// false with the shard at its cap.
func (sh *shard) claim() bool {
	limit := int64(sh.s.opts.MaxInFlight)
	for {
		n := sh.inflight.Load()
		if n-sh.ioparked.Load() >= limit {
			return false
		}
		if sh.inflight.CompareAndSwap(n, n+1) {
			return true
		}
	}
}

// backlog reports whether anything this shard may launch is queued: its
// own keyed or unkeyed requests or, with stealing on, a peer's unkeyed
// ones. It reads channel lengths, so it counts sent requests only, not
// admitted ones still on their way in; each of those is re-checked by
// its own producer once sent.
func (sh *shard) backlog() bool {
	if len(sh.keyed)+len(sh.unkeyed) > 0 {
		return true
	}
	return sh.s.opts.Steal && sh.victim() != nil
}

// pull launches queued requests into the shard's free executor slots,
// one claimed slot at a time, until nothing is left to launch or the
// shard is at its cap. It is run after every event that can leave a
// request queued beside a free slot: a producer's send (push), a
// completion (finish) and an I/O park. Each publishes its half — a send,
// or the slot it freed — before it reads the other's, so whichever of a
// racing producer and event comes second sees the first: no request
// stays queued while its shard (with stealing, any shard) has room. A
// claimed slot that finds nothing is given back and the queues are
// looked at again, since a producer that queued meanwhile saw the slot
// taken. Past the drain deadline nothing is launched: the keepers sweep
// the queues instead. With nothing queued it costs a few loads.
func (sh *shard) pull() {
	for sh.backlog() && !sh.s.expired.Load() && sh.claim() {
		if r := sh.next(); r != nil {
			sh.launch(r)
		} else {
			sh.inflight.Add(-1)
		}
	}
}

// next dequeues the request a freed slot runs: the shard's own (take),
// else, with stealing on, one from the peer with the deepest unkeyed
// backlog. Only unkeyed requests are reachable from a peer — the keyed
// channel has no consumer but its owner — so affinity survives by
// construction. A stolen request becomes this shard's to run and
// count.
func (sh *shard) next() *request {
	if r := sh.take(); r != nil || !sh.s.opts.Steal {
		return r
	}
	for {
		v := sh.victim()
		if v == nil {
			return nil
		}
		select {
		case r := <-v.unkeyed:
			v.pop()
			sh.stole(r)
			return r
		default:
			// Another consumer got there first: look again.
		}
	}
}

// stole makes r, accepted by another shard, this shard's to run: it
// runs, completes and counts here, and counts as a steal.
func (sh *shard) stole(r *request) {
	r.shard = sh
	sh.m.steals.Add(1)
	sh.ring.Instant(trace.KindSteal, r.id)
}

// victim picks the steal victim: the shard other than sh with the
// deepest unkeyed backlog, or nil when no peer has one.
func (sh *shard) victim() *shard {
	var victim *shard
	best := 0
	for _, v := range sh.s.all {
		if n := len(v.unkeyed); v != sh && n > best {
			victim, best = v, n
		}
	}
	return victim
}

// launch spends one claimed executor slot on r: it turns the request
// into a backend work unit (core.Runtime.Spawn, safe from any
// goroutine) — or sheds it, exactly once, if its budget is already
// spent. A submission context cancelled while queued or a deadline that
// passed fails the Future (ctx.Err() / ErrExpired) without occupying an
// executor, gives the slot back, and counts as Expired in the drain
// identity (Submitted == Completed + Rejected + Expired). It reports
// whether the request was launched.
func (sh *shard) launch(r *request) bool {
	var err error
	if r.ctx != nil {
		err = r.ctx.Err()
	}
	if err == nil && !r.deadline.IsZero() && !time.Now().Before(r.deadline) {
		err = ErrExpired
	}
	if err != nil {
		sh.m.expired.Add(1)
		sh.ring.Instant(trace.KindCancel, r.id)
		sh.inflight.Add(-1)
		r.w.fail(err)
		return false
	}
	sh.rt.Spawn(r.w, r.ult)
	return true
}

// Run implements core.Work: run the body on the backend work unit,
// record the completion, resolve the Future, and release the shard's
// executor slot, in that order — a caller whose Wait returned sees its
// request in Metrics. A panic is contained here and resolves the Future
// with a *PanicError.
func (c *call[T]) Run(cx core.Ctx) {
	r := &c.request
	sh := r.shard
	var v T
	var err error
	defer func() {
		if p := recover(); p != nil {
			sh.m.panicked.Add(1)
			err = &PanicError{Value: p, Stack: debug.Stack()}
		}
		sh.record(r)
		c.complete(v, err)
		sh.finish()
	}()
	if c.ufn != nil {
		r.hctx = requestCtx{Ctx: cx, r: r}
		var hc core.Ctx = &r.hctx
		if _, ok := cx.(ioParkable); ok {
			hc = parkRequestCtx{&r.hctx}
		}
		v, err = c.ufn(hc)
	} else {
		v, err = c.fn()
	}
	if err != nil {
		sh.m.failed.Add(1)
	}
}

// record counts one completed request and its latency and trace, before
// its Future resolves. The trace emission costs no extra clock read —
// the latency measurement's endpoints are reused (EmitAt) — and is
// sampled (Options.TraceSample) so the always-on recorder charges the
// hot path one mask compare per untraced request. Slow requests bypass
// the sampler: the window always holds the outliers a post-incident dump
// is taken for.
func (sh *shard) record(r *request) {
	lat := time.Since(r.enq)
	sh.m.observe(lat)
	if r.stopCancel != nil {
		// Release the deadline timer armed by cancelSignal. Same
		// goroutine that built it (the handler's work unit), so the
		// read is ordered after any Do.
		r.stopCancel()
	}
	if r.id&sh.s.traceMask == 0 || lat >= slowTraceCutoff {
		sh.ring.EmitAt(trace.KindUser, r.id, r.enq, lat)
	}
}

// finish releases one completed request's executor slot, after its
// Future resolved, and hands the slot on to queued work. After Close,
// the completion that leaves the shard with nothing in flight wakes the
// keepers: a drain waits for it.
func (sh *shard) finish() {
	sh.inflight.Add(-1)
	sh.pull()
	if sh.inflight.Load() == 0 && sh.s.closed.Load() {
		sh.s.wakeKeepers()
	}
}

// cancelSignal lazily builds the channel handlers and aio waits watch:
// the submission context's Done when there is no deadline, a
// deadline-armed derivation of it otherwise. Built at most once, on
// the handler's own goroutine; finish releases the timer.
func (r *request) cancelSignal() <-chan struct{} {
	r.cancelOnce.Do(func() {
		base := r.ctx
		if base == nil {
			base = context.Background()
		}
		if r.deadline.IsZero() {
			r.cancelCh = base.Done()
			return
		}
		dctx, stop := context.WithDeadline(base, r.deadline)
		r.cancelCh = dctx.Done()
		r.stopCancel = stop
	})
	return r.cancelCh
}

// ioParkable mirrors the async-I/O layer's park hook: a backend context
// implementing it can suspend its work unit off the executor and be
// resumed from the reactor.
type ioParkable interface {
	IOPark() (park func(), unpark func())
}

// requestCtx wraps every handler's backend context with the request's
// cooperative cancellation signal: CancelCh (core.Canceler) is what
// lets a running handler — and the aio waits it issues — observe that
// its deadline passed or its client went away. The signal is built
// lazily, so handlers that never look pay nothing. It lives in its
// request and is handed out by pointer.
type requestCtx struct {
	core.Ctx
	r *request
}

func (c *requestCtx) CancelCh() <-chan struct{} { return c.r.cancelSignal() }

// parkRequestCtx is requestCtx on AsyncIO backends, adding the
// park-counting IOPark so the shard can tell which in-flight work
// units are parked on the reactor. Struct embedding (not interface
// embedding) is load-bearing: embedding the Ctx interface would not
// promote the concrete backend value's IOPark method, so the wrapper
// re-mints it here. The park half of every minted pair brackets the
// suspension with the ioparked counter — both adjustments run on the
// work unit's own goroutine (before suspending, after resuming), so
// the accounting is exact, not sampled. A park frees an executor slot,
// so it pulls queued work into it. A single pointer, so
// converting it to a core.Ctx allocates nothing.
type parkRequestCtx struct {
	*requestCtx
}

func (c parkRequestCtx) IOPark() (func(), func()) {
	park, unpark := c.Ctx.(ioParkable).IOPark()
	sh := c.r.shard
	counted := func() {
		sh.ioparked.Add(1)
		sh.pull()
		start := sh.ring.Now()
		park()
		sh.ring.Interval(trace.KindPark, 0, start)
		sh.ioparked.Add(-1)
	}
	return counted, unpark
}
