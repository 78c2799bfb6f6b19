package serve

import (
	"context"
	"runtime"
	"runtime/debug"
	"time"

	"repro/internal/core"
	"repro/internal/trace"
	"repro/internal/ult"
)

// room is the shard's spare executor occupancy under MaxInFlight. Work
// units parked on the async-I/O reactor hold no executor, so they are
// discounted: the shard keeps admitting while they wait.
func (sh *shard) room() int {
	return sh.s.opts.MaxInFlight - int(sh.inflight.Load()-sh.ioparked.Load())
}

// kick wakes the shard's pump if it is parked or about to park. Every
// event that can give a parked pump something to do calls it after
// publishing the event: a push, a completion that frees room under a
// queue or ends the last in-flight unit, an I/O park that frees room,
// a steal-worthy backlog on a peer, Close, the drain deadline and the
// last straggling producer. With the pump awake it is one atomic load;
// the flag's CAS elects one kicker per park, so every park is paired
// with exactly one unpark. It reports whether it woke the pump.
func (sh *shard) kick() bool {
	if sh.sleep.Load() && sh.sleep.CompareAndSwap(true, false) {
		sh.unpark()
		return true
	}
	return false
}

// wait is the pump's one park step, shared by serving and shutdown: arm
// the sleep flag, re-check the wake condition, and park only if it still
// fails. Every waker publishes its event before it kicks and the pump
// arms before it re-checks (all atomics), so either the re-check sees
// the event or the kick sees the flag. A kick that won the flag after a
// successful re-check has already issued its unpark; the park that
// follows consumes that token so the next wait does not return early.
func (sh *shard) wait(park func(), ready func() bool) {
	sh.sleep.Store(true)
	if !ready() {
		sh.m.pumpParks.Add(1)
	} else if sh.sleep.CompareAndSwap(true, false) {
		return
	}
	park()
}

// pump is one shard's backend main thread: it owns that shard's runtime
// end to end and is the only goroutine that touches it (stealing moves
// queued requests, never runtime access).
func (sh *shard) pump(ready chan<- error) {
	s := sh.s
	rt, err := core.Open(core.Config{
		Backend:   s.opts.Backend,
		Executors: s.opts.Threads,
		Scheduler: s.opts.Scheduler,
	})
	if err != nil {
		ready <- err
		sh.ring.Close()
		close(sh.done)
		return
	}
	park, unpark := rt.MainPark()
	sh.unpark = unpark
	sh.rt.Store(rt)
	ready <- nil
	// A fresh pump has no traffic yet, so it starts with the budget
	// spent: the spin is for pipelined pushes, not for competing with
	// the boot that is still starting its peers.
	spins := ult.SpinBudget()
	for {
		// Launch each queued request as it is taken, while MaxInFlight
		// leaves room. The cap leaves the excess queued, which is what
		// lets the bounded queue fill and reject. A shed request counts
		// as work taken.
		took := false
		for sh.room() > 0 {
			r := sh.take()
			if r == nil {
				break
			}
			sh.launch(rt, r)
			took = true
		}
		idle := !took && spins >= ult.SpinBudget()
		if idle && s.opts.Steal {
			// About to park with nothing of its own to launch: be a
			// thief before being idle. Not sooner: a pump that steals on
			// every empty poll races each peer's own pump for requests
			// it was about to launch, moving them across shards for
			// nothing.
			took = sh.steal(rt)
		}
		select {
		case <-s.quit:
			sh.shutdown(rt, park)
			return
		default:
		}
		if took {
			spins = 0
			continue
		}
		// Nothing to launch: the executors' idle policy, applied to the
		// master. Under the spin budget the pump polls again after a
		// yield, so pipelined pushes find it awake. With work in flight
		// the yield is the runtime's — on the cooperative masters
		// (Converse's processor 0, the adopted primaries of Argobots and
		// MassiveThreads) that is what runs local work; with nothing in
		// flight there is no local work and it is a runtime.Gosched.
		// With the budget spent it parks until a kick: new traffic, a
		// completion or I/O park that frees room under a queue, a
		// peer's steal-worthy backlog, or shutdown.
		if !idle {
			spins++
			if sh.inflight.Load() > 0 {
				rt.Yield()
			} else {
				runtime.Gosched()
			}
			continue
		}
		// The budget stays spent across the park, as for a fresh pump:
		// a wake that brings nothing of its own — a thief kick — steals
		// at once instead of first polling for the budget.
		sh.wait(park, sh.hasWork)
	}
}

// hasWork is the serving pump's wake condition: shutdown, or room under
// MaxInFlight and something to fill it — its own queued work or, with
// stealing on, a peer's unkeyed backlog.
func (sh *shard) hasWork() bool {
	s := sh.s
	if s.closed.Load() {
		return true
	}
	if sh.room() <= 0 {
		return false
	}
	if sh.queued.Load() > 0 {
		return true
	}
	if !s.opts.Steal {
		return false
	}
	v, _ := sh.victim()
	return v != nil
}

// victim picks the steal victim: the shard other than sh with the
// deepest unkeyed backlog, and that depth. It is nil when no peer has
// one.
func (sh *shard) victim() (*shard, int) {
	var victim *shard
	best := 0
	for _, v := range sh.s.all {
		if n := len(v.unkeyed); v != sh && n > best {
			victim, best = v, n
		}
	}
	return victim, best
}

// steal is the idle-shard steal: take up to half of the deepest peer's
// unkeyed backlog, bounded by this shard's spare executor capacity, and
// launch it here. Only unkeyed requests are reachable — the keyed
// channel has no consumer but its owner — so affinity survives by
// construction. It reports whether it took anything.
func (sh *shard) steal(rt *core.Runtime) bool {
	room := sh.room()
	if room <= 0 {
		return false
	}
	victim, best := sh.victim()
	if victim == nil {
		return false
	}
	n := min((best+1)/2, room)
	for i := 0; i < n; i++ {
		select {
		case r := <-victim.unkeyed:
			victim.pop()
			r.shard = sh
			sh.m.steals.Add(1)
			sh.ring.Instant(trace.KindSteal, r.id)
			sh.launch(rt, r)
		default:
			return i > 0
		}
	}
	return true
}

// launch turns one accepted request into a backend work unit — or
// sheds it, exactly once, if its budget is already spent: a submission
// context cancelled while queued or a deadline that passed fails the
// Future (ctx.Err() / ErrExpired) without occupying an executor, and
// counts as Expired in the drain identity
// (Submitted == Completed + Rejected + Expired).
func (sh *shard) launch(rt *core.Runtime, r *request) {
	if r.ctx != nil {
		if err := r.ctx.Err(); err != nil {
			sh.m.expired.Add(1)
			sh.ring.Instant(trace.KindCancel, r.id)
			r.w.fail(err)
			return
		}
	}
	if !r.deadline.IsZero() && !time.Now().Before(r.deadline) {
		sh.m.expired.Add(1)
		sh.ring.Instant(trace.KindCancel, r.id)
		r.w.fail(ErrExpired)
		return
	}
	sh.inflight.Add(1)
	rt.Spawn(r.w, r.ult)
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
// Future resolved: inflight reaching zero means no unit is running. It
// kicks only when the completion can matter to a parked pump: the last
// in-flight unit (a drain waits for it) or room freed under a non-empty
// queue.
func (sh *shard) finish() {
	if n := sh.inflight.Add(-1); n == 0 || sh.queued.Load() > 0 && sh.room() > 0 {
		sh.kick()
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
// the accounting is exact, not sampled. A park that frees room under a
// non-empty queue kicks the pump, which may be parked at the cap. A
// single pointer, so converting it to a core.Ctx allocates nothing.
type parkRequestCtx struct {
	*requestCtx
}

func (c parkRequestCtx) IOPark() (func(), func()) {
	park, unpark := c.Ctx.(ioParkable).IOPark()
	sh := c.r.shard
	counted := func() {
		sh.ioparked.Add(1)
		if sh.queued.Load() > 0 && sh.room() > 0 {
			sh.kick()
		}
		start := sh.ring.Now()
		park()
		sh.ring.Interval(trace.KindPark, 0, start)
		sh.ioparked.Add(-1)
	}
	return counted, unpark
}
