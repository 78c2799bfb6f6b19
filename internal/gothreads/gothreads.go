// Package gothreads models the Go runtime as the paper describes it
// (§III-F): a fixed set of threads all serving one global shared run
// queue of goroutines, joined through channel communication, with no
// yield operation exposed to the programmer (Table I).
//
// The model is implemented with the same substrate as the other runtimes
// rather than with native goroutines so its defining costs are measurable
// on equal footing: every creation and every dispatch targets the single
// shared queue ("this global, unique queue needs a synchronization
// mechanism that may impact performance when an elevated number of
// threads are used"), while joins use Go's strength — the out-of-order
// channel, which Figure 3 shows to be among the fastest join mechanisms.
// The shared queue is now the lock-free MPMC FIFO; the synchronization
// cost the paper predicts shows up as CAS failures on the shared head
// (QueueStats().Contended) instead of mutex convoys, and still grows with
// the thread count. A separate ablation benchmark
// (BenchmarkAblationRawGoroutines) compares this model against the real
// Go scheduler.
package gothreads

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/queue"
	"repro/internal/trace"
	"repro/internal/ult"
)

// Runtime is an initialized Go-model instance.
type Runtime struct {
	threads  []*thread
	shared   *queue.Shared
	idle     ult.Idler   // the global queue's wake domain
	done     chan uint64 // out-of-order completion channel
	wg       sync.WaitGroup
	finished atomic.Bool
}

// thread is one scheduler thread serving the global queue.
type thread struct {
	rt   *Runtime
	exec *ult.Executor
}

// G is a handle on a goroutine in the model. It carries the body and the
// per-run context so spawning needs no per-create closure (the handle is
// the ult.NewWith argument), plus the descriptor generation so Done stays
// answerable after the join released the descriptor to the reuse pool.
//
// Join discipline: whichever joiner wins the handle's claim owns the
// descriptor — it may block on its channel or park in its waiter slot,
// and it frees the descriptor once synchronized (its pending free is
// what keeps the descriptor out of the reuse pool meanwhile). Every
// other joiner polls the generation-counted Done, which touches nothing
// recyclable, so concurrent joins of one handle are safe. Notifying
// goroutines (GoNotify) are joined through the completion channel; their
// completion hook takes the claim and frees, unless a joiner already
// holds it.
type G struct {
	u      *ult.ULT
	id     uint64
	gen    uint64
	rt     *Runtime
	fn     func(*Context)
	notify bool
	// claim elects the one joiner (or the self-free hook) allowed to
	// touch the descriptor and obliged to free it; freed records that
	// the free happened.
	claim    atomic.Bool
	freed    atomic.Bool
	selfFree ult.DoneWaiter
	ctx      Context
}

// gBody is the closure-free goroutine body.
func gBody(self *ult.ULT, arg any) {
	g := arg.(*G)
	if g.notify {
		// Deferred so a panicking body still notifies its joiners.
		defer func() { g.rt.done <- g.id }()
	}
	g.ctx = Context{rt: g.rt, self: self}
	g.fn(&g.ctx)
}

// free releases the descriptor. Only the claim winner calls it, after
// observing completion. The body closure is dropped too: handles may be
// retained after the join (for Done/DoneChan), and must not pin what the
// body captured.
func (g *G) free() {
	if g.freed.CompareAndSwap(false, true) {
		g.fn = nil
		_ = g.u.Free()
	}
}

// Done reports whether the goroutine completed. It reads the
// generation-counted completion word, so the answer stays correct after
// the descriptor was freed and recycled.
func (g *G) Done() bool { return g.freed.Load() || g.u.DoneAt(g.gen) }

// DoneChan returns the goroutine's completion channel (closed when the
// body returns), mirroring the per-join channel idiom. After the handle
// was joined (and the descriptor freed) it answers with the shared
// pre-closed channel.
func (g *G) DoneChan() <-chan struct{} {
	ch := g.u.DoneChan()
	// Re-check freed AFTER touching the descriptor: freed is set before
	// the descriptor can recycle, so observing it still false here
	// proves ch came from our own incarnation (whose channel closes at
	// its finish regardless of any later recycling). Observing true
	// means ch may belong to the next incarnation — discard it.
	if g.freed.Load() {
		return ult.Closed()
	}
	return ch
}

// Context is passed to goroutine bodies. Deliberately minimal: the model
// exposes no yield (Table I row "Yield": absent for Go), only the ability
// to spawn further goroutines and to block on channels.
type Context struct {
	rt   *Runtime
	self *ult.ULT
}

// Init starts nthreads scheduler threads sharing one global queue
// (GOMAXPROCS=nthreads in the paper's runs). It panics if nthreads < 1.
func Init(nthreads int) *Runtime {
	if nthreads < 1 {
		panic(fmt.Sprintf("gothreads: nthreads = %d, need >= 1", nthreads))
	}
	rt := &Runtime{
		shared: queue.NewShared(256),
		done:   make(chan uint64, 1024),
	}
	for i := 0; i < nthreads; i++ {
		th := &thread{rt: rt, exec: ult.NewExecutor(i)}
		rt.threads = append(rt.threads, th)
		rt.wg.Add(1)
		go th.loop()
	}
	return rt
}

// NumThreads reports the scheduler thread count.
func (rt *Runtime) NumThreads() int { return len(rt.threads) }

// QueueStats exposes the global queue's counters; its Contended count is
// the paper's predicted bottleneck.
func (rt *Runtime) QueueStats() *queue.Stats { return rt.shared.Stats() }

// Go spawns a goroutine: the body rides the handle into a pooled ULT
// descriptor and is pushed to the single global queue ("go function" in
// Table II). Steady-state spawning allocates only the handle.
func (rt *Runtime) Go(fn func(*Context)) *G {
	return rt.spawn(fn, false)
}

// GoNotify spawns a goroutine whose completion is additionally announced
// on the runtime's shared completion channel — the out-of-order channel
// join of §III-F ("channel" in Table II): the master performs N receives
// to join N goroutines, in whatever order they finish.
func (rt *Runtime) GoNotify(fn func(*Context)) *G {
	return rt.spawn(fn, true)
}

func (rt *Runtime) spawn(fn func(*Context), notify bool) *G {
	g := &G{rt: rt, fn: fn, notify: notify}
	g.u = ult.NewWith(gBody, g)
	g.id = g.u.ID()
	g.gen = g.u.Gen()
	if notify {
		// Channel-joined goroutines have no handle join to free them:
		// the completion hook takes the claim and recycles the
		// descriptor — unless a handle joiner beat it to the claim, in
		// which case that joiner frees. (The hook occupying the park
		// slot also means notify goroutines are park-joined never;
		// handle joins on them fall back to the watcher.)
		g.selfFree.Fn = func(*ult.Executor) {
			if g.claim.CompareAndSwap(false, true) {
				g.free()
			}
		}
		g.u.SetWaiter(&g.selfFree)
	}
	ult.MarkReady(g.u)
	rt.push(g.u)
	return g
}

// push inserts a ready unit into the global queue and wakes the scheduler
// threads parked on it. Every insertion goes through here or GoBulk.
func (rt *Runtime) push(u ult.Unit) {
	rt.shared.Push(u)
	rt.idle.Wake()
}

// GoBulk spawns one goroutine per body with a single multi-ticket
// insertion into the global queue: the shared head/tail synchronization
// the paper flags as the model's bottleneck is paid once per batch
// instead of once per goroutine.
func (rt *Runtime) GoBulk(fns []func(*Context)) []*G {
	gs := make([]*G, len(fns))
	units := make([]ult.Unit, len(fns))
	for i, fn := range fns {
		g := &G{rt: rt, fn: fn}
		g.u = ult.NewWith(gBody, g)
		g.id = g.u.ID()
		g.gen = g.u.Gen()
		ult.MarkReady(g.u)
		gs[i] = g
		units[i] = g.u
	}
	rt.shared.PushBatch(units)
	rt.idle.Wake()
	return gs
}

// Recv receives one completion notification, blocking until some
// goroutine spawned with GoNotify finishes.
func (rt *Runtime) Recv() uint64 { return <-rt.done }

// JoinAll receives n completion notifications — the idiomatic Go join
// the paper credits with "the most efficient" join mechanism.
func (rt *Runtime) JoinAll(n int) {
	for i := 0; i < n; i++ {
		<-rt.done
	}
}

// Join blocks until the goroutine completes and releases the descriptor
// (the goroutine's resources are gone once the joiner has synchronized,
// as with the real runtime). The claim winner blocks on the completion
// channel; a joiner that lost the claim — someone else owns the
// descriptor — blocks on the freed-guarded DoneChan snapshot, which is
// either this incarnation's channel (closed at its finish no matter who
// frees afterwards) or the shared pre-closed channel.
func (rt *Runtime) Join(g *G) {
	if g.claim.CompareAndSwap(false, true) {
		<-g.u.DoneChan()
		g.free()
		return
	}
	<-g.DoneChan()
}

// Finalize stops the scheduler threads. Outstanding goroutines must have
// been joined first.
func (rt *Runtime) Finalize() {
	if !rt.finished.CompareAndSwap(false, true) {
		return
	}
	rt.idle.Close()
	rt.wg.Wait()
}

// loop is one scheduler thread: pop the global queue, run, repeat. A
// yielded unit goes back to the global queue (and pays the shared-head
// synchronization again).
func (t *thread) loop() {
	defer t.rt.wg.Done()
	bat := trace.Default().Ring(fmt.Sprintf("go/m%d", t.exec.ID()), t.exec.ID()).Batcher()
	defer bat.Close()
	src := ult.Source{Next: t.rt.shared.Pop, Requeue: func(g *ult.ULT) { t.rt.push(g) }}
	t.exec.Run(src, &t.rt.idle, bat)
}

// SchedStats snapshots the global queue's counters.
func (rt *Runtime) SchedStats() queue.Counts {
	c := rt.shared.Stats().Snapshot()
	for _, t := range rt.threads {
		c.Parks += t.exec.Stats().Parks.Load()
	}
	return c
}

// --- Context ---

// Gosched yields the running goroutine back to the global queue — the
// analogue of runtime.Gosched(). It is deliberately not named Yield: the
// modeled programming surface exposes no yield operation (Table I), but
// the real Go runtime does offer this scheduler hint, and the unified
// layer's cooperative waits (scheduler-aware mutexes, barriers) need it
// so a spinning work unit releases its scheduler thread to run others.
func (c *Context) Gosched() { c.self.Yield() }

// ThreadID reports the rank of the scheduler thread currently running
// the goroutine. With the single global queue this says nothing about
// where the goroutine will resume after blocking — there is no placement
// in the Go model — but it lets the unified layer answer ExecutorID.
func (c *Context) ThreadID() int { return c.self.Owner().ID() }

// IOPark builds the park/unpark pair the aio reactor blocks this
// goroutine with: park suspends it, and unpark — callable from any
// goroutine, exactly like Join's watcher fallback — resumes it into the
// global queue, from which any scheduler thread may pick it up (the
// model has no placement to preserve).
func (c *Context) IOPark() (park func(), unpark func()) {
	self, rt := c.self, c.rt
	return func() { self.Suspend() }, func() {
		ult.ResumeAndRequeue(self, func(j *ult.ULT) { rt.push(j) })
	}
}

// Go spawns a goroutine from inside a goroutine.
func (c *Context) Go(fn func(*Context)) *G { return c.rt.Go(fn) }

// GoNotify spawns a notifying goroutine from inside a goroutine.
func (c *Context) GoNotify(fn func(*Context)) *G { return c.rt.GoNotify(fn) }

// Join blocks the calling goroutine until the target completes. As in
// the real Go runtime, the wait parks the goroutine and releases the
// scheduler thread to run other work: the claim-winning joiner suspends
// in the target's single-waiter park slot and the finishing unit
// re-enqueues it on the global queue directly, then the joiner frees the
// descriptor. When the slot is held by the target's self-free hook (a
// notify goroutine) a watcher goroutine on the completion channel stands
// in — safe, because the claim winner's pending free keeps the
// descriptor alive. A joiner that lost the claim polls the recycle-safe
// Done cooperatively.
func (c *Context) Join(g *G) {
	if !g.claim.CompareAndSwap(false, true) {
		for !g.Done() {
			c.Gosched()
		}
		return
	}
	if g.u.Done() {
		g.free()
		return
	}
	self := c.self
	rt := c.rt
	if ult.ParkJoinStep(self, g.u, func(j *ult.ULT, _ *ult.Executor) { rt.push(j) }) {
		g.free()
		return
	}
	if g.u.Done() {
		g.free()
		return
	}
	go func() {
		<-g.u.DoneChan()
		// The joiner is about to suspend (or already has); spin until
		// the Blocked→Ready transition lands, then requeue it. The
		// Done escape covers a joiner that completed abnormally
		// (contained panic) without ever suspending.
		for !self.Resume() {
			if self.Done() {
				return
			}
			runtime.Gosched()
		}
		rt.push(self)
	}()
	self.Suspend()
	g.free()
}
