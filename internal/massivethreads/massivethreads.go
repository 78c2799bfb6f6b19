// Package massivethreads emulates the MassiveThreads programming model
// (§III-C): Workers (one per hardware resource), a creation policy that is
// either work-first (the default: the creator immediately runs the new
// ULT and its own continuation is pushed to the ready deque) or help-first
// (the new ULT is pushed and the creator continues), and random work
// stealing from per-worker ready deques for load balance.
//
// The C library protects its deques with mutexes (§III-C); this emulation
// runs them on the lock-free Chase–Lev deque so the create/steal hot path
// is contention-free, with queue.MutexDeque kept as the measured baseline
// (BenchmarkQueueOps, BenchmarkAblationDequeLocking). The deque's owner
// discipline holds because a worker's bottom-end operations always come
// from the holder of its control token: the scheduling loop and the ULT
// it is currently running alternate, never overlap.
//
// The caller of Init becomes the primary ULT of worker 0, which is what
// produces the distinctive MassiveThreads(W) curve of Figure 2: under
// work-first, creating the first work unit moves the *main flow* into the
// ready deque, where any worker may steal it — so successive creations can
// be executed by different workers, adding a non-negligible overhead when
// the number of created work units is small (§VI).
package massivethreads

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"

	"repro/internal/queue"
	"repro/internal/trace"
	"repro/internal/ult"
)

// Policy selects the creation discipline (§VIII-B2).
type Policy int

const (
	// WorkFirst runs a newly created ULT immediately, pushing the
	// creator's continuation to the ready deque (myth_create default).
	WorkFirst Policy = iota
	// HelpFirst pushes the new ULT to the ready deque and lets the
	// creator continue.
	HelpFirst
)

// String names the policy as the paper's figures do.
func (p Policy) String() string {
	if p == HelpFirst {
		return "help-first"
	}
	return "work-first"
}

// Runtime is an initialized MassiveThreads instance.
type Runtime struct {
	policy  Policy
	workers []*Worker
	primary *ult.ULT
	// pWaiter is the primary's reusable park-slot entry for main-thread
	// joins (serial, so one instance suffices allocation-free).
	pWaiter *ult.DoneWaiter
	// inject receives units made runnable from outside the runtime (aio
	// resumes, Spawn). The Chase–Lev deques are owner-only at the bottom
	// end, so a foreign goroutine cannot push into them; the MPMC
	// injection queue is the one container every worker may push to and
	// polls between its own deque and stealing.
	inject *queue.FIFO
	// idle is the one wake domain of the runtime: with stealing, a push
	// into any deque (or inject) can feed any worker.
	idle     ult.Idler
	wg       sync.WaitGroup
	finished atomic.Bool
	steals   atomic.Uint64
}

// Worker is one hardware-resource executor with a private ready deque.
type Worker struct {
	rt   *Runtime
	exec *ult.Executor
	dq   *queue.Deque
	rng  *rand.Rand
	// tick alternates the loop's source priority between the local
	// deque and the runtime's injection queue (see next).
	tick uint64
	// ring is the worker's flight-recorder lane, acquired by loop.
	ring *trace.Ring
}

// ID returns the worker's rank.
func (w *Worker) ID() int { return w.exec.ID() }

// push inserts a ready unit at the bottom of the worker's deque and wakes
// parked workers (thieves included). Owner-side only: the caller holds
// this worker's control token.
func (w *Worker) push(u ult.Unit) {
	w.dq.PushBottom(u)
	w.rt.idle.Wake()
}

// Stats exposes the worker's executor counters.
func (w *Worker) Stats() *ult.ExecStats { return w.exec.Stats() }

// Thread is a handle on a MassiveThreads ULT. It carries the body and
// per-run context so creation allocates only the handle (ult.NewWith),
// plus the descriptor generation so Done stays answerable after the join
// released the descriptor.
//
// Join discipline: the joiner that wins the handle's claim owns the
// descriptor — it parks in the waiter slot and frees once synchronized
// (myth_join both synchronizes and reclaims in the C library); its
// pending free keeps the descriptor out of the reuse pool meanwhile.
// Joiners that lost the claim poll the recycle-safe Done, so concurrent
// joins of one handle are safe.
type Thread struct {
	u   *ult.ULT
	rt  *Runtime
	fn  func(*Context)
	gen uint64
	// claim elects the one joiner allowed to touch the descriptor and
	// obliged to free it; freed records that the free happened.
	claim atomic.Bool
	freed atomic.Bool
	ctx   Context
}

// mtBody is the closure-free ULT body.
func mtBody(self *ult.ULT, arg any) {
	th := arg.(*Thread)
	th.ctx = Context{rt: th.rt, self: self}
	th.fn(&th.ctx)
}

// free releases the descriptor. Only the claim winner calls it, after
// observing completion. The body closure is dropped too: handles may be
// retained after the join (for Done), and must not pin what the body
// captured.
func (th *Thread) free() {
	if th.freed.CompareAndSwap(false, true) {
		th.fn = nil
		_ = th.u.Free()
	}
}

// Done reports whether the ULT completed; the generation-counted
// completion word keeps the answer correct after free-and-recycle.
func (th *Thread) Done() bool { return th.freed.Load() || th.u.DoneAt(th.gen) }

// Context is passed to ULT bodies.
type Context struct {
	rt   *Runtime
	self *ult.ULT
}

// Init starts nworkers workers with the given creation policy and adopts
// the caller as the primary ULT of worker 0 (myth_init). It panics if
// nworkers < 1.
func Init(nworkers int, policy Policy) *Runtime {
	if nworkers < 1 {
		panic(fmt.Sprintf("massivethreads: nworkers = %d, need >= 1", nworkers))
	}
	rt := &Runtime{policy: policy, inject: queue.NewFIFO(64)}
	rt.workers = make([]*Worker, nworkers)
	for i := range rt.workers {
		rt.workers[i] = &Worker{
			rt:   rt,
			exec: ult.NewExecutor(i),
			dq:   queue.NewDeque(64),
			rng:  rand.New(rand.NewSource(int64(i)*2654435761 + 1)),
		}
	}
	rt.primary = ult.Adopt(rt.workers[0].exec)
	rt.pWaiter = &ult.DoneWaiter{Fn: func(e *ult.Executor) {
		// The waiter runs on the finishing unit's goroutine with e's
		// control token held, so the bottom push into e's deque honors
		// the Chase–Lev owner discipline; the main flow resumes on
		// whichever worker the target finished on, as work stealing
		// already allows (§VI).
		ult.ResumeAndRequeue(rt.primary, func(j *ult.ULT) {
			rt.workers[e.ID()].push(j)
		})
	}}
	for i, w := range rt.workers {
		rt.wg.Add(1)
		go w.loop(i == 0)
	}
	return rt
}

// NumWorkers reports the worker count.
func (rt *Runtime) NumWorkers() int { return len(rt.workers) }

// Policy reports the creation policy the runtime was initialized with.
func (rt *Runtime) Policy() Policy { return rt.policy }

// Steals reports the total number of successful work steals.
func (rt *Runtime) Steals() uint64 { return rt.steals.Load() }

// SchedStats sums the container counters across every worker deque and
// the shared injection queue.
func (rt *Runtime) SchedStats() queue.Counts {
	var c queue.Counts
	for _, w := range rt.workers {
		c = c.Plus(w.dq.Stats().Snapshot())
		c.Parks += w.exec.Stats().Parks.Load()
	}
	return c.Plus(rt.inject.Stats().Snapshot())
}

// Create creates a ULT from the Init goroutine (myth_create from main).
// Under work-first the main flow is pushed to worker 0's deque and the
// new ULT runs immediately in its place; under help-first the new ULT is
// enqueued and the caller continues.
func (rt *Runtime) Create(fn func(*Context)) *Thread {
	return rt.createFrom(rt.primary, fn)
}

// createFrom implements both creation policies for any creating ULT.
func (rt *Runtime) createFrom(creator *ult.ULT, fn func(*Context)) *Thread {
	th := &Thread{rt: rt, fn: fn}
	th.u = ult.NewWith(mtBody, th)
	th.gen = th.u.Gen()
	if rt.policy == WorkFirst && creator != nil {
		// Hand control straight to the new ULT; the executor requeues
		// the creator's continuation into the local deque, where
		// thieves may steal it — including the main flow itself. The
		// new unit never touches a pool before this first dispatch, so
		// the hint dispatch leaves no stale entry and the descriptor
		// stays in the reuse economy (MarkUnpooled).
		th.u.MarkUnpooled()
		ult.MarkReady(th.u)
		creator.YieldTo(th.u)
		return th
	}
	// Help-first: enqueue on the creating worker's deque.
	ult.MarkReady(th.u)
	rt.workerOf(creator).push(th.u)
	return th
}

// CreateBulk creates one ULT per body from the Init goroutine. Under
// help-first the whole batch lands in the creating worker's deque with a
// single bottom publication (the caller holds that worker's control
// token, so the owner discipline is satisfied); work-first is inherently
// sequential — every create hands control straight to the new unit — so
// it falls back to per-unit creation.
func (rt *Runtime) CreateBulk(fns []func(*Context)) []*Thread {
	ths := make([]*Thread, len(fns))
	if rt.policy == WorkFirst {
		for i, fn := range fns {
			ths[i] = rt.createFrom(rt.primary, fn)
		}
		return ths
	}
	units := make([]ult.Unit, len(fns))
	for i, fn := range fns {
		th := &Thread{rt: rt, fn: fn}
		th.u = ult.NewWith(mtBody, th)
		th.gen = th.u.Gen()
		ult.MarkReady(th.u)
		ths[i] = th
		units[i] = th.u
	}
	rt.workerOf(rt.primary).dq.PushBottomBatch(units)
	rt.idle.Wake()
	return ths
}

// workerOf maps a running ULT to the worker whose deque receives its
// spawns; the Init goroutine maps to whichever worker last dispatched it.
func (rt *Runtime) workerOf(creator *ult.ULT) *Worker {
	if creator == nil {
		return rt.workers[0]
	}
	// The creator is running, so its executor is one of our workers.
	owner := creator.Owner()
	for _, w := range rt.workers {
		if w.exec == owner {
			return w
		}
	}
	return rt.workers[0]
}

// Join waits for the target from the Init goroutine (myth_join). The
// main flow parks in the target's single-waiter slot and is resumed by
// the finishing unit into that worker's deque — the C library likewise
// parks joiners inside the scheduler rather than spinning them. When the
// slot is taken by another joiner, Join falls back to the poll-yield loop
// whose repeated queue inspection the paper measures as MassiveThreads'
// join cost (§VI).
func (rt *Runtime) Join(th *Thread) {
	if !th.claim.CompareAndSwap(false, true) {
		// Another joiner owns (and will free) the descriptor; poll the
		// recycle-safe completion word only.
		for !th.Done() {
			rt.primary.Yield()
		}
		return
	}
	for !th.u.Done() {
		if th.u.SetWaiter(rt.pWaiter) {
			rt.primary.Suspend()
			break
		}
		rt.primary.Yield()
	}
	th.free()
}

// Yield yields the main flow to the scheduler from the Init goroutine
// (myth_yield from main).
func (rt *Runtime) Yield() { rt.primary.Yield() }

// MainPark builds the main flow's idle park (core.Runtime.MainPark):
// park suspends the primary, and unpark — callable from any goroutine —
// resumes it through the injection queue, as a reactor resume does. The
// primary is migratable, so it may have parked on any worker and may
// resume on any other; nothing ties the main flow to worker 0.
func (rt *Runtime) MainPark() (park, unpark func()) {
	return ult.MainPark(rt.primary, rt.injectUnit)
}

// injectUnit makes a ready unit runnable from outside the runtime: the
// MPMC injection queue is the one container a foreign goroutine may
// push to.
func (rt *Runtime) injectUnit(j *ult.ULT) {
	rt.inject.Push(j)
	rt.idle.Wake()
}

// Spawn creates a detached ULT running fn, from any goroutine. It enters
// through the injection queue whatever the policy: a foreign caller has
// no ULT whose continuation work-first could push aside. Nobody joins
// the unit; its descriptor recycles at completion.
func (rt *Runtime) Spawn(fn func(*Context)) {
	th := &Thread{rt: rt, fn: fn}
	th.u = ult.NewDetachedWith(mtBody, th)
	ult.MarkReady(th.u)
	rt.injectUnit(th.u)
}

// Finalize stops the workers (myth_fini). Outstanding ULTs must have been
// joined first.
func (rt *Runtime) Finalize() {
	if !rt.finished.CompareAndSwap(false, true) {
		return
	}
	rt.idle.Close()
	rt.primary.Detach()
	rt.wg.Wait()
}

// loop is one worker's scheduling cycle: a YieldTo hint first — the
// work-first hand-off, which runs the new ULT here directly — then the
// local deque in arrival order and the injection queue, then a steal of
// the oldest unit from another worker (a single CAS per attempt, random
// first victim), then idle. A yielded ULT returns to the local deque;
// the primary's continuation is a unit like any other, so the main flow
// can resume on whichever worker pops or steals it (§VI).
//
// Service is FIFO rather than owner-LIFO: a ULT that polls a join by
// yielding re-enters the deque behind its target, so the target always
// runs first and joins cannot livelock. (The C library achieves the same
// by parking joiners inside the scheduler; recursion locality still comes
// from the work-first hand-off, which bypasses the deque entirely.)
func (w *Worker) loop(adopted bool) {
	defer w.rt.wg.Done()
	src := ult.Source{Next: w.next, Requeue: func(t *ult.ULT) { w.push(t) }}
	if adopted {
		if t, res := w.exec.AwaitHandback(); res == ult.DispatchYielded {
			src.Requeue(t)
		}
	}
	w.ring = trace.Default().Ring(
		fmt.Sprintf("massivethreads/w%d", w.exec.ID()), w.exec.ID())
	bat := w.ring.Batcher()
	defer bat.Close()
	w.exec.Run(src, &w.rt.idle, bat)
}

// next is the worker's source: the local deque and the injection queue,
// then a steal sweep.
//
// The first source alternates between the deque and the injection
// queue. Deque-first-always starves injected resumes when the deque
// never drains — a main flow yield-spinning on a parked unit's result
// re-enters the deque every cycle, so with one worker the resume sitting
// in inject would never run (livelock, caught live by the serve I/O
// benchmark). Inject-first-always has the mirror problem under a steady
// resume stream. Alternating bounds either source's wait to one
// dispatch.
func (w *Worker) next() ult.Unit {
	w.tick++
	var u ult.Unit
	if w.tick&1 == 0 {
		if u = w.rt.inject.Pop(); u == nil {
			u = w.dq.PopFront()
		}
	} else {
		if u = w.dq.PopFront(); u == nil {
			u = w.rt.inject.Pop()
		}
	}
	if u == nil {
		u = w.steal()
	}
	return u
}

// steal takes the oldest unit from the first non-empty victim of a sweep
// over every other worker, started at a random rank. The sweep is
// complete on purpose: a worker parks after steal comes up empty, and
// "nothing to run since the epoch was captured" only holds if every deque
// was looked at. A nil from StealTop means empty or a lost CAS race (the
// winner has the unit); either way the next victim is tried.
func (w *Worker) steal() ult.Unit {
	n := len(w.rt.workers)
	if n == 1 {
		return nil
	}
	start := w.rng.Intn(n)
	for i := 0; i < n; i++ {
		victim := w.rt.workers[(start+i)%n]
		if victim == w {
			continue
		}
		if u := victim.dq.StealTop(); u != nil {
			w.rt.steals.Add(1)
			w.exec.Stats().Steals.Add(1)
			w.ring.Instant(trace.KindSteal, u.ID())
			return u
		}
	}
	return nil
}

// --- Context: operations valid inside a running ULT ---

// Create spawns a child ULT under the runtime's policy (myth_create).
func (c *Context) Create(fn func(*Context)) *Thread {
	return c.rt.createFrom(c.self, fn)
}

// Join waits for the target ULT (myth_join), parking in its waiter slot;
// the finishing unit resumes the joiner into its own worker's deque
// (owner-side push — the waiter runs with that worker's control token).
// Falls back to poll-yield when the slot is occupied.
func (c *Context) Join(th *Thread) {
	if !th.claim.CompareAndSwap(false, true) {
		for !th.Done() {
			c.self.Yield()
		}
		return
	}
	rt := c.rt
	for !th.u.Done() {
		if ult.ParkJoinStep(c.self, th.u, func(j *ult.ULT, e *ult.Executor) {
			rt.workers[e.ID()].push(j)
		}) {
			break
		}
		c.self.Yield()
	}
	th.free()
}

// Yield re-enters the scheduler (myth_yield).
func (c *Context) Yield() { c.self.Yield() }

// WorkerID reports the rank of the worker currently running the ULT.
func (c *Context) WorkerID() int { return c.self.Owner().ID() }

// IOPark builds the park/unpark pair the aio reactor blocks this ULT
// with: park suspends it (the worker keeps serving its deque), and
// unpark — callable from any goroutine — resumes it through the
// runtime's MPMC injection queue, which any worker may pop. As with
// work stealing, the unit may resume on a different worker than it
// parked on; the model has no placement guarantee to preserve.
func (c *Context) IOPark() (park func(), unpark func()) {
	self, rt := c.self, c.rt
	return func() { self.Suspend() }, func() {
		ult.ResumeAndRequeue(self, rt.injectUnit)
	}
}
