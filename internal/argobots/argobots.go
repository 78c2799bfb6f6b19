// Package argobots emulates the Argobots programming model (§III-E of the
// paper): execution streams (ES) that can be created dynamically, two work
// unit types (ULTs and Tasklets), per-ES private pools or shared pools
// chosen by the user, stackable schedulers, and the yield_to operation
// that hands control to a named ULT without consulting the scheduler.
//
// The caller of Init becomes the primary ULT of ES 0, exactly as
// ABT_init makes main() the primary ULT. Joins follow the Argobots
// join-and-free discipline (ABT_thread_free in Table II): the joiner polls
// the work unit's status — yielding between polls when it is itself a
// ULT — and releases the unit's resources when done. The paper attributes
// Argobots' best-in-class Figures 2–4 behaviour to the cheap status-check
// join plus tasklets; both are reproduced here.
package argobots

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/queue"
	"repro/internal/sched"
	"repro/internal/trace"
	"repro/internal/ult"
)

// PoolKind selects how work-unit pools map to execution streams
// (§VIII-B4: "the work unit pools can be private for each thread or shared
// among all of them").
type PoolKind int

const (
	// PrivatePools gives each ES its own pool; creators deal work units
	// round-robin into the target pools. This is the configuration the
	// paper's evaluation selects for every test (§IX-E).
	PrivatePools PoolKind = iota
	// SharedPool uses one pool for all ESs, serializing every push and
	// pop on its lock.
	SharedPool
)

// String names the pool configuration.
func (k PoolKind) String() string {
	if k == SharedPool {
		return "shared"
	}
	return "private"
}

// Config parameterizes Init.
type Config struct {
	// XStreams is the initial number of execution streams (≥ 1). ES 0
	// hosts the primary ULT.
	XStreams int
	// Pools selects private-per-ES or shared pools.
	Pools PoolKind
	// Tracer records scheduling events (dispatches, tasklet executions,
	// steals, idle episodes) into per-stream flight-recorder rings. Nil
	// selects the process-global recorder (trace.Default), which is what
	// production deployments run; tests inject their own.
	Tracer *trace.Recorder
	// BasePolicy, when non-nil, constructs the base scheduling policy of
	// each pool (the bottom of every stream's stackable scheduler, or of
	// the one shared pool). Nil means FIFO, the library default. The
	// factory is called once per pool so instances are never shared
	// between private pools.
	BasePolicy func() sched.Policy
}

// Runtime is an initialized Argobots instance.
type Runtime struct {
	cfg      Config
	mu       sync.Mutex // guards xstreams growth (dynamic ES creation)
	xstreams []*XStream
	shared   *sched.Stack // non-nil in SharedPool mode
	idle     ult.Idler    // the shared pool's wake domain
	rr       atomic.Pointer[sched.RoundRobin]
	primary  *ult.ULT
	// pWaiter is the primary ULT's reusable park-slot entry: main-thread
	// joins are serial, so one waiter serves every ThreadFree/TaskFree
	// without a per-join allocation.
	pWaiter  *ult.DoneWaiter
	wg       sync.WaitGroup
	finished atomic.Bool
}

// XStream is one execution stream: an executor plus its (stackable)
// scheduler over a pool, and the idler the pool's pushes wake — its own
// with private pools, the runtime's with the shared pool.
type XStream struct {
	rt    *Runtime
	exec  *ult.Executor
	sched *sched.Stack
	idle  *ult.Idler
}

// ID returns the execution stream's rank.
func (x *XStream) ID() int { return x.exec.ID() }

// Stats exposes the stream's executor counters.
func (x *XStream) Stats() *ult.ExecStats { return x.exec.Stats() }

// Thread is a handle on an Argobots ULT. The freed flag keeps the handle
// itself answerable after ThreadFree: the descriptor behind u is pooled
// and may already serve another work unit, so no method may touch it
// once freed is set.
//
// The handle also carries the ULT's body and context so creation needs no
// per-create closure: the substrate runs threadBody with the handle as
// argument (ult.NewWith), and the create/join cycle's only allocation is
// the handle itself.
type Thread struct {
	u     *ult.ULT
	rt    *Runtime
	fn    func(*Context)
	gen   uint64
	ctx   Context
	freed atomic.Bool
}

// threadBody is the closure-free ULT body: the handle carries the user
// function and the per-run context.
func threadBody(self *ult.ULT, arg any) {
	th := arg.(*Thread)
	th.ctx = Context{rt: th.rt, self: self}
	th.fn(&th.ctx)
}

// spawned is a detached ULT's body state (ThreadSpawn): the handle-free
// counterpart of Thread, carrying the body, its argument and the
// per-run context.
type spawned struct {
	ctx  Context
	body func(*Context, any)
	arg  any
}

func spawnBody(self *ult.ULT, arg any) {
	sp := arg.(*spawned)
	sp.ctx.self = self
	sp.body(&sp.ctx, sp.arg)
}

// Task is a handle on an Argobots Tasklet, with the same post-free
// discipline as Thread.
type Task struct {
	t     *ult.Tasklet
	rt    *Runtime
	freed atomic.Bool
}

// Context is passed to ULT bodies; it exposes the cooperative operations
// valid only while the ULT runs.
type Context struct {
	rt   *Runtime
	self *ult.ULT
}

// Errors reported by the runtime.
var (
	// ErrFinalized is returned by operations on a finalized runtime.
	ErrFinalized = errors.New("argobots: runtime finalized")
)

// Init starts the runtime with the given configuration and adopts the
// calling goroutine as the primary ULT of ES 0 (ABT_init). It panics if
// cfg.XStreams < 1.
func Init(cfg Config) *Runtime {
	if cfg.XStreams < 1 {
		panic(fmt.Sprintf("argobots: XStreams = %d, need >= 1", cfg.XStreams))
	}
	rt := &Runtime{cfg: cfg}
	if cfg.Pools == SharedPool {
		rt.shared = sched.NewStack(rt.basePolicy())
	}
	rt.rr.Store(sched.NewRoundRobin(cfg.XStreams))
	for i := 0; i < cfg.XStreams; i++ {
		rt.addXStream(i)
	}
	rt.primary = ult.Adopt(rt.xstreams[0].exec)
	rt.pWaiter = &ult.DoneWaiter{Fn: func(*ult.Executor) {
		ult.ResumeAndRequeue(rt.primary, func(j *ult.ULT) { rt.pushTo(j, 0) })
	}}
	for i, x := range rt.xstreams {
		rt.wg.Add(1)
		go x.loop(i == 0)
	}
	return rt
}

// basePolicy constructs one pool's bottom policy per the configuration.
func (rt *Runtime) basePolicy() sched.Policy {
	if rt.cfg.BasePolicy != nil {
		return rt.cfg.BasePolicy()
	}
	return sched.Default()
}

// addXStream creates the ES structure without starting its loop.
func (rt *Runtime) addXStream(id int) *XStream {
	x := &XStream{rt: rt, exec: ult.NewExecutor(id)}
	if rt.shared != nil {
		x.sched, x.idle = rt.shared, &rt.idle
	} else {
		x.sched, x.idle = sched.NewStack(rt.basePolicy()), new(ult.Idler)
	}
	rt.mu.Lock()
	rt.xstreams = append(rt.xstreams, x)
	rt.mu.Unlock()
	return x
}

// XStreamCreate adds a new execution stream at run time — the dynamic
// group control unique to Argobots in Table I — and starts it immediately.
// It returns the new stream's rank.
func (rt *Runtime) XStreamCreate() (int, error) {
	if rt.finished.Load() {
		return 0, ErrFinalized
	}
	rt.mu.Lock()
	id := len(rt.xstreams)
	rt.mu.Unlock()
	x := rt.addXStream(id)
	rt.rr.Store(sched.NewRoundRobin(id + 1))
	rt.wg.Add(1)
	go x.loop(false)
	return id, nil
}

// NumXStreams reports the current number of execution streams.
func (rt *Runtime) NumXStreams() int {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return len(rt.xstreams)
}

// xstream returns the ES with the given rank.
func (rt *Runtime) xstream(i int) *XStream {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.xstreams[i]
}

// pushTo inserts a ready unit into the pool serving ES es and wakes the
// streams parked on that pool.
func (rt *Runtime) pushTo(u ult.Unit, es int) {
	ult.MarkReady(u)
	if rt.shared != nil {
		rt.shared.Push(u)
		rt.idle.Wake()
		return
	}
	x := rt.xstream(es)
	x.sched.Push(u)
	x.idle.Wake()
}

// nextES picks the round-robin target for a new unit.
func (rt *Runtime) nextES() int {
	if rt.shared != nil {
		return 0
	}
	return rt.rr.Load().Next()
}

// ThreadCreate creates a ULT and makes it runnable (ABT_thread_create).
// With private pools the unit is dealt round-robin across streams, as the
// paper's microbenchmarks do.
func (rt *Runtime) ThreadCreate(fn func(*Context)) *Thread {
	return rt.ThreadCreateTo(fn, rt.nextES())
}

// ThreadCreateTo creates a ULT directly in the pool of ES es. In steady
// state this is allocation-free beyond the returned handle: the handle
// doubles as the body argument (ult.NewWith), and the descriptor — parked
// trampoline goroutine included — comes from the substrate's reuse pool.
func (rt *Runtime) ThreadCreateTo(fn func(*Context), es int) *Thread {
	th := &Thread{rt: rt, fn: fn}
	th.u = ult.NewWith(threadBody, th)
	th.gen = th.u.Gen()
	rt.pushTo(th.u, es)
	return th
}

// TaskCreate creates a Tasklet and makes it runnable (ABT_task_create).
// Tasklets are stackless and atomic: cheaper to create and run, but unable
// to yield — the trade quantified in Figures 2 and 5.
func (rt *Runtime) TaskCreate(fn func()) *Task {
	return rt.TaskCreateTo(fn, rt.nextES())
}

// TaskCreateTo creates a Tasklet directly in the pool of ES es.
func (rt *Runtime) TaskCreateTo(fn func(), es int) *Task {
	tk := &Task{rt: rt, t: ult.NewTasklet(fn)}
	rt.pushTo(tk.t, es)
	return tk
}

// TaskSpawn creates a detached Tasklet running body(arg), dealt like
// TaskCreate. There is no handle and no per-create closure: nobody joins
// the unit, its descriptor recycles at completion, and the caller learns
// of completion through arg. In steady state the launch allocates
// nothing.
func (rt *Runtime) TaskSpawn(body func(any), arg any) {
	rt.pushTo(ult.NewTaskletDetached(body, arg), rt.nextES())
}

// ThreadSpawn is TaskSpawn for a ULT: body receives the unit's Context
// and arg. The launch allocates only the small body-state record; the
// descriptor recycles at completion instead of waiting for a free.
func (rt *Runtime) ThreadSpawn(body func(*Context, any), arg any) {
	sp := &spawned{ctx: Context{rt: rt}, body: body, arg: arg}
	rt.pushTo(ult.NewDetachedWith(spawnBody, sp), rt.nextES())
}

// ThreadCreateBulk creates one ULT per body and deals the batch across
// the execution streams in contiguous blocks — one batched pool insertion
// and one wake per stream, instead of a push and a wake per unit. The
// distribution set matches the round-robin dealing of ThreadCreate; only
// the interleaving differs.
func (rt *Runtime) ThreadCreateBulk(fns []func(*Context)) []*Thread {
	ths := make([]*Thread, len(fns))
	units := make([]ult.Unit, len(fns))
	for i, fn := range fns {
		th := &Thread{rt: rt, fn: fn}
		th.u = ult.NewWith(threadBody, th)
		th.gen = th.u.Gen()
		ths[i] = th
		units[i] = th.u
	}
	rt.pushBulk(units)
	return ths
}

// TaskCreateBulk creates one Tasklet per body with the same batched
// dealing as ThreadCreateBulk.
func (rt *Runtime) TaskCreateBulk(fns []func()) []*Task {
	ts := ult.NewTaskletBulk(fns)
	tks := make([]*Task, len(ts))
	units := make([]ult.Unit, len(ts))
	for i, t := range ts {
		tks[i] = &Task{rt: rt, t: t}
		units[i] = t
	}
	rt.pushBulk(units)
	return tks
}

// pushBulk marks the units ready and distributes them: one PushBatch into
// the shared pool, or contiguous blocks across the private pools starting
// at the round-robin cursor, each followed by one wake.
func (rt *Runtime) pushBulk(units []ult.Unit) {
	if len(units) == 0 {
		return
	}
	for _, u := range units {
		ult.MarkReady(u)
	}
	if rt.shared != nil {
		rt.shared.PushBatch(units)
		rt.idle.Wake()
		return
	}
	rt.mu.Lock()
	xs := rt.xstreams
	rt.mu.Unlock()
	k := len(xs)
	start := rt.rr.Load().Next()
	per := (len(units) + k - 1) / k
	for i := 0; i*per < len(units); i++ {
		lo := i * per
		hi := min(lo+per, len(units))
		x := xs[(start+i)%k]
		x.sched.PushBatch(units[lo:hi])
		x.idle.Wake()
	}
}

// Yield yields the primary ULT (ABT_thread_yield from main). Must be
// called from the goroutine that called Init.
func (rt *Runtime) Yield() { rt.primary.Yield() }

// MainPark builds the primary ULT's idle park (core.Runtime.MainPark):
// park suspends the primary, leaving ES 0 to its other units (or to its
// own idle park), and unpark — callable from any goroutine — resumes it
// into ES 0's pool through the push-and-wake path every resume takes. It
// is the wait-for-anything form of parkPrimary's wait-for-one-unit join.
func (rt *Runtime) MainPark() (park, unpark func()) {
	return ult.MainPark(rt.primary, func(j *ult.ULT) { rt.pushTo(j, 0) })
}

// parkPrimary performs one wait step of a main-thread join: the primary
// parks in u's single-waiter slot and is resumed directly by the
// finishing unit (re-entering ES 0's pool) — no polling in the common
// case. It reports whether the park happened; when the slot is already
// taken by another joiner it yields once instead (the poll-yield join the
// C library's status-check join corresponds to) and the caller re-checks
// completion.
func (rt *Runtime) parkPrimary(u ult.WaiterSlot) bool {
	if u.SetWaiter(rt.pWaiter) {
		rt.primary.Suspend()
		return true
	}
	rt.primary.Yield()
	return false
}

// ThreadFree joins the ULT and releases it (ABT_thread_free). The paper
// singles out this join-and-free as the reason Argobots' Figure 6 join is
// costlier than Qthreads' readFF while remaining the best in Figure 3;
// the join itself now parks the primary in the unit's waiter slot instead
// of poll-yielding.
func (rt *Runtime) ThreadFree(th *Thread) error {
	if th.freed.Load() {
		return ult.ErrFreed
	}
	if !th.Done() {
		// One cooperative poll first: a short-lived unit completes while
		// the primary is parked in this yield, and the join never pays
		// the suspend/resume machinery. Units still running after that
		// park the primary in their waiter slot.
		rt.primary.Yield()
		for !th.Done() {
			if rt.parkPrimary(th.u) {
				break
			}
		}
	}
	return th.free()
}

// TaskFree joins a tasklet and releases it (ABT_task_free).
func (rt *Runtime) TaskFree(tk *Task) error {
	if tk.freed.Load() {
		return ult.ErrFreed
	}
	if !tk.Done() {
		rt.primary.Yield() // cooperative poll; see ThreadFree
		for !tk.Done() {
			if rt.parkPrimary(tk.t) {
				break
			}
		}
	}
	return tk.free()
}

// free claims the handle's one free and releases the descriptor. The
// claim makes a double free answer ErrFreed from the handle alone,
// without touching the (possibly recycled) descriptor.
func (th *Thread) free() error {
	if !th.freed.CompareAndSwap(false, true) {
		return ult.ErrFreed
	}
	th.fn = nil
	return th.u.Free()
}

func (tk *Task) free() error {
	if !tk.freed.CompareAndSwap(false, true) {
		return ult.ErrFreed
	}
	return tk.t.Free()
}

// Done reports whether the ULT has completed, without joining it. The
// generation-counted completion word keeps the answer correct — and
// monotonic — even when a concurrent ThreadFree recycles the descriptor
// between the two loads.
func (th *Thread) Done() bool { return th.freed.Load() || th.u.DoneAt(th.gen) }

// Done reports whether the tasklet has completed. The descriptor is read
// before the freed flag: a recycled descriptor (whose status word the
// next incarnation reset) implies the free already happened, so the
// second load then answers true — Done never transiently reports an
// already-completed tasklet as pending.
func (tk *Task) Done() bool { return tk.t.Done() || tk.freed.Load() }

// PushScheduler stacks policy p on top of ES es's scheduler (Argobots
// stackable schedulers, Table I). New work created toward that ES flows
// through p until PopScheduler.
func (rt *Runtime) PushScheduler(es int, p sched.Policy) {
	rt.xstream(es).sched.PushScheduler(p)
}

// PopScheduler removes the topmost stacked policy from ES es and returns
// it (nil if only the base policy remains). Units still queued in the
// popped policy are migrated back to the stream's scheduler so no work is
// lost.
func (rt *Runtime) PopScheduler(es int) sched.Policy {
	x := rt.xstream(es)
	p := x.sched.PopScheduler()
	if p == nil {
		return nil
	}
	for u := p.Pop(); u != nil; u = p.Pop() {
		x.sched.Push(u)
	}
	x.idle.Wake()
	return p
}

// Finalize shuts the runtime down (ABT_finalize). All created work units
// must have been joined; Finalize stops the streams and returns when their
// loops exit. The calling goroutine ceases to be the primary ULT.
func (rt *Runtime) Finalize() {
	if !rt.finished.CompareAndSwap(false, true) {
		return
	}
	rt.mu.Lock()
	for _, x := range rt.xstreams {
		x.idle.Close()
	}
	rt.mu.Unlock()
	rt.primary.Detach()
	rt.wg.Wait()
}

// loop is the scheduling loop of one execution stream.
func (x *XStream) loop(adopted bool) {
	defer x.rt.wg.Done()
	src := ult.Source{
		Next: x.sched.Pop,
		Requeue: func(t *ult.ULT) {
			sched.Requeue(x.sched, t)
			x.idle.Wake()
		},
	}
	if adopted {
		// Conceptually the primary ULT was dispatched by Init; wait
		// for it to yield or detach before scheduling anything else.
		if t, res := x.exec.AwaitHandback(); res == ult.DispatchYielded {
			src.Requeue(t)
		}
	}
	rec := x.rt.cfg.Tracer
	if rec == nil {
		rec = trace.Default()
	}
	bat := rec.Ring(fmt.Sprintf("argobots/es%d", x.exec.ID()), x.exec.ID()).Batcher()
	defer bat.Close()
	x.exec.Run(src, x.idle, bat)
}

// SchedStats sums the pool counters across the runtime's schedulers —
// one shared pool or every stream's private stack — and the streams'
// parks.
func (rt *Runtime) SchedStats() queue.Counts {
	rt.mu.Lock()
	xs := make([]*XStream, len(rt.xstreams))
	copy(xs, rt.xstreams)
	rt.mu.Unlock()
	var c queue.Counts
	if rt.shared != nil {
		c = rt.shared.Counts()
	}
	for _, x := range xs {
		if rt.shared == nil {
			c = c.Plus(x.sched.Counts())
		}
		c.Parks += x.exec.Stats().Parks.Load()
	}
	return c
}

// --- Context: operations valid inside a running ULT ---

// Runtime returns the owning runtime.
func (c *Context) Runtime() *Runtime { return c.rt }

// Yield returns control to the stream's scheduler (ABT_thread_yield).
func (c *Context) Yield() { c.self.Yield() }

// YieldTo hands control directly to the target ULT, skipping the
// scheduler (ABT_thread_yield_to) — the operation only Argobots offers in
// Table I. If the target is not runnable the call degrades to Yield.
func (c *Context) YieldTo(target *Thread) { c.self.YieldTo(target.u) }

// parkSelf performs one wait step of a worker-side join: the running ULT
// parks in u's waiter slot, and the finishing unit resumes it straight
// back into the pool it was running from (preserving ThreadCreateTo
// placement). It reports whether the park happened; an occupied slot
// yields once instead and the caller re-checks completion.
func (c *Context) parkSelf(u ult.WaiterSlot) bool {
	rt := c.rt
	es := c.self.Owner().ID()
	if ult.ParkJoinStep(c.self, u, func(j *ult.ULT, _ *ult.Executor) { rt.pushTo(j, es) }) {
		return true
	}
	c.self.Yield()
	return false
}

// Join waits for the target ULT, parking in its waiter slot (falling back
// to a status-poll-plus-yield when another joiner holds the slot).
func (c *Context) Join(th *Thread) {
	for !th.Done() {
		if c.parkSelf(th.u) {
			return
		}
	}
}

// JoinFree joins the target and frees it (worker-side ABT_thread_free).
func (c *Context) JoinFree(th *Thread) error {
	c.Join(th)
	return th.free()
}

// JoinTaskFree joins the tasklet and frees it (worker-side ABT_task_free).
func (c *Context) JoinTaskFree(tk *Task) error {
	c.JoinTask(tk)
	return tk.free()
}

// JoinTask waits for a tasklet, parking in its waiter slot.
func (c *Context) JoinTask(tk *Task) {
	for !tk.Done() {
		if c.parkSelf(tk.t) {
			return
		}
	}
}

// ThreadCreate creates a ULT from inside a ULT (nested parallelism).
func (c *Context) ThreadCreate(fn func(*Context)) *Thread {
	return c.rt.ThreadCreate(fn)
}

// ThreadCreateTo creates a ULT into the pool of ES es from inside a ULT.
func (c *Context) ThreadCreateTo(fn func(*Context), es int) *Thread {
	return c.rt.ThreadCreateTo(fn, es)
}

// TaskCreate creates a tasklet from inside a ULT.
func (c *Context) TaskCreate(fn func()) *Task { return c.rt.TaskCreate(fn) }

// TaskCreateTo creates a tasklet into the pool of ES es from inside a ULT.
func (c *Context) TaskCreateTo(fn func(), es int) *Task {
	return c.rt.TaskCreateTo(fn, es)
}

// SelfID returns the running ULT's unit ID.
func (c *Context) SelfID() uint64 { return c.self.ID() }

// XStreamID reports the rank of the execution stream currently running
// the ULT (ABT_xstream_self_rank). With private pools a ULT created with
// ThreadCreateTo(es) is only ever dispatched by ES es, so the value is
// stable; with the shared pool it reflects whichever stream popped the
// unit last.
func (c *Context) XStreamID() int { return c.self.Owner().ID() }

// IOPark builds the park/unpark pair the aio reactor blocks this ULT
// with: park suspends the ULT (the ES hands control back to its
// scheduler and serves other units), and unpark — callable from any
// goroutine — resumes it into the pool of the ES it was running on when
// the pair was built, preserving ThreadCreateTo placement across the
// wait. Build a fresh pair per operation: the home ES is captured at
// issue time.
func (c *Context) IOPark() (park func(), unpark func()) {
	self, rt := c.self, c.rt
	es := self.Owner().ID()
	return func() { self.Suspend() }, func() {
		ult.ResumeAndRequeue(self, func(j *ult.ULT) { rt.pushTo(j, es) })
	}
}
