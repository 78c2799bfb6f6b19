// Package converse emulates the Converse Threads programming model
// (§III-B): Processors with private work-unit queues, two work-unit types
// — ULTs (CthThread: migratable, yieldable, own stack) and Messages
// (stackless, atomic) — where only Messages may be pushed into *other*
// processors' queues, and a barrier-based join whose cost grows linearly
// with the processor count (Figure 3).
//
// The master (the goroutine that called Init) drives processor 0 itself,
// in Converse's "return mode": scheduling calls process the local queue
// and return to the caller, which is the only mode that matches the
// OpenMP master-thread pattern (§VIII-B1). Work distribution from the
// master therefore uses SyncSend (CmiSyncSend) in round-robin, and joining
// uses a broadcast barrier that the master reaches by draining its own
// queue — reproducing both the linear join and the "extra yield calls"
// overhead the paper measures in two-step scenarios (§IX-B, §IX-D).
package converse

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/barrier"
	"repro/internal/queue"
	"repro/internal/sched"
	"repro/internal/trace"
	"repro/internal/ult"
)

// Runtime is an initialized Converse instance.
type Runtime struct {
	procs    []*Processor
	wg       sync.WaitGroup
	finished atomic.Bool
	// yieldOps counts master scheduling steps taken outside barriers —
	// the "extra yield calls" the paper attributes 70–75 % of Converse's
	// time to in two-step patterns.
	yieldOps atomic.Uint64
	// barriers counts completed barrier episodes.
	barriers atomic.Uint64
	// syncNanos accumulates wall time the master spends inside Barrier
	// and Yield — the synchronization share §IX-B/§IX-D quantify.
	syncNanos atomic.Int64

	// handlers is the CCS handler table (see ccs.go).
	handlersMu sync.Mutex
	handlers   map[string]Handler

	// masterRing is the flight-recorder lane of the master's barrier and
	// yield operations — the sync share §IX-D quantifies. Only the
	// master goroutine writes it.
	masterRing *trace.Ring
}

// SetTracer points the runtime's master-side operations (Barrier,
// Yield) at a different recorder — tests inject their own; the default
// is the process-global recorder. Pass nil to disable. Must be called
// from the master goroutine with no barrier in flight.
func (rt *Runtime) SetTracer(r *trace.Recorder) {
	rt.masterRing.Close()
	rt.masterRing = r.Ring("converse/master", 0)
}

// osYield gives the OS scheduler a chance while the master busy-waits.
func osYield() { runtime.Gosched() }

// Processor is one Converse processor: an executor plus its private queue.
// Processor 0 has no scheduling goroutine; the master drives it. The
// queue's ordering is the configured scheduling policy (FIFO unless
// Config.Policy overrides it — the plug-in scheduler slot of Table I).
type Processor struct {
	id   int
	rt   *Runtime
	exec *ult.Executor
	q    sched.Policy
	// src is the dispatch source over q. A yielded ULT goes back behind
	// the current tail without a wake: the requeue is the scheduler's
	// own, so it is awake.
	src ult.Source
	// idle is the wake domain of the processor's scheduler: its own
	// goroutine, or for processor 0 the master inside MainPark.
	idle ult.Idler
	// bat batches processor 0's flight-recorder dispatch events and is
	// written only by the master (runOne); the scheduler goroutines of
	// the other processors keep theirs in loop.
	bat *trace.Batcher
}

// ID returns the processor's rank.
func (p *Processor) ID() int { return p.id }

// push inserts a ready unit into the processor's queue and wakes its
// scheduler if parked. Every insertion but the yield requeue goes through
// here or pushAll; the requeue is the scheduler's own, so it is awake.
func (p *Processor) push(u ult.Unit) {
	p.q.Push(u)
	p.idle.Wake()
}

// pushAll is push for a batch: one insertion, one wake.
func (p *Processor) pushAll(us []ult.Unit) {
	sched.PushAll(p.q, us)
	p.idle.Wake()
}

// QueueStats exposes the processor queue's counters when the configured
// policy keeps them (FIFO and LIFO do); other policies return nil.
func (p *Processor) QueueStats() *queue.Stats {
	if s, ok := p.q.(interface{ Stats() *queue.Stats }); ok {
		return s.Stats()
	}
	return nil
}

// Cth is a handle on a Converse ULT (CthThread). It carries the body and
// per-run context so creation allocates only the handle (ult.NewWith),
// plus the descriptor generation so Done stays answerable after Free
// released the descriptor.
type Cth struct {
	u   *ult.ULT
	p   *Processor
	fn  func(*CthCtx)
	gen uint64
	// claim elects the one joiner (or Free caller) allowed to touch the
	// descriptor and obliged to free it; freed records that the free
	// happened. Joiners that lost the claim poll the recycle-safe Done.
	claim atomic.Bool
	freed atomic.Bool
	ctx   CthCtx
}

// cthBody is the closure-free ULT body.
func cthBody(self *ult.ULT, arg any) {
	c := arg.(*Cth)
	c.ctx = CthCtx{p: c.p, self: self}
	c.fn(&c.ctx)
}

// Done reports whether the ULT completed; the generation-counted
// completion word keeps the answer correct after free-and-recycle.
func (c *Cth) Done() bool { return c.freed.Load() || c.u.DoneAt(c.gen) }

// Free releases a completed ULT's descriptor back to the substrate pool
// (CthFree). Idempotent; callers that joined through CthCtx.Join need not
// call it — the join frees. A parked joiner holding the handle's claim
// frees instead (Free then no-ops). Unfreed handles are reclaimed by the
// garbage collector at the cost of their descriptor's reuse.
func (c *Cth) Free() {
	if c.Done() && c.claim.CompareAndSwap(false, true) {
		c.release()
	}
}

// release returns the descriptor to the pool; claim-winner only. The
// body closure is dropped too: handles may be retained after the join
// (for Done), and must not pin what the body captured.
func (c *Cth) release() {
	if c.freed.CompareAndSwap(false, true) {
		c.fn = nil
		_ = c.u.Free()
	}
}

// Proc is the processor context passed to Message bodies: Messages are
// atomic (no yield), but they may create local ULTs and send further
// Messages.
type Proc struct {
	p *Processor
}

// CthCtx is the context passed to ULT bodies.
type CthCtx struct {
	p    *Processor
	self *ult.ULT
}

// Config parameterizes InitCfg.
type Config struct {
	// Procs is the processor count (>= 1).
	Procs int
	// Policy, when non-nil, constructs each processor's queue ordering.
	// Nil means FIFO, the library default. The factory runs once per
	// processor, so queues are never shared.
	Policy func() sched.Policy
}

// Init starts nprocs processors (ConverseInit). Processors 1..nprocs-1
// get scheduler goroutines; processor 0 is driven by the caller. It
// panics if nprocs < 1.
func Init(nprocs int) *Runtime { return InitCfg(Config{Procs: nprocs}) }

// InitCfg is Init with the full configuration.
func InitCfg(cfg Config) *Runtime {
	if cfg.Procs < 1 {
		panic(fmt.Sprintf("converse: nprocs = %d, need >= 1", cfg.Procs))
	}
	pool := cfg.Policy
	if pool == nil {
		pool = sched.Default
	}
	rt := &Runtime{}
	rt.masterRing = trace.Default().Ring("converse/master", 0)
	for i := 0; i < cfg.Procs; i++ {
		q := pool()
		rt.procs = append(rt.procs, &Processor{
			id:   i,
			rt:   rt,
			exec: ult.NewExecutor(i),
			q:    q,
			src: ult.Source{
				Next:    q.Pop,
				Requeue: func(t *ult.ULT) { sched.Requeue(q, t) },
			},
		})
	}
	// Processor 0 is driven by the master goroutine, so its dispatch
	// lane is acquired here; the scheduler goroutines acquire theirs.
	rt.procs[0].bat = trace.Default().Ring("converse/p0", 0).Batcher()
	for _, p := range rt.procs[1:] {
		rt.wg.Add(1)
		go p.loop()
	}
	return rt
}

// NumProcs reports the processor count.
func (rt *Runtime) NumProcs() int { return len(rt.procs) }

// YieldOps reports how many master scheduling steps ran outside barriers.
func (rt *Runtime) YieldOps() uint64 { return rt.yieldOps.Load() }

// Barriers reports how many barrier episodes completed.
func (rt *Runtime) Barriers() uint64 { return rt.barriers.Load() }

// SyncSend enqueues a Message into the named processor's queue
// (CmiSyncSend) — the only remote insertion Converse allows, and the
// mechanism the master uses to distribute work round-robin (§VIII-B1).
// The Message body receives its processor context.
func (rt *Runtime) SyncSend(proc int, fn func(*Proc)) {
	p := rt.procs[proc]
	m := ult.NewTasklet(func() { fn(&Proc{p: p}) })
	ult.MarkReady(m)
	p.push(m)
}

// CthCreate creates a ULT in processor 0's queue — from the master, the
// local processor (CthCreate cannot target remote processors).
func (rt *Runtime) CthCreate(fn func(*CthCtx)) *Cth {
	return rt.procs[0].cthCreate(fn)
}

func (p *Processor) cthCreate(fn func(*CthCtx)) *Cth {
	c := &Cth{p: p, fn: fn}
	c.u = ult.NewWith(cthBody, c)
	c.gen = c.u.Gen()
	ult.MarkReady(c.u)
	p.push(c.u)
	return c
}

// SyncSendBatch enqueues one Message per body into the named processor's
// queue with a single batched insertion — a CmiSyncSend burst paying the
// queue synchronization once.
func (rt *Runtime) SyncSendBatch(proc int, fns []func(*Proc)) {
	p := rt.procs[proc]
	bodies := make([]func(), len(fns))
	for i, fn := range fns {
		fn := fn
		bodies[i] = func() { fn(&Proc{p: p}) }
	}
	ms := ult.NewTaskletBulk(bodies)
	units := make([]ult.Unit, len(ms))
	for i, m := range ms {
		ult.MarkReady(m)
		units[i] = m
	}
	p.pushAll(units)
}

// CthCreateBulk creates one local ULT per body in processor 0's queue
// with a single batched insertion (CthCreate cannot target remote
// processors, so bulk creation is local like the single-unit form).
func (rt *Runtime) CthCreateBulk(fns []func(*CthCtx)) []*Cth {
	return rt.procs[0].cthCreateBulk(fns)
}

func (p *Processor) cthCreateBulk(fns []func(*CthCtx)) []*Cth {
	cs := make([]*Cth, len(fns))
	units := make([]ult.Unit, len(fns))
	for i, fn := range fns {
		c := &Cth{p: p, fn: fn}
		c.u = ult.NewWith(cthBody, c)
		c.gen = c.u.Gen()
		ult.MarkReady(c.u)
		cs[i] = c
		units[i] = c.u
	}
	p.pushAll(units)
	return cs
}

// Yield runs one unit from processor 0's queue if there is one (CthYield
// from the master in return mode). It reports whether a unit ran. These
// are the "extra yield calls" of §IX-B: two-step algorithms need them so
// the master's own Messages make progress.
func (rt *Runtime) Yield() bool {
	rt.yieldOps.Add(1)
	t0 := time.Now()
	ran := rt.procs[0].runOne()
	if !ran {
		// An empty poll is pure synchronization: the master found no
		// local unit and is waiting for remote processors to make
		// progress. Hand the OS thread over inside the measured window
		// so that wait is attributed to sync time — the paper charges
		// exactly this master-side waiting ("extra yield calls") with
		// 70-75 % of two-step execution time (§IX-B, §IX-D). It also
		// lets the remote schedulers run at all on a single-P machine.
		osYield()
	}
	d := time.Since(t0)
	rt.syncNanos.Add(int64(d))
	rt.masterRing.EmitAt(trace.KindYield, 0, t0, d)
	return ran
}

// MainPark builds the master's idle park (core.Runtime.MainPark). Nobody
// else drives processor 0, so park runs its queue until it is empty and
// only then sleeps, on processor 0's idler: any push into that queue
// moves the epoch and the master runs the unit, and unpark — callable
// from any goroutine — sets the token and moves the epoch too. park
// returns once it finds the token; the epoch is captured before the
// final token check and queue poll, so neither a push nor an unpark can
// slip between them and the sleep.
func (rt *Runtime) MainPark() (park, unpark func()) {
	p := rt.procs[0]
	var kicked atomic.Bool
	park = func() {
		for {
			if kicked.CompareAndSwap(true, false) {
				return
			}
			if p.runOne() {
				continue
			}
			epoch := p.idle.Epoch()
			if kicked.CompareAndSwap(true, false) {
				return
			}
			if !p.runOne() {
				p.idle.Park(epoch)
			}
		}
	}
	unpark = func() {
		kicked.Store(true)
		p.idle.Wake()
	}
	return park, unpark
}

// SyncTime reports the cumulative wall time the master has spent inside
// Barrier and Yield. Comparing it against total execution time reproduces
// the paper's observation that Converse spends 70–75 % of two-step
// patterns in synchronization.
func (rt *Runtime) SyncTime() time.Duration {
	return time.Duration(rt.syncNanos.Load())
}

// Scheduler drains processor 0's queue and returns when it is empty —
// Converse's return mode (CsdScheduler in return mode, §VIII-B1).
func (rt *Runtime) Scheduler() {
	p := rt.procs[0]
	for p.runOne() {
		rt.yieldOps.Add(1)
	}
}

// Barrier broadcasts a barrier Message to every processor and drives
// processor 0 until the barrier completes. Every processor must execute
// its barrier Message before anyone proceeds, so the cost is linear in
// the processor count — the join behaviour Figure 3 shows for Converse.
func (rt *Runtime) Barrier() {
	t0 := time.Now()
	defer func() {
		d := time.Since(t0)
		rt.syncNanos.Add(int64(d))
		rt.masterRing.EmitAt(trace.KindBarrier, 0, t0, d)
	}()
	n := len(rt.procs)
	bar := barrier.NewCentral(n)
	for i := 1; i < n; i++ {
		rt.SyncSend(i, func(*Proc) { bar.Wait() })
	}
	// The master reaches the barrier through its own queue: everything
	// queued locally before the barrier runs first (queue flush).
	p := rt.procs[0]
	for p.runOne() {
	}
	bar.Wait()
	rt.barriers.Add(1)
}

// Finalize stops the remote processors (ConverseExit).
func (rt *Runtime) Finalize() {
	if !rt.finished.CompareAndSwap(false, true) {
		return
	}
	for _, p := range rt.procs {
		p.idle.Close()
	}
	rt.wg.Wait()
	rt.masterRing.Close()
	rt.procs[0].bat.Close()
}

// runOne is the master's step on processor 0: one unit from the queue
// (ult.Executor.Step), requeueing a yielded ULT behind the current tail.
// It reports whether a unit was taken; on an empty queue it publishes the
// open trace batch, since the gaps between master drives are not
// executor idleness.
func (p *Processor) runOne() bool {
	if p.exec.Step(p.src, p.bat) {
		return true
	}
	p.bat.Flush()
	return false
}

// loop is the scheduling goroutine of processors 1..n-1.
func (p *Processor) loop() {
	defer p.rt.wg.Done()
	bat := trace.Default().Ring(fmt.Sprintf("converse/p%d", p.id), p.id).Batcher()
	defer bat.Close()
	p.exec.Run(p.src, &p.idle, bat)
}

// SchedStats sums the queue counters across every processor.
func (rt *Runtime) SchedStats() queue.Counts {
	var c queue.Counts
	for _, p := range rt.procs {
		c = c.Plus(sched.CountsOf(p.q))
		c.Parks += p.exec.Stats().Parks.Load()
	}
	return c
}

// --- Proc: operations valid inside a Message body ---

// ID reports the processor executing the Message.
func (pc *Proc) ID() int { return pc.p.id }

// CthCreate creates a local ULT from inside a Message.
func (pc *Proc) CthCreate(fn func(*CthCtx)) *Cth { return pc.p.cthCreate(fn) }

// SyncSend sends a Message to another processor from inside a Message.
func (pc *Proc) SyncSend(proc int, fn func(*Proc)) { pc.p.rt.SyncSend(proc, fn) }

// --- CthCtx: operations valid inside a ULT body ---

// ID reports the processor executing the ULT.
func (cc *CthCtx) ID() int { return cc.p.id }

// Yield re-enters the local scheduler (CthYield).
func (cc *CthCtx) Yield() { cc.self.Yield() }

// Join waits for another ULT from inside a ULT. The joiner parks in the
// target's single-waiter slot (CthSuspend) and the finishing unit awakens
// it back into the joiner's own processor queue (CthAwaken) — ULTs never
// migrate between processors, so the requeue target is always the
// processor the joiner was created on. Falls back to poll-yield when the
// slot is held by another joiner.
func (cc *CthCtx) Join(target *Cth) {
	if !target.claim.CompareAndSwap(false, true) {
		// Another joiner owns (and will free) the descriptor; poll the
		// recycle-safe completion word only.
		for !target.Done() {
			cc.self.Yield()
		}
		return
	}
	p := cc.p
	for !target.u.Done() {
		if ult.ParkJoinStep(cc.self, target.u, func(j *ult.ULT, _ *ult.Executor) { p.push(j) }) {
			break
		}
		cc.self.Yield()
	}
	target.release()
}

// IOPark builds the park/unpark pair the aio reactor blocks this ULT
// with: park suspends it (CthSuspend), and unpark — callable from any
// goroutine — awakens it back into its own processor's queue
// (CthAwaken; SyncSend already proves foreign pushes into processor
// queues are safe). ULTs never migrate between processors, so placement
// is preserved by construction. On processor 0 the resumed unit runs
// only when the master next drives the processor — a Yield, or the
// queue drain inside MainPark, which the push's wake rouses.
func (cc *CthCtx) IOPark() (park func(), unpark func()) {
	self, p := cc.self, cc.p
	return func() { self.Suspend() }, func() {
		ult.ResumeAndRequeue(self, func(j *ult.ULT) { p.push(j) })
	}
}

// YieldTo hands control directly to another local ULT (CthYieldTo).
func (cc *CthCtx) YieldTo(target *Cth) { cc.self.YieldTo(target.u) }

// CthCreate creates another local ULT from inside a ULT.
func (cc *CthCtx) CthCreate(fn func(*CthCtx)) *Cth { return cc.p.cthCreate(fn) }

// SyncSend sends a Message to another processor from inside a ULT.
func (cc *CthCtx) SyncSend(proc int, fn func(*Proc)) { cc.p.rt.SyncSend(proc, fn) }
