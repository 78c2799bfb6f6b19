// Package qthreads emulates the Qthreads programming model (§III-D): a
// three-level hierarchy of Shepherds → Workers → work units, where
// Shepherds own the work queues and can be bound to the node, a socket or
// a CPU, and synchronization is built on full/empty bits (FEB): a fork
// returns the address of a return-value word that the ULT fills on
// completion, and joining is qthread_readFF on that word (Table II).
//
// Unlike the adopted-main runtimes (Argobots, MassiveThreads, Converse),
// the Qthreads main thread stays outside the runtime: qthread_initialize
// spawns the shepherd/worker pthreads and main blocks in readFF when
// joining — exactly the shape implemented here.
package qthreads

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/feb"
	"repro/internal/queue"
	"repro/internal/sched"
	"repro/internal/topo"
	"repro/internal/trace"
	"repro/internal/ult"
)

// Config selects the shepherd/worker layout (§VIII-B3).
type Config struct {
	// Shepherds is the number of shepherds (work-queue domains).
	Shepherds int
	// WorkersPerShepherd is the number of executor threads serving each
	// shepherd's queue.
	WorkersPerShepherd int
	// Policy, when non-nil, constructs each shepherd's pool ordering —
	// the plug-in scheduler slot of Table I. Nil means FIFO, the library
	// default. The factory runs once per shepherd, so pools are never
	// shared.
	Policy func() sched.Policy
}

// Validate reports whether the layout is usable.
func (c Config) Validate() error {
	if c.Shepherds < 1 || c.WorkersPerShepherd < 1 {
		return fmt.Errorf("qthreads: invalid layout %d shepherds x %d workers", c.Shepherds, c.WorkersPerShepherd)
	}
	return nil
}

// String renders the layout like "4 shepherds x 1 worker".
func (c Config) String() string {
	return fmt.Sprintf("%d shepherds x %d workers", c.Shepherds, c.WorkersPerShepherd)
}

// PerNode returns the one-shepherd-manages-the-node layout of §VIII-B3,
// with as many workers as the topology has processing units. Better for a
// reduced number of work units, at the price of load imbalance.
func PerNode(t topo.Topology, nthreads int) Config {
	if nthreads < 1 {
		nthreads = t.Count(topo.LevelPU)
	}
	return Config{Shepherds: 1, WorkersPerShepherd: nthreads}
}

// PerCPU returns the one-shepherd-per-CPU layout (each manages a single
// worker) — the configuration the paper selects for most experiments.
func PerCPU(nthreads int) Config {
	return Config{Shepherds: nthreads, WorkersPerShepherd: 1}
}

// PerSocket returns the one-shepherd-per-socket layout, which the paper
// evaluated and discarded ("it performed much worse than the other
// choices for all scenarios").
func PerSocket(t topo.Topology, nthreads int) Config {
	s := t.Sockets
	if s < 1 {
		s = 1
	}
	w := nthreads / s
	if w < 1 {
		w = 1
	}
	return Config{Shepherds: s, WorkersPerShepherd: w}
}

// Runtime is an initialized Qthreads instance.
type Runtime struct {
	cfg       Config
	shepherds []*Shepherd
	febTable  *feb.Table
	// bulkNext is ForkBulk's round-robin cursor, so successive small
	// batches rotate across shepherds like per-unit dealing does.
	bulkNext atomic.Uint64
	shutdown atomic.Bool
	wg       sync.WaitGroup
	finished atomic.Bool
}

// Shepherd owns one work-unit pool served by its workers. The pool's
// ordering is the configured scheduling policy (FIFO unless Config.Policy
// overrides it); idle is the wake domain of the workers serving it.
type Shepherd struct {
	id      int
	rt      *Runtime
	pool    sched.Policy
	idle    ult.Idler
	workers []*Worker
}

// push inserts a ready unit into the shepherd's pool and wakes its parked
// workers. Every single-unit insertion goes through here.
func (s *Shepherd) push(u ult.Unit) {
	s.pool.Push(u)
	s.idle.Wake()
}

// requeue reinserts a yielded unit (sched.Requeue) and wakes the pool's
// other workers.
func (s *Shepherd) requeue(t *ult.ULT) {
	sched.Requeue(s.pool, t)
	s.idle.Wake()
}

// ID returns the shepherd's rank.
func (s *Shepherd) ID() int { return s.id }

// QueueStats exposes the shepherd pool's counters when the configured
// policy keeps them (FIFO and LIFO do); other policies return nil. The
// contention of many workers sharing one pool is visible here.
func (s *Shepherd) QueueStats() *queue.Stats {
	if p, ok := s.pool.(interface{ Stats() *queue.Stats }); ok {
		return p.Stats()
	}
	return nil
}

// Worker is the middle level of the hierarchy: the executor thread that
// runs work units from its shepherd's queue.
type Worker struct {
	exec *ult.Executor
	shep *Shepherd
}

// Stats exposes the worker's executor counters.
func (w *Worker) Stats() *ult.ExecStats { return w.exec.Stats() }

// Thread is a handle on a forked qthread: the ULT plus the FEB word its
// return value fills. The handle carries the body and per-run context so
// forking allocates only the handle and its FEB word (ult.NewWith), plus
// the descriptor generation so Done stays answerable after a join
// released the descriptor.
//
// Join discipline: the joiner that wins the handle's claim owns the
// descriptor — it may park in the waiter slot and frees the descriptor
// once it observes completion (its pending free keeps the descriptor out
// of the reuse pool meanwhile), mirroring the C library, where a
// qthread's structure is reclaimed once it completes and joins go
// through the FEB word alone. Joiners that lost the claim poll the FEB
// word plus the recycle-safe Done, so concurrent ReadFF calls on one
// handle are safe.
type Thread struct {
	u   *ult.ULT
	ret feb.Addr
	rt  *Runtime
	fn  func(*Context)
	s   *Shepherd
	gen uint64
	// claim elects the one joiner allowed to touch the descriptor and
	// obliged to free it; freed records that the free happened.
	claim atomic.Bool
	freed atomic.Bool
	ctx   Context
}

// qtBody is the closure-free qthread body: completion fills the
// return-value word (deferred so a panicking body, contained by the
// substrate, still releases its joiners), then readFF joins on it.
func qtBody(self *ult.ULT, arg any) {
	th := arg.(*Thread)
	defer th.rt.febTable.WriteF(th.ret, 0)
	th.ctx = Context{rt: th.rt, self: self, shep: th.s}
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

// Ret returns the FEB address of the thread's return-value word, usable
// directly with the runtime's FEB table.
func (th *Thread) Ret() feb.Addr { return th.ret }

// Done reports completion without blocking; the generation-counted
// completion word keeps the answer correct after the descriptor was
// freed and recycled.
func (th *Thread) Done() bool { return th.freed.Load() || th.u.DoneAt(th.gen) }

// Context is passed to qthread bodies.
type Context struct {
	rt   *Runtime
	self *ult.ULT
	shep *Shepherd
}

// Init starts the runtime with the given layout (qthread_initialize). The
// caller remains an ordinary goroutine outside the runtime.
func Init(cfg Config) (*Runtime, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rt := &Runtime{cfg: cfg, febTable: feb.NewTable()}
	pool := cfg.Policy
	if pool == nil {
		pool = sched.Default
	}
	for i := 0; i < cfg.Shepherds; i++ {
		s := &Shepherd{id: i, rt: rt, pool: pool()}
		for w := 0; w < cfg.WorkersPerShepherd; w++ {
			wk := &Worker{exec: ult.NewExecutor(i*cfg.WorkersPerShepherd + w), shep: s}
			s.workers = append(s.workers, wk)
		}
		rt.shepherds = append(rt.shepherds, s)
	}
	for _, s := range rt.shepherds {
		for _, w := range s.workers {
			rt.wg.Add(1)
			go w.loop()
		}
	}
	return rt, nil
}

// MustInit is Init for known-good configurations; it panics on error.
func MustInit(cfg Config) *Runtime {
	rt, err := Init(cfg)
	if err != nil {
		panic(err)
	}
	return rt
}

// NumShepherds reports the shepherd count.
func (rt *Runtime) NumShepherds() int { return len(rt.shepherds) }

// NumWorkers reports the total worker count.
func (rt *Runtime) NumWorkers() int {
	return len(rt.shepherds) * rt.cfg.WorkersPerShepherd
}

// FEB exposes the runtime's full/empty-bit table for user-level
// synchronization (the free-access-to-memory model of §III-D).
func (rt *Runtime) FEB() *feb.Table { return rt.febTable }

// Fork creates a qthread in shepherd 0's queue — the "current" shepherd
// from the main thread's perspective (qthread_fork, §VIII-B3).
func (rt *Runtime) Fork(fn func(*Context)) *Thread {
	return rt.ForkTo(fn, 0)
}

// ForkTo creates a qthread directly in the named shepherd's queue
// (qthread_fork_to); the paper's microbenchmarks deal work round-robin
// with it.
func (rt *Runtime) ForkTo(fn func(*Context), shepherd int) *Thread {
	s := rt.shepherds[shepherd]
	th := &Thread{ret: rt.febTable.Alloc(), rt: rt, fn: fn, s: s}
	th.u = ult.NewWith(qtBody, th)
	th.gen = th.u.Gen()
	ult.MarkReady(th.u)
	s.push(th.u)
	return th
}

// ForkBulk forks one qthread per body, dealing contiguous blocks across
// the shepherds with one batched queue insertion per shepherd — the
// round-robin fork_to dispatch of §VIII-B3 with its per-unit submission
// cost amortized. The block rotation continues a runtime-level cursor so
// repeated small batches cover every shepherd instead of piling onto the
// low ranks (shepherds never steal, so dealing is the only balancing).
func (rt *Runtime) ForkBulk(fns []func(*Context)) []*Thread {
	ths := make([]*Thread, len(fns))
	k := len(rt.shepherds)
	per := (len(fns) + k - 1) / k
	start := int(rt.bulkNext.Add(1) - 1)
	var units []ult.Unit
	for blk := 0; blk*per < len(fns); blk++ {
		lo := blk * per
		hi := min(lo+per, len(fns))
		s := rt.shepherds[(start+blk)%k]
		units = units[:0]
		for i := lo; i < hi; i++ {
			th := &Thread{ret: rt.febTable.Alloc(), rt: rt, fn: fns[i], s: s}
			th.u = ult.NewWith(qtBody, th)
			th.gen = th.u.Gen()
			ult.MarkReady(th.u)
			ths[i] = th
			units = append(units, th.u)
		}
		sched.PushAll(s.pool, units)
		s.idle.Wake()
	}
	return ths
}

// ReadFF joins a thread from outside the runtime: it blocks the caller on
// the thread's return-value word until the qthread fills it
// (qthread_readFF, the join of Table II). The word is filled by a defer
// that runs marginally before the ULT's final state store, so ReadFF
// additionally spins out that last handful of instructions until the
// completion word is published — joiners must observe Done. (This spin
// replaced a channel join that allocated a waiter channel per join.)
func (rt *Runtime) ReadFF(th *Thread) uint64 {
	v := rt.febTable.ReadFF(th.ret)
	for !th.Done() {
		runtime.Gosched()
	}
	// Completion observed; the claim winner releases the descriptor
	// (a parked cooperative joiner holding the claim frees it instead).
	if th.claim.CompareAndSwap(false, true) {
		th.free()
	}
	return v
}

// Finalize stops the workers (qthread_finalize). Forked threads must have
// been joined first.
func (rt *Runtime) Finalize() {
	if !rt.finished.CompareAndSwap(false, true) {
		return
	}
	rt.shutdown.Store(true)
	for _, s := range rt.shepherds {
		s.idle.Close()
	}
	rt.wg.Wait()
}

// loop is one worker's scheduling cycle: serve the shepherd queue.
// Qthreads does not steal between shepherds; balance comes from placement
// (fork_to), which is why the paper's single-shepherd configuration shows
// load imbalance with many units.
func (w *Worker) loop() {
	rt := w.shep.rt
	defer rt.wg.Done()
	bat := trace.Default().Ring(
		fmt.Sprintf("qthreads/shep%d/es%d", w.shep.id, w.exec.ID()), w.exec.ID()).Batcher()
	defer bat.Close()
	for {
		if res, h, ok := w.exec.DispatchHint(); ok {
			if res == ult.DispatchYielded {
				w.shep.requeue(h)
			}
			continue
		}
		u := w.shep.pool.Pop()
		if u == nil {
			if rt.shutdown.Load() {
				return
			}
			w.exec.Idle(&w.shep.idle, bat)
			continue
		}
		t, ok := u.(*ult.ULT)
		if !ok {
			panic("qthreads: only ULT work units exist in this model")
		}
		bat.Begin()
		res := w.exec.Dispatch(t)
		bat.Note(trace.KindDispatch, 1)
		if res == ult.DispatchYielded {
			w.shep.requeue(t)
		}
	}
}

// SchedStats sums the pool counters across every shepherd queue.
func (rt *Runtime) SchedStats() queue.Counts {
	var c queue.Counts
	for _, s := range rt.shepherds {
		c = c.Plus(sched.CountsOf(s.pool))
		for _, w := range s.workers {
			c.Parks += w.exec.Stats().Parks.Load()
		}
	}
	return c
}

// --- Context: operations valid inside a running qthread ---

// Yield re-enters the shepherd's scheduler (qthread_yield).
func (c *Context) Yield() { c.self.Yield() }

// Shepherd reports the shepherd the qthread was forked to.
func (c *Context) Shepherd() int { return c.shep.id }

// IOPark builds the park/unpark pair the aio reactor blocks this
// qthread with: park suspends it (the worker serves the shepherd queue
// meanwhile), and unpark — callable from any goroutine — resumes it
// into its own shepherd's queue (sched.Policy pushes are MPMC-safe),
// preserving fork_to placement across the wait.
func (c *Context) IOPark() (park func(), unpark func()) {
	self, shep := c.self, c.shep
	return func() { self.Suspend() }, func() {
		ult.ResumeAndRequeue(self, func(j *ult.ULT) { shep.push(j) })
	}
}

// Fork creates a child qthread in the same shepherd's queue.
func (c *Context) Fork(fn func(*Context)) *Thread {
	return c.rt.ForkTo(fn, c.shep.id)
}

// ForkTo creates a child qthread in the named shepherd's queue.
func (c *Context) ForkTo(fn func(*Context), shepherd int) *Thread {
	return c.rt.ForkTo(fn, shepherd)
}

// ReadFF joins a thread from inside a qthread. Blocking the executor
// would stall every unit behind it, so the cooperative form parks the
// joiner in the target's single-waiter slot; the finishing qthread
// resumes it directly into its own shepherd's queue, preserving fork_to
// placement. When the slot is held by another joiner it falls back to
// polling the FEB word (and the completion state, see Runtime.ReadFF)
// with yields between polls.
func (c *Context) ReadFF(th *Thread) uint64 {
	if th.claim.CompareAndSwap(false, true) {
		// We own the descriptor: park in its waiter slot, then free it.
		shep := c.shep
		for {
			if v, ok := c.rt.febTable.TryReadFF(th.ret); ok && th.u.Done() {
				th.free()
				return v
			}
			if !ult.ParkJoinStep(c.self, th.u, func(j *ult.ULT, _ *ult.Executor) { shep.push(j) }) {
				self := c.self
				self.Yield()
			}
			// Resumed (or yielded back): completion implies the word is
			// full; re-read it.
		}
	}
	// Another joiner owns the descriptor (and will free it); poll the
	// word plus the recycle-safe completion state, touching nothing
	// else.
	for {
		if v, ok := c.rt.febTable.TryReadFF(th.ret); ok && th.Done() {
			return v
		}
		c.self.Yield()
	}
}
