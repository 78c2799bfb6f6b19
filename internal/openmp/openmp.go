// Package openmp emulates the two OpenMP runtimes the paper benchmarks
// against (§III-A, §VII): the GNU (gcc/libgomp) and Intel (icc) runtimes,
// both built on OS threads. The emulation reproduces the mechanisms the
// paper uses to explain every OpenMP curve:
//
//   - team-based parallel regions whose worker threads are created at
//     region entry and joined at region exit;
//   - gcc: one shared task queue per team protected by a mutex, a task
//     cutoff of 64×nthreads, a barrier join, and no idle-thread reuse in
//     nested regions (each nested pragma spawns a brand-new team — the
//     source of the 35,036 threads of §IX-C);
//   - icc: a private task deque per thread with work stealing, a cutoff
//     of 256 tasks per queue, a status-word join, and idle-thread reuse
//     through a thread pool in nested regions;
//   - OMP_WAIT_POLICY active/passive, which §IX-B had to set to passive
//     for gcc to tame task-queue contention.
//
// Team threads are goroutines; with Config.Heavy they are pinned to OS
// threads (runtime.LockOSThread) so thread creation and residency carry
// true OS-thread weight.
package openmp

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/barrier"
	"repro/internal/queue"
	"repro/internal/ult"
)

// Flavor selects which vendor runtime's mechanisms are emulated.
type Flavor int

const (
	// GCC is the GNU libgomp model.
	GCC Flavor = iota
	// ICC is the Intel runtime model.
	ICC
)

// String names the flavor as the paper's figure legends do.
func (f Flavor) String() string {
	if f == ICC {
		return "icc"
	}
	return "gcc"
}

// WaitPolicy is OMP_WAIT_POLICY.
type WaitPolicy int

const (
	// Active busy-waits on the task queues and barriers.
	Active WaitPolicy = iota
	// Passive yields the processor between queue polls — the setting
	// §IX-B uses to reduce gcc's shared-queue contention.
	Passive
)

// String names the wait policy.
func (w WaitPolicy) String() string {
	if w == Passive {
		return "passive"
	}
	return "active"
}

// Cutoff thresholds of §VII-B: once reached, new tasks execute inline
// ("sequentially instead of being pushed into the queues").
const (
	// GCCCutoffPerThread: gcc cuts off at 64 × nthreads outstanding.
	GCCCutoffPerThread = 64
	// ICCCutoffPerQueue: icc cuts off at 256 tasks in a thread's queue.
	ICCCutoffPerQueue = 256
)

// Config parameterizes the runtime.
type Config struct {
	// Flavor selects GCC or ICC mechanisms.
	Flavor Flavor
	// NumThreads is the team size for parallel regions (OMP_NUM_THREADS).
	NumThreads int
	// WaitPolicy is OMP_WAIT_POLICY.
	WaitPolicy WaitPolicy
	// Heavy pins every team thread to an OS thread.
	Heavy bool
	// DisableCutoff turns the task cutoff off (ablation; the real
	// runtimes' cutoffs are non-configurable, §VII-B).
	DisableCutoff bool
}

// Runtime is an OpenMP-like runtime instance.
type Runtime struct {
	cfg Config

	// pool reuses idle threads: icc for all regions; gcc only for
	// top-level teams (libgomp keeps a thread pool for the outermost
	// team but spawns fresh threads for every nested one, §VII-C).
	pool chan *pooledWorker

	threadsCreated atomic.Uint64 // workers ever spawned
	tasksInlined   atomic.Uint64 // cutoff-triggered inline executions
	tasksQueued    atomic.Uint64
	steals         atomic.Uint64
	parks          atomic.Uint64 // passive region-end barrier parks
	closed         atomic.Bool
}

// pooledWorker is an icc pool thread parked between regions.
type pooledWorker struct {
	jobs chan func()
}

// New creates a runtime. It panics if cfg.NumThreads < 1.
func New(cfg Config) *Runtime {
	if cfg.NumThreads < 1 {
		panic(fmt.Sprintf("openmp: NumThreads = %d, need >= 1", cfg.NumThreads))
	}
	rt := &Runtime{cfg: cfg}
	rt.pool = make(chan *pooledWorker, 16384)
	return rt
}

// Config returns the runtime's configuration.
func (rt *Runtime) Config() Config { return rt.cfg }

// ThreadsCreated reports how many worker threads were ever spawned —
// gcc's lack of nested reuse makes this grow with every nested pragma
// (35,036 in the paper's 36-thread nested run, §IX-C).
func (rt *Runtime) ThreadsCreated() uint64 { return rt.threadsCreated.Load() }

// TasksInlined reports how many tasks the cutoff executed sequentially.
func (rt *Runtime) TasksInlined() uint64 { return rt.tasksInlined.Load() }

// TasksQueued reports how many tasks entered a queue.
func (rt *Runtime) TasksQueued() uint64 { return rt.tasksQueued.Load() }

// Steals reports successful task steals (icc only).
func (rt *Runtime) Steals() uint64 { return rt.steals.Load() }

// Parks reports how often a member parked in the passive region-end
// barrier with no task outstanding.
func (rt *Runtime) Parks() uint64 { return rt.parks.Load() }

// Close releases pooled threads (icc). Regions must not be in flight.
func (rt *Runtime) Close() {
	if !rt.closed.CompareAndSwap(false, true) {
		return
	}
	if rt.pool == nil {
		return
	}
	for {
		select {
		case w := <-rt.pool:
			close(w.jobs)
		default:
			return
		}
	}
}

// team is one parallel region's thread team and task state.
type team struct {
	rt   *Runtime
	size int

	// shared is the gcc task queue: the single global queue of the
	// paper's gcc-OpenMP model (§VI), which every team member pushes
	// to and pops from. It is the lock-free FIFO, so that single-queue
	// contention shows up as CAS failures on its head.
	shared *queue.FIFO
	// deques are the icc per-thread task deques. They stay on the mutex
	// deque rather than the lock-free Chase–Lev one: a nested task body
	// captures its creator's TeamCtx, so when a stolen parent spawns
	// children, the *stealing* member pushes to the creator's deque —
	// every member is a potential bottom-end producer of every deque,
	// which violates the Chase–Lev single-owner discipline (and matches
	// the real icc runtime, whose queues are locked).
	deques      []*queue.MutexDeque
	outstanding atomic.Int64 // queued-but-unfinished tasks
	arrived     atomic.Int64 // members that reached the region end
	// idle is the wake domain of members parked in the passive
	// region-end barrier: a task push and the last arrival wake it.
	idle ult.Idler

	bar       *barrier.Central // gcc join
	spin      *barrier.Spin    // gcc join under active policy
	doneFlags []atomic.Bool    // icc join: master checks each word
	execs     []*ult.Executor  // per-member executors (tasklet running)
}

// TeamCtx is the per-thread view of a parallel region, passed to region
// bodies.
type TeamCtx struct {
	tm  *team
	tid int
}

// TID reports the calling thread's rank in the team.
func (tc *TeamCtx) TID() int { return tc.tid }

// NumThreads reports the team size.
func (tc *TeamCtx) NumThreads() int { return tc.tm.size }

// Runtime returns the owning runtime (for nested regions).
func (tc *TeamCtx) Runtime() *Runtime { return tc.tm.rt }

// Parallel executes body on a team of cfg.NumThreads threads: the caller
// runs as thread 0, workers are drawn from the thread pool or spawned.
// The region ends with an implicit task drain and join. For nested teams
// use TeamCtx.Parallel, which applies the flavor-specific thread
// management of §VII-C (gcc: always fresh threads; icc: pool reuse).
func (rt *Runtime) Parallel(body func(*TeamCtx)) {
	rt.parallel(body, false, nil)
}

// ParallelTimed runs a top-level region and reports the master's two
// phases separately: create is the time to hand work to every team member
// (the function-pointer setup of §VII-A) and join is the time from the
// master finishing its own share until the region's join completes — the
// quantities of Figures 2 and 3.
func (rt *Runtime) ParallelTimed(body func(*TeamCtx)) (create, join time.Duration) {
	var t0, t1, t2 time.Time
	rt.parallel(body, false, func(phase int) {
		switch phase {
		case 0:
			t0 = time.Now()
		case 1:
			t1 = time.Now()
		case 2:
			t2 = time.Now()
		}
	})
	return t1.Sub(t0), t2.Sub(t1)
}

// parallel implements Parallel; mark receives phase callbacks for
// ParallelTimed (0 = before dispatch, 1 = after dispatch, 2 = after
// join).
func (rt *Runtime) parallel(body func(*TeamCtx), nested bool, mark func(int)) {
	n := rt.cfg.NumThreads
	tm := &team{rt: rt, size: n}
	tm.execs = make([]*ult.Executor, n)
	for i := range tm.execs {
		tm.execs[i] = ult.NewExecutor(i)
	}
	if rt.cfg.Flavor == GCC {
		tm.shared = queue.NewFIFO(256)
		if rt.cfg.WaitPolicy == Active {
			tm.spin = barrier.NewSpin(n)
		} else {
			tm.bar = barrier.NewCentral(n)
		}
	} else {
		tm.deques = make([]*queue.MutexDeque, n)
		for i := range tm.deques {
			tm.deques[i] = queue.NewMutexDeque(64)
		}
		tm.doneFlags = make([]atomic.Bool, n)
	}

	var wg sync.WaitGroup
	if mark != nil {
		mark(0)
	}
	for tid := 1; tid < n; tid++ {
		wg.Add(1)
		rt.spawnMember(tm, tid, body, &wg, nested)
	}
	if mark != nil {
		// Create phase ends once the master has handed work to every
		// member; its own share and the join follow.
		mark(1)
	}
	tm.member(0, body)
	// Master-side join: gcc already joined at the team barrier inside
	// member; icc's master checks every worker's status word —
	// "a sequential approach that checks a memory word value" (§VI).
	if rt.cfg.Flavor == ICC {
		for tid := 1; tid < n; tid++ {
			for !tm.doneFlags[tid].Load() {
				if rt.cfg.WaitPolicy == Passive {
					runtime.Gosched()
				}
			}
		}
	}
	wg.Wait()
	if mark != nil {
		mark(2)
	}
}

// spawnMember starts team member tid. icc reuses pooled threads for every
// region; gcc reuses them only for top-level regions and always creates
// fresh threads for nested teams (the §IX-C thread explosion).
func (rt *Runtime) spawnMember(tm *team, tid int, body func(*TeamCtx), wg *sync.WaitGroup, nested bool) {
	run := func() {
		defer wg.Done()
		tm.member(tid, body)
	}
	reuse := rt.cfg.Flavor == ICC || !nested
	if reuse {
		select {
		case w := <-rt.pool:
			w.jobs <- run
			return
		default:
		}
	}
	rt.threadsCreated.Add(1)
	w := &pooledWorker{jobs: make(chan func(), 1)}
	go func() {
		if rt.cfg.Heavy {
			runtime.LockOSThread()
		}
		for job := range w.jobs {
			job()
			if !reuse {
				return // a gcc nested-team thread dies with its team
			}
			select {
			case rt.pool <- w:
			default:
				return // pool full; let the thread exit
			}
		}
	}()
	w.jobs <- run
}

// member runs one thread's share of the region: the body, then the
// implicit region-end task drain and join.
func (tm *team) member(tid int, body func(*TeamCtx)) {
	tc := &TeamCtx{tm: tm, tid: tid}
	body(tc)
	// Implicit region-end barrier with task execution: a member that
	// finishes its body keeps pulling tasks until the whole team has
	// arrived AND none remain outstanding. Both real runtimes execute
	// tasks from inside the barrier wait; without this, an idle worker
	// whose queue view is momentarily empty would leave the region while
	// the single-region creator (§VII-B1) is still producing tasks, and
	// icc's thieves would never get anything to steal.
	if tm.arrived.Add(1) == int64(tm.size) {
		tm.idle.Wake()
	}
	tm.drainRegionEnd(tid)
	// Region-end join.
	if tm.rt.cfg.Flavor == GCC {
		if tm.spin != nil {
			tm.spin.Wait()
		} else {
			tm.bar.Wait()
		}
	} else if tid != 0 {
		tm.doneFlags[tid].Store(true)
	}
}

// Task creates an explicit task from thread tid (#pragma omp task). The
// cutoff executes it inline instead once the flavor's threshold is
// reached (§VII-B).
func (tc *TeamCtx) Task(fn func()) {
	tm, rt := tc.tm, tc.tm.rt
	if !rt.cfg.DisableCutoff {
		if rt.cfg.Flavor == GCC {
			if tm.outstanding.Load() >= int64(GCCCutoffPerThread*tm.size) {
				rt.tasksInlined.Add(1)
				fn()
				return
			}
		} else if tm.deques[tc.tid].Len() >= ICCCutoffPerQueue {
			rt.tasksInlined.Add(1)
			fn()
			return
		}
	}
	tm.outstanding.Add(1)
	rt.tasksQueued.Add(1)
	tk := ult.NewTasklet(fn)
	ult.MarkReady(tk)
	if rt.cfg.Flavor == GCC {
		tm.shared.Push(tk)
	} else {
		tm.deques[tc.tid].PushBottom(tk)
	}
	tm.idle.Wake()
}

// Single runs fn on exactly one thread (#pragma omp single): thread 0
// executes it while the others fall through to the implicit task drain,
// executing tasks as they appear — the single-region task pattern of
// §VII-B1.
func (tc *TeamCtx) Single(fn func()) {
	if tc.tid == 0 {
		fn()
	}
}

// TaskWait drains tasks until none remain in flight for this team
// (#pragma omp taskwait, collapsed to team scope in this model).
func (tc *TeamCtx) TaskWait() { tc.tm.drainTasks(tc.tid) }

// nextTask fetches one runnable task for thread tid under the flavor's
// scheduling rules.
func (tm *team) nextTask(tid int) *ult.Tasklet {
	if tm.rt.cfg.Flavor == GCC {
		if u := tm.shared.Pop(); u != nil {
			return u.(*ult.Tasklet)
		}
		return nil
	}
	if u := tm.deques[tid].PopBottom(); u != nil {
		return u.(*ult.Tasklet)
	}
	// Work stealing: triggered "once a thread's task queue is empty and
	// the thread is idle" (§III-A).
	for off := 1; off < tm.size; off++ {
		victim := (tid + off) % tm.size
		if u := tm.deques[victim].StealTop(); u != nil {
			tm.rt.steals.Add(1)
			return u.(*ult.Tasklet)
		}
	}
	return nil
}

// drainRegionEnd executes tasks until every member has arrived at the
// region end and no tasks remain — the task-executing implicit barrier.
func (tm *team) drainRegionEnd(tid int) {
	var idle uint32
	var epoch uint64
	for {
		tk := tm.nextTask(tid)
		if tk == nil {
			if tm.arrived.Load() == int64(tm.size) && tm.outstanding.Load() == 0 {
				return
			}
			if tm.rt.cfg.WaitPolicy == Passive {
				// While tasks are outstanding, poll hot so thieves keep
				// their steal window. With none outstanding this is a
				// pure barrier wait on slower siblings' bodies: after the
				// executors' spin budget the member captures the idle
				// epoch, polls once more, and parks until a task push or
				// the last arrival moves it — the task-creation wake both
				// real runtimes give threads asleep in the barrier. So
				// early finishers of an imbalanced region do not burn a
				// core each (Active keeps the faithful busy-wait).
				if tm.outstanding.Load() == 0 {
					switch idle++; {
					case idle == ult.SpinBudget():
						epoch = tm.idle.Epoch()
						continue
					case idle > ult.SpinBudget():
						tm.rt.parks.Add(1)
						tm.idle.Park(epoch)
						idle = 0
						continue
					}
				}
				runtime.Gosched()
			}
			continue
		}
		idle = 0
		tm.execs[tid].RunTasklet(tk)
		tm.outstanding.Add(-1)
	}
}

// drainTasks executes tasks until the team has none outstanding
// (#pragma omp taskwait semantics; see TaskWait).
func (tm *team) drainTasks(tid int) {
	for {
		tk := tm.nextTask(tid)
		if tk == nil {
			if tm.outstanding.Load() == 0 {
				return
			}
			// Tasks in flight elsewhere: wait according to policy.
			if tm.rt.cfg.WaitPolicy == Passive {
				runtime.Gosched()
			}
			continue
		}
		tm.execs[tid].RunTasklet(tk)
		tm.outstanding.Add(-1)
	}
}

// Parallel creates a nested team from inside a region (#pragma omp
// parallel encountered by a team thread, §VII-C): gcc spawns a brand-new
// set of threads and parks the old ones idle; icc reuses pooled threads.
func (tc *TeamCtx) Parallel(body func(*TeamCtx)) {
	tc.tm.rt.parallel(body, true, nil)
}

// ParallelFor runs a nested statically chunked parallel loop from inside
// a region (Listing 3's inner pragma).
func (tc *TeamCtx) ParallelFor(n int, body func(i int)) {
	tc.Parallel(func(inner *TeamCtx) {
		lo, hi := ChunkRange(n, inner.tm.size, inner.tid)
		for i := lo; i < hi; i++ {
			body(i)
		}
	})
}

// ParallelFor runs a statically chunked parallel loop (#pragma omp
// parallel for): each thread executes a contiguous iteration range, with
// the implicit barrier at the end (§VII-A).
func (rt *Runtime) ParallelFor(n int, body func(i int)) {
	rt.Parallel(func(tc *TeamCtx) {
		lo, hi := ChunkRange(n, tc.tm.size, tc.tid)
		for i := lo; i < hi; i++ {
			body(i)
		}
	})
}

// ChunkRange computes thread tid's half-open static chunk of n iterations
// over nthreads threads.
func ChunkRange(n, nthreads, tid int) (lo, hi int) {
	base := n / nthreads
	rem := n % nthreads
	lo = tid*base + min(tid, rem)
	hi = lo + base
	if tid < rem {
		hi++
	}
	return lo, hi
}
