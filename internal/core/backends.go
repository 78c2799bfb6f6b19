package core

import (
	"runtime"
	"sync/atomic"

	"repro/internal/argobots"
	"repro/internal/converse"
	"repro/internal/gothreads"
	"repro/internal/massivethreads"
	"repro/internal/qthreads"
	"repro/internal/queue"
	"repro/internal/sched"
)

// The registered backends. Variants the paper evaluates separately
// (MassiveThreads' two policies, Argobots' pool configurations) register
// under their own names so experiments can select them directly.
func init() {
	Register("argobots", func() Backend { return &argoBackend{pools: argobots.PrivatePools} })
	Register("argobots-shared", func() Backend { return &argoBackend{pools: argobots.SharedPool} })
	Register("qthreads", func() Backend { return &qtBackend{} })
	Register("qthreads-pernode", func() Backend { return &qtBackend{perNode: true} })
	Register("massivethreads", func() Backend { return &mtBackend{policy: massivethreads.WorkFirst} })
	Register("massivethreads-helpfirst", func() Backend { return &mtBackend{policy: massivethreads.HelpFirst} })
	Register("converse", func() Backend { return &cvBackend{} })
	Register("go", func() Backend { return &goBackend{} })
}

// taskletBulkViaULTs is the bulk form of the tasklet→ULT fallback shared
// by the backends without a stackless work unit (Table I): wrap each body
// and delegate to the backend's ULT bulk creator.
func taskletBulkViaULTs(fns []func(), ultBulk func([]func(Ctx)) []Handle) []Handle {
	wrapped := make([]func(Ctx), len(fns))
	for i, fn := range fns {
		fn := fn
		wrapped[i] = func(Ctx) { fn() }
	}
	return ultBulk(wrapped)
}

// policyFor resolves the negotiated scheduler name to a per-pool policy
// factory. Open has already validated the name, so resolution cannot
// fail; the empty name yields the FIFO default.
func policyFor(cfg Config) func() sched.Policy {
	f, ok := sched.ByName(cfg.Scheduler)
	if !ok {
		f, _ = sched.ByName(sched.DefaultPolicy)
	}
	return f
}

// modExec wraps an executor index into [0, n), the documented
// interpretation of ULTCreateTo targets (round-robin style, like
// qthread_fork_to dealing).
func modExec(executor, n int) int {
	if n <= 0 {
		return 0
	}
	executor %= n
	if executor < 0 {
		executor += n
	}
	return executor
}

// --- Argobots ---

type argoBackend struct {
	rt    *argobots.Runtime
	pools argobots.PoolKind
	// ultBody is the detached ULT body (runSpawned), bound once at Init
	// so Spawn does not build a method value per launch.
	ultBody func(*argobots.Context, any)
}

type argoULT struct {
	th *argobots.Thread
	b  *argoBackend
	// pinned is the ES this ULT was placed on with ULTCreateTo under
	// private pools (-1 when unpinned): YieldTo must not hijack it onto
	// another stream, or the Placement promise breaks.
	pinned int
	// joining elects the one unified-API joiner allowed to perform the
	// join-and-free (and so to park on the descriptor); concurrent
	// joiners that lose the claim poll Done, which stays answerable
	// after the winner freed and the descriptor recycled.
	joining atomic.Bool
	// joined latches completion at Join time: Argobots joins are
	// join-and-free, which returns the ULT descriptor to the reuse pool,
	// so Done must answer from the handle afterwards instead of reading
	// a descriptor that may already serve another work unit.
	joined atomic.Bool
}

func (h *argoULT) Done() bool { return h.joined.Load() || h.th.Done() }

type argoTasklet struct {
	tk      *argobots.Task
	joining atomic.Bool
	joined  atomic.Bool
}

func (h *argoTasklet) Done() bool { return h.joined.Load() || h.tk.Done() }

type argoCtx struct {
	b *argoBackend
	c *argobots.Context
}

func (b *argoBackend) Name() string {
	if b.pools == argobots.SharedPool {
		return "argobots-shared"
	}
	return "argobots"
}

func (b *argoBackend) Init(cfg Config) error {
	b.rt = argobots.Init(argobots.Config{
		XStreams:   cfg.Executors,
		Pools:      b.pools,
		BasePolicy: policyFor(cfg),
	})
	b.ultBody = b.runSpawned
	return nil
}

func (b *argoBackend) NumExecutors() int { return b.rt.NumXStreams() }

// SchedStats implements SchedStatsReporter from the substrate's pools.
func (b *argoBackend) SchedStats() queue.Counts { return b.rt.SchedStats() }

func (b *argoBackend) ULTCreate(fn func(Ctx)) Handle {
	return &argoULT{b: b, pinned: -1, th: b.rt.ThreadCreate(func(c *argobots.Context) {
		fn(&argoCtx{b: b, c: c})
	})}
}

// ULTCreateTo pushes the ULT into the pool of the named execution stream
// (ABT_thread_create_to). With private pools only that stream dispatches
// it; with the shared pool every push lands in the one pool, so placement
// degrades to ordinary creation (Caps().Placement is false there).
func (b *argoBackend) ULTCreateTo(executor int, fn func(Ctx)) Handle {
	es := modExec(executor, b.rt.NumXStreams())
	pinned := -1
	if b.pools == argobots.PrivatePools {
		pinned = es
	}
	return &argoULT{b: b, pinned: pinned, th: b.rt.ThreadCreateTo(func(c *argobots.Context) {
		fn(&argoCtx{b: b, c: c})
	}, es)}
}

func (b *argoBackend) TaskletCreate(fn func()) Handle {
	return &argoTasklet{tk: b.rt.TaskCreate(fn)}
}

// Spawn implements Spawner over the substrate's detached creates: a
// tasklet gets w as its argument, so the launch allocates nothing; a ULT
// adds its context.
func (b *argoBackend) Spawn(w Work, ult bool) {
	if ult {
		b.rt.ThreadSpawn(b.ultBody, w)
		return
	}
	b.rt.TaskSpawn(runTasklet, w)
}

func runTasklet(w any) { w.(Work).Run(nil) }

func (b *argoBackend) runSpawned(c *argobots.Context, w any) {
	w.(Work).Run(&argoCtx{b: b, c: c})
}

// ULTCreateBulk implements BulkBackend over the substrate's batched
// round-robin dealing (one pool insertion per stream, one wake).
func (b *argoBackend) ULTCreateBulk(fns []func(Ctx)) []Handle {
	afns := make([]func(*argobots.Context), len(fns))
	for i, fn := range fns {
		fn := fn
		afns[i] = func(c *argobots.Context) { fn(&argoCtx{b: b, c: c}) }
	}
	ths := b.rt.ThreadCreateBulk(afns)
	hs := make([]Handle, len(ths))
	for i, th := range ths {
		hs[i] = &argoULT{b: b, pinned: -1, th: th}
	}
	return hs
}

// TaskletCreateBulk implements BulkBackend; see ULTCreateBulk.
func (b *argoBackend) TaskletCreateBulk(fns []func()) []Handle {
	tks := b.rt.TaskCreateBulk(fns)
	hs := make([]Handle, len(tks))
	for i, tk := range tks {
		hs[i] = &argoTasklet{tk: tk}
	}
	return hs
}

func (b *argoBackend) Yield() { b.rt.Yield() }

// MainPark implements MainParker: the adopted primary suspends and is
// resumed into ES 0's pool.
func (b *argoBackend) MainPark() (park, unpark func()) { return b.rt.MainPark() }

func (b *argoBackend) Join(h Handle) {
	// Argobots joins are join-and-free (ABT_thread_free / ABT_task_free).
	// The joining claim elects the one caller that performs it; losers
	// poll the handle, which answers from its own flags once freed.
	switch v := h.(type) {
	case *argoULT:
		if v.joining.CompareAndSwap(false, true) {
			_ = b.rt.ThreadFree(v.th)
			v.joined.Store(true)
			return
		}
		joinPoll(h, b.Yield)
	case *argoTasklet:
		if v.joining.CompareAndSwap(false, true) {
			_ = b.rt.TaskFree(v.tk)
			v.joined.Store(true)
			return
		}
		joinPoll(h, b.Yield)
	default:
		joinPoll(h, b.Yield)
	}
}

func (b *argoBackend) Finalize() { b.rt.Finalize() }

func (b *argoBackend) Caps() Capabilities {
	return Capabilities{
		HierarchyLevels: 2, WorkUnitTypes: 2, Tasklets: true,
		GroupControl: true, YieldTo: true,
		GlobalQueue: b.pools == argobots.SharedPool, PrivateQueues: b.pools == argobots.PrivatePools,
		PluginScheduler: true, StackableScheduler: true, Yieldable: true,
		Placement:     b.pools == argobots.PrivatePools,
		Schedulers:    sched.Names(),
		SyncMechanism: "atomic",
		AsyncIO:       true,
	}
}

func (c *argoCtx) Yield() { c.c.Yield() }

// IOPark exposes the substrate's park/unpark pair: the resumed ULT
// returns to the pool of the execution stream it was issued from, so a
// wait through aio preserves ULTCreateTo placement.
func (c *argoCtx) IOPark() (park func(), unpark func()) { return c.c.IOPark() }

// YieldTo hands control directly to the target ULT
// (ABT_thread_yield_to) — the operation only Argobots grants in Table I.
// It degrades to a plain Yield for non-ULT handles, handles of another
// runtime (a direct transfer would hijack them onto this runtime's
// executor), and ULTs pinned to a different execution stream (the
// transfer runs the target here, which would break the Placement
// promise of ULTCreateTo).
func (c *argoCtx) YieldTo(h Handle) {
	v, ok := h.(*argoULT)
	if !ok || v.b != c.b || (v.pinned >= 0 && v.pinned != c.ExecutorID()) {
		c.c.Yield()
		return
	}
	c.c.YieldTo(v.th)
}

func (c *argoCtx) ULTCreate(fn func(Ctx)) Handle {
	return &argoULT{b: c.b, pinned: -1, th: c.c.ThreadCreate(func(cc *argobots.Context) {
		fn(&argoCtx{b: c.b, c: cc})
	})}
}

func (c *argoCtx) ULTCreateTo(executor int, fn func(Ctx)) Handle {
	es := modExec(executor, c.b.rt.NumXStreams())
	pinned := -1
	if c.b.pools == argobots.PrivatePools {
		pinned = es
	}
	return &argoULT{b: c.b, pinned: pinned, th: c.c.ThreadCreateTo(func(cc *argobots.Context) {
		fn(&argoCtx{b: c.b, c: cc})
	}, es)}
}

func (c *argoCtx) TaskletCreate(fn func()) Handle {
	return &argoTasklet{tk: c.c.TaskCreate(fn)}
}

// Join from inside a ULT parks the joiner in the target's waiter slot and
// then frees the unit — the worker-side ABT_thread_free, matching the
// join-and-free the backend-level Join performs, so ULT-created work
// recycles its descriptor no matter which side joins it. The joining
// claim elects the one joiner that touches the descriptor; losers (and
// handles of other runtimes) fall back to the generic poll-yield join.
func (c *argoCtx) Join(h Handle) {
	switch v := h.(type) {
	case *argoULT:
		if v.joining.CompareAndSwap(false, true) {
			_ = c.c.JoinFree(v.th)
			v.joined.Store(true)
			return
		}
		joinPoll(h, c.c.Yield)
	case *argoTasklet:
		if v.joining.CompareAndSwap(false, true) {
			_ = c.c.JoinTaskFree(v.tk)
			v.joined.Store(true)
			return
		}
		joinPoll(h, c.c.Yield)
	default:
		joinPoll(h, c.c.Yield)
	}
}

func (c *argoCtx) ExecutorID() int { return c.c.XStreamID() }

func (c *argoCtx) NumExecutors() int { return c.b.rt.NumXStreams() }

// --- Qthreads ---

type qtBackend struct {
	rt      *qthreads.Runtime
	perNode bool
	rrNext  atomic.Uint64
	n       int
}

type qtULT struct {
	b  *qtBackend
	th *qthreads.Thread
}

func (h *qtULT) Done() bool { return h.th.Done() }

type qtCtx struct {
	b *qtBackend
	c *qthreads.Context
}

func (b *qtBackend) Name() string {
	if b.perNode {
		return "qthreads-pernode"
	}
	return "qthreads"
}

func (b *qtBackend) Init(cfg Config) error {
	b.n = cfg.Executors
	var qcfg qthreads.Config
	if b.perNode {
		qcfg = qthreads.PerNode(cfg.Executors)
	} else {
		qcfg = qthreads.PerCPU(cfg.Executors) // the paper's preferred layout
	}
	qcfg.Policy = policyFor(cfg)
	rt, err := qthreads.Init(qcfg)
	if err != nil {
		return err
	}
	b.rt = rt
	return nil
}

// NumExecutors reports the shepherd count — Qthreads' placement domain
// (Table I's executor for the three-level hierarchy). The per-CPU layout
// has one shepherd per configured executor; the per-node variant has a
// single shepherd serving every worker, so its one executor is rank 0.
func (b *qtBackend) NumExecutors() int { return b.rt.NumShepherds() }

// SchedStats implements SchedStatsReporter from the substrate's pools.
func (b *qtBackend) SchedStats() queue.Counts { return b.rt.SchedStats() }

func (b *qtBackend) ULTCreate(fn func(Ctx)) Handle {
	// Round-robin fork_to, the dispatch §VIII-B3 selects.
	shep := int(b.rrNext.Add(1)-1) % b.rt.NumShepherds()
	return b.forkTo(fn, shep)
}

// ULTCreateTo forks directly into the named shepherd's pool
// (qthread_fork_to). Shepherds never steal from each other, so the ULT
// runs on the targeted shepherd.
func (b *qtBackend) ULTCreateTo(executor int, fn func(Ctx)) Handle {
	return b.forkTo(fn, modExec(executor, b.rt.NumShepherds()))
}

func (b *qtBackend) forkTo(fn func(Ctx), shep int) Handle {
	return &qtULT{b: b, th: b.rt.ForkTo(func(c *qthreads.Context) {
		fn(&qtCtx{b: b, c: c})
	}, shep)}
}

// TaskletCreate falls back to a ULT: Qthreads has no stackless unit
// (Table I row "Tasklet Support").
func (b *qtBackend) TaskletCreate(fn func()) Handle {
	return b.ULTCreate(func(Ctx) { fn() })
}

// ULTCreateBulk implements BulkBackend over ForkBulk: contiguous blocks
// dealt across shepherds, one batched queue insertion per shepherd.
func (b *qtBackend) ULTCreateBulk(fns []func(Ctx)) []Handle {
	qfns := make([]func(*qthreads.Context), len(fns))
	for i, fn := range fns {
		fn := fn
		qfns[i] = func(c *qthreads.Context) { fn(&qtCtx{b: b, c: c}) }
	}
	ths := b.rt.ForkBulk(qfns)
	hs := make([]Handle, len(ths))
	for i, th := range ths {
		hs[i] = &qtULT{b: b, th: th}
	}
	return hs
}

// TaskletCreateBulk implements BulkBackend via the ULT fallback (no
// stackless unit, Table I).
func (b *qtBackend) TaskletCreateBulk(fns []func()) []Handle {
	return taskletBulkViaULTs(fns, b.ULTCreateBulk)
}

// Yield from the main thread is a no-op scheduling hint: the Qthreads
// main thread lives outside the runtime.
func (b *qtBackend) Yield() { runtime.Gosched() }

// MainPark implements MainParker with a channel wait: the shepherds'
// workers run on their own.
func (b *qtBackend) MainPark() (park, unpark func()) { return chanPark() }

func (b *qtBackend) Join(h Handle) {
	if v, ok := h.(*qtULT); ok {
		b.rt.ReadFF(v.th) // qthread_readFF on the return-value word
		return
	}
	joinPoll(h, b.Yield)
}

func (b *qtBackend) Finalize() { b.rt.Finalize() }

// NewMutexWord implements the FEB-native lock hook: the unified Mutex on
// Qthreads is a full/empty-bit word in the runtime's table, taken by
// emptying (readFE) and released by filling — qthread_lock/unlock.
func (b *qtBackend) NewMutexWord() (func() bool, func(), func()) {
	t := b.rt.FEB()
	a := t.Alloc()
	t.Fill(a) // allocated unlocked (full = token present)
	return func() bool { return t.TryLock(a) },
		func() { t.Unlock(a) },
		func() { t.Free(a) }
}

func (b *qtBackend) Caps() Capabilities {
	return Capabilities{
		HierarchyLevels: 3, WorkUnitTypes: 1, Tasklets: false,
		GroupControl: true, YieldTo: false,
		GlobalQueue: false, PrivateQueues: true,
		PluginScheduler: true, StackableScheduler: false, Yieldable: true,
		Placement:     true,
		Schedulers:    sched.Names(),
		SyncMechanism: "feb",
		AsyncIO:       true,
	}
}

func (c *qtCtx) Yield() { c.c.Yield() }

// IOPark exposes the substrate's park/unpark pair: the resumed thread
// returns to its shepherd's pool, preserving ForkTo placement across a
// wait.
func (c *qtCtx) IOPark() (park func(), unpark func()) { return c.c.IOPark() }

// YieldTo degrades to a plain Yield: Qthreads exposes no direct control
// transfer (Table I).
func (c *qtCtx) YieldTo(Handle) { c.c.Yield() }

func (c *qtCtx) ULTCreate(fn func(Ctx)) Handle {
	return &qtULT{b: c.b, th: c.c.Fork(func(cc *qthreads.Context) {
		fn(&qtCtx{b: c.b, c: cc})
	})}
}

func (c *qtCtx) ULTCreateTo(executor int, fn func(Ctx)) Handle {
	shep := modExec(executor, c.b.rt.NumShepherds())
	return &qtULT{b: c.b, th: c.c.ForkTo(func(cc *qthreads.Context) {
		fn(&qtCtx{b: c.b, c: cc})
	}, shep)}
}

func (c *qtCtx) TaskletCreate(fn func()) Handle {
	return c.ULTCreate(func(Ctx) { fn() })
}

func (c *qtCtx) Join(h Handle) {
	if v, ok := h.(*qtULT); ok {
		c.c.ReadFF(v.th)
		return
	}
	joinPoll(h, c.c.Yield)
}

func (c *qtCtx) ExecutorID() int { return c.c.Shepherd() }

func (c *qtCtx) NumExecutors() int { return c.b.rt.NumShepherds() }

// --- MassiveThreads ---

type mtBackend struct {
	rt     *massivethreads.Runtime
	policy massivethreads.Policy
}

type mtULT struct{ th *massivethreads.Thread }

func (h *mtULT) Done() bool { return h.th.Done() }

type mtCtx struct {
	b *mtBackend
	c *massivethreads.Context
}

func (b *mtBackend) Name() string {
	if b.policy == massivethreads.HelpFirst {
		return "massivethreads-helpfirst"
	}
	return "massivethreads"
}

func (b *mtBackend) Init(cfg Config) error {
	b.rt = massivethreads.Init(cfg.Executors, b.policy)
	return nil
}

func (b *mtBackend) NumExecutors() int { return b.rt.NumWorkers() }

// SchedStats implements SchedStatsReporter from the substrate's pools.
func (b *mtBackend) SchedStats() queue.Counts { return b.rt.SchedStats() }

func (b *mtBackend) ULTCreate(fn func(Ctx)) Handle {
	return &mtULT{th: b.rt.Create(func(c *massivethreads.Context) {
		fn(&mtCtx{b: b, c: c})
	})}
}

// ULTCreateTo degrades to local creation: myth_create has no target
// argument, and random work stealing migrates units between workers, so
// MassiveThreads cannot pin (Caps().Placement is false).
func (b *mtBackend) ULTCreateTo(_ int, fn func(Ctx)) Handle {
	return b.ULTCreate(fn)
}

// TaskletCreate falls back to a ULT (no tasklet support, Table I).
func (b *mtBackend) TaskletCreate(fn func()) Handle {
	return b.ULTCreate(func(Ctx) { fn() })
}

// ULTCreateBulk implements BulkBackend: help-first batches the whole
// creation into one deque publication; work-first stays sequential by
// construction (the substrate falls back internally).
func (b *mtBackend) ULTCreateBulk(fns []func(Ctx)) []Handle {
	mfns := make([]func(*massivethreads.Context), len(fns))
	for i, fn := range fns {
		fn := fn
		mfns[i] = func(c *massivethreads.Context) { fn(&mtCtx{b: b, c: c}) }
	}
	ths := b.rt.CreateBulk(mfns)
	hs := make([]Handle, len(ths))
	for i, th := range ths {
		hs[i] = &mtULT{th: th}
	}
	return hs
}

// TaskletCreateBulk implements BulkBackend via the ULT fallback.
func (b *mtBackend) TaskletCreateBulk(fns []func()) []Handle {
	return taskletBulkViaULTs(fns, b.ULTCreateBulk)
}

func (b *mtBackend) Yield() { b.rt.Yield() }

// MainPark implements MainParker: the migratable main flow suspends and
// is resumed through the injection queue, onto whichever worker pops it.
func (b *mtBackend) MainPark() (park, unpark func()) { return b.rt.MainPark() }

func (b *mtBackend) Join(h Handle) {
	if v, ok := h.(*mtULT); ok {
		b.rt.Join(v.th)
		return
	}
	joinPoll(h, b.Yield)
}

func (b *mtBackend) Finalize() { b.rt.Finalize() }

func (b *mtBackend) Caps() Capabilities {
	return Capabilities{
		HierarchyLevels: 2, WorkUnitTypes: 1, Tasklets: false,
		GroupControl: true, YieldTo: false,
		GlobalQueue: false, PrivateQueues: true,
		PluginScheduler: true, StackableScheduler: false, Yieldable: true,
		Placement: false,
		// The scheduling discipline is fixed at configure time (the
		// work-first / help-first variant choice is the backend name).
		Schedulers:    []string{sched.NameFIFO},
		SyncMechanism: "atomic",
		AsyncIO:       true,
	}
}

func (c *mtCtx) Yield() { c.c.Yield() }

// IOPark exposes the substrate's park/unpark pair. MassiveThreads has
// no placement promise to preserve (Caps().Placement is false): the
// resumed thread lands on the shared injection queue and any worker may
// pick it up, exactly as a steal would move it.
func (c *mtCtx) IOPark() (park func(), unpark func()) { return c.c.IOPark() }

// YieldTo degrades to a plain Yield: Table I grants MassiveThreads no
// direct control transfer (the substrate's hand-off is reserved for the
// work-first creation path).
func (c *mtCtx) YieldTo(Handle) { c.c.Yield() }

func (c *mtCtx) ULTCreate(fn func(Ctx)) Handle {
	return &mtULT{th: c.c.Create(func(cc *massivethreads.Context) {
		fn(&mtCtx{b: c.b, c: cc})
	})}
}

func (c *mtCtx) ULTCreateTo(_ int, fn func(Ctx)) Handle {
	return c.ULTCreate(fn)
}

func (c *mtCtx) TaskletCreate(fn func()) Handle {
	return c.ULTCreate(func(Ctx) { fn() })
}

func (c *mtCtx) Join(h Handle) {
	if v, ok := h.(*mtULT); ok {
		c.c.Join(v.th)
		return
	}
	joinPoll(h, c.c.Yield)
}

func (c *mtCtx) ExecutorID() int { return c.c.WorkerID() }

func (c *mtCtx) NumExecutors() int { return c.b.rt.NumWorkers() }

// --- Converse Threads ---

type cvBackend struct {
	rt     *converse.Runtime
	rrNext atomic.Uint64
	n      int
}

type cvULT struct{ c *converse.Cth }

func (h *cvULT) Done() bool { return h.c.Done() }

// cvRemoteULT tracks a ULT created on a remote processor through a
// Message: the Cth handle does not exist until the Message executes
// there.
type cvRemoteULT struct{ inner atomic.Pointer[converse.Cth] }

func (h *cvRemoteULT) Done() bool {
	c := h.inner.Load()
	return c != nil && c.Done()
}

// cvMsg tracks a Message's completion with a flag the body sets.
type cvMsg struct{ done atomic.Bool }

func (h *cvMsg) Done() bool { return h.done.Load() }

type cvCtx struct {
	b *cvBackend
	c *converse.CthCtx
}

func (b *cvBackend) Name() string { return "converse" }

func (b *cvBackend) Init(cfg Config) error {
	b.n = cfg.Executors
	b.rt = converse.InitCfg(converse.Config{Procs: cfg.Executors, Policy: policyFor(cfg)})
	return nil
}

func (b *cvBackend) NumExecutors() int { return b.rt.NumProcs() }

// SchedStats implements SchedStatsReporter from the substrate's pools.
func (b *cvBackend) SchedStats() queue.Counts { return b.rt.SchedStats() }

// ULTCreate is restricted to the local processor: CthCreate cannot target
// remote queues (§VIII-B1's restriction on Converse in nested scenarios).
func (b *cvBackend) ULTCreate(fn func(Ctx)) Handle {
	return &cvULT{c: b.rt.CthCreate(func(cc *converse.CthCtx) {
		fn(&cvCtx{b: b, c: cc})
	})}
}

// ULTCreateTo reaches a remote processor the only way Converse allows:
// a Message (CmiSyncSend) carries the creation request, and its body
// performs the CthCreate locally on the target. ULTs never migrate
// between processors, so the new ULT runs — and stays — on the target.
// Processor 0 is the master's own, so that case is a plain local
// CthCreate with no message hop.
func (b *cvBackend) ULTCreateTo(executor int, fn func(Ctx)) Handle {
	proc := modExec(executor, b.n)
	if proc == 0 {
		return b.ULTCreate(fn)
	}
	h := &cvRemoteULT{}
	b.rt.SyncSend(proc, func(p *converse.Proc) {
		h.inner.Store(p.CthCreate(func(cc *converse.CthCtx) {
			fn(&cvCtx{b: b, c: cc})
		}))
	})
	return h
}

// TaskletCreate sends a Message round-robin — the only remote insertion
// Converse offers, and what the paper's microbenchmarks use throughout.
func (b *cvBackend) TaskletCreate(fn func()) Handle {
	h := &cvMsg{}
	proc := int(b.rrNext.Add(1)-1) % b.n
	b.rt.SyncSend(proc, func(*converse.Proc) {
		defer h.done.Store(true) // survive contained panics
		fn()
	})
	return h
}

// ULTCreateBulk implements BulkBackend: Converse ULT creation is local to
// the master's processor (the §VIII-B1 restriction), so the batch is one
// insertion into processor 0's queue.
func (b *cvBackend) ULTCreateBulk(fns []func(Ctx)) []Handle {
	cfns := make([]func(*converse.CthCtx), len(fns))
	for i, fn := range fns {
		fn := fn
		cfns[i] = func(cc *converse.CthCtx) { fn(&cvCtx{b: b, c: cc}) }
	}
	cs := b.rt.CthCreateBulk(cfns)
	hs := make([]Handle, len(cs))
	for i, c := range cs {
		hs[i] = &cvULT{c: c}
	}
	return hs
}

// TaskletCreateBulk implements BulkBackend: the batch is dealt as
// contiguous Message blocks across the processors (one CmiSyncSend burst
// per processor), continuing the round-robin cursor of TaskletCreate.
func (b *cvBackend) TaskletCreateBulk(fns []func()) []Handle {
	hs := make([]Handle, len(fns))
	if len(fns) == 0 {
		return hs
	}
	k := b.n
	per := (len(fns) + k - 1) / k
	startProc := int(b.rrNext.Add(1)-1) % k
	sends := make([]func(*converse.Proc), 0, per)
	for blk := 0; blk*per < len(fns); blk++ {
		lo := blk * per
		hi := min(lo+per, len(fns))
		sends = sends[:0]
		for i := lo; i < hi; i++ {
			h := &cvMsg{}
			hs[i] = h
			fn := fns[i]
			sends = append(sends, func(*converse.Proc) {
				defer h.done.Store(true) // survive contained panics
				fn()
			})
		}
		b.rt.SyncSendBatch((startProc+blk)%k, sends)
	}
	return hs
}

func (b *cvBackend) Yield() { b.rt.Yield() }

// MainPark implements MainParker: the master drives processor 0 until
// its queue is empty, then sleeps on processor 0's idler.
func (b *cvBackend) MainPark() (park, unpark func()) { return b.rt.MainPark() }

// Join drives the local scheduler until the unit completes: the master
// must keep processing its own queue (return mode) while remote
// processors drain theirs. Completed ULT handles are freed (CthFree) so
// their descriptors re-enter the substrate pool; Message handles carry no
// descriptor to free.
func (b *cvBackend) Join(h Handle) {
	for !h.Done() {
		if !b.rt.Yield() {
			runtime.Gosched()
		}
	}
	switch v := h.(type) {
	case *cvULT:
		v.c.Free()
	case *cvRemoteULT:
		if c := v.inner.Load(); c != nil {
			c.Free()
		}
	}
}

func (b *cvBackend) Finalize() { b.rt.Finalize() }

func (b *cvBackend) Caps() Capabilities {
	return Capabilities{
		HierarchyLevels: 2, WorkUnitTypes: 2, Tasklets: true,
		GroupControl: true, YieldTo: false,
		GlobalQueue: false, PrivateQueues: true,
		PluginScheduler: true, StackableScheduler: false, Yieldable: true,
		Placement:     true,
		Schedulers:    sched.Names(),
		SyncMechanism: "atomic",
		AsyncIO:       true,
	}
}

func (c *cvCtx) Yield() { c.c.Yield() }

// IOPark exposes the substrate's park/unpark pair: the resumed Cth
// returns to its processor's queue, preserving CthCreateTo placement
// across a wait.
func (c *cvCtx) IOPark() (park func(), unpark func()) { return c.c.IOPark() }

// YieldTo degrades to a plain Yield at the unified layer: Table I grants
// direct transfer to Argobots only (Converse's CthYieldTo stays a
// backend-private operation).
func (c *cvCtx) YieldTo(Handle) { c.c.Yield() }

func (c *cvCtx) ULTCreate(fn func(Ctx)) Handle {
	return &cvULT{c: c.c.CthCreate(func(cc *converse.CthCtx) {
		fn(&cvCtx{b: c.b, c: cc})
	})}
}

func (c *cvCtx) ULTCreateTo(executor int, fn func(Ctx)) Handle {
	proc := modExec(executor, c.b.n)
	if proc == c.c.ID() {
		return c.ULTCreate(fn) // already on the target: plain CthCreate
	}
	b := c.b
	h := &cvRemoteULT{}
	c.c.SyncSend(proc, func(p *converse.Proc) {
		h.inner.Store(p.CthCreate(func(cc *converse.CthCtx) {
			fn(&cvCtx{b: b, c: cc})
		}))
	})
	return h
}

func (c *cvCtx) TaskletCreate(fn func()) Handle {
	h := &cvMsg{}
	proc := int(c.b.rrNext.Add(1)-1) % c.b.n
	c.c.SyncSend(proc, func(*converse.Proc) {
		defer h.done.Store(true) // survive contained panics
		fn()
	})
	return h
}

// Join from inside a ULT parks on local Cth handles (CthSuspend/
// CthAwaken); Messages and remote ULTs keep the poll-yield join — their
// completion is published by a plain flag the paper's two-step patterns
// poll the same way.
func (c *cvCtx) Join(h Handle) {
	if v, ok := h.(*cvULT); ok {
		c.c.Join(v.c)
		return
	}
	joinPoll(h, c.c.Yield)
}

func (c *cvCtx) ExecutorID() int { return c.c.ID() }

func (c *cvCtx) NumExecutors() int { return c.b.rt.NumProcs() }

// --- Go model ---

type goBackend struct{ rt *gothreads.Runtime }

type goULT struct {
	b *goBackend
	g *gothreads.G
}

func (h *goULT) Done() bool { return h.g.Done() }

type goCtx struct {
	b *goBackend
	c *gothreads.Context
}

func (b *goBackend) Name() string { return "go" }

func (b *goBackend) Init(cfg Config) error {
	b.rt = gothreads.Init(cfg.Executors)
	return nil
}

func (b *goBackend) NumExecutors() int { return b.rt.NumThreads() }

// SchedStats implements SchedStatsReporter from the substrate's pools.
func (b *goBackend) SchedStats() queue.Counts { return b.rt.SchedStats() }

func (b *goBackend) ULTCreate(fn func(Ctx)) Handle {
	return &goULT{b: b, g: b.rt.Go(func(c *gothreads.Context) {
		fn(&goCtx{b: b, c: c})
	})}
}

// ULTCreateTo degrades to a plain spawn: the Go model has one global run
// queue and no placement (Caps().Placement is false) — any scheduler
// thread may pick the goroutine up.
func (b *goBackend) ULTCreateTo(_ int, fn func(Ctx)) Handle {
	return b.ULTCreate(fn)
}

// TaskletCreate falls back to a goroutine (single work-unit type).
func (b *goBackend) TaskletCreate(fn func()) Handle {
	return b.ULTCreate(func(Ctx) { fn() })
}

// ULTCreateBulk implements BulkBackend: one multi-ticket insertion into
// the global run queue for the whole batch.
func (b *goBackend) ULTCreateBulk(fns []func(Ctx)) []Handle {
	gfns := make([]func(*gothreads.Context), len(fns))
	for i, fn := range fns {
		fn := fn
		gfns[i] = func(c *gothreads.Context) { fn(&goCtx{b: b, c: c}) }
	}
	gs := b.rt.GoBulk(gfns)
	hs := make([]Handle, len(gs))
	for i, g := range gs {
		hs[i] = &goULT{b: b, g: g}
	}
	return hs
}

// TaskletCreateBulk implements BulkBackend via the goroutine fallback.
func (b *goBackend) TaskletCreateBulk(fns []func()) []Handle {
	return taskletBulkViaULTs(fns, b.ULTCreateBulk)
}

// Yield is absent from the Go model (Table I); the unified layer degrades
// it to an OS-level scheduling hint.
func (b *goBackend) Yield() { runtime.Gosched() }

// MainPark implements MainParker with a channel wait: the scheduler
// threads run on their own.
func (b *goBackend) MainPark() (park, unpark func()) { return chanPark() }

func (b *goBackend) Join(h Handle) {
	if v, ok := h.(*goULT); ok {
		b.rt.Join(v.g) // channel join
		return
	}
	joinPoll(h, b.Yield)
}

func (b *goBackend) Finalize() { b.rt.Finalize() }

func (b *goBackend) Caps() Capabilities {
	return Capabilities{
		HierarchyLevels: 2, WorkUnitTypes: 1, Tasklets: false,
		GroupControl: true, YieldTo: false,
		GlobalQueue: true, PrivateQueues: false,
		PluginScheduler: false, StackableScheduler: false, Yieldable: false,
		Placement:     false,
		Schedulers:    []string{sched.NameFIFO},
		SyncMechanism: "atomic",
		AsyncIO:       true,
	}
}

// IOPark exposes the substrate's park/unpark pair: the resumed
// goroutine-model unit lands on the shared global queue (the only pool
// the model has).
func (c *goCtx) IOPark() (park func(), unpark func()) { return c.c.IOPark() }

// Yield degrades to the substrate's reschedule (the runtime.Gosched
// analogue): the modeled programming surface has no yield operation
// (Table I, Caps().Yieldable is false), but the unified layer's
// cooperative waits need the goroutine to hand its scheduler thread back
// so sibling work units can run.
func (c *goCtx) Yield() { c.c.Gosched() }

// YieldTo degrades to Yield: no direct control transfer in the Go model.
func (c *goCtx) YieldTo(Handle) { c.Yield() }

func (c *goCtx) ULTCreate(fn func(Ctx)) Handle {
	return &goULT{b: c.b, g: c.c.Go(func(cc *gothreads.Context) {
		fn(&goCtx{b: c.b, c: cc})
	})}
}

func (c *goCtx) ULTCreateTo(_ int, fn func(Ctx)) Handle {
	return c.ULTCreate(fn)
}

func (c *goCtx) TaskletCreate(fn func()) Handle {
	return c.ULTCreate(func(Ctx) { fn() })
}

func (c *goCtx) Join(h Handle) {
	if v, ok := h.(*goULT); ok {
		c.c.Join(v.g) // parks the goroutine in the target's waiter slot
		return
	}
	joinPoll(h, func() { runtime.Gosched() })
}

func (c *goCtx) ExecutorID() int { return c.c.ThreadID() }

func (c *goCtx) NumExecutors() int { return c.b.rt.NumThreads() }

// joinPoll waits for completion by polling with the given yield between
// checks — the generic cooperative join, kept as the documented fallback
// for handles whose substrate park slot is unavailable (foreign runtimes,
// occupied single-waiter slots, flag-published Converse Messages) or
// whose semantics require the caller to keep scheduling (the Converse
// master driving processor 0 in return mode).
func joinPoll(h Handle, yield func()) {
	for !h.Done() {
		yield()
	}
}
