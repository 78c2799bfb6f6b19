package ult

import "sync/atomic"

// Executor is an execution stream: the OS-thread-like entity that runs work
// units one at a time. It corresponds to an Argobots Execution Stream, a
// Qthreads Worker, a MassiveThreads Worker, a Converse Processor, and a
// Go runtime "M"/thread in the paper's terminology (Table I).
//
// Every runtime drives its executors with the same scheduling loop (Run);
// what each emulation supplies is a Source, the place ready work comes
// from (private pool, shared pool, stealing, messages, ...).
type Executor struct {
	id int

	// handback receives the control token from an adopted primary ULT
	// running on this executor (on yield, suspend, or Detach); pooled
	// ULTs hand back through their coroutine instead. The message carries
	// the disposition the primary had at hand-off time.
	handback chan handoff

	// hintT/hintGen name the ULT that YieldTo requested to run next,
	// bypassing the scheduler, qualified by the target's descriptor
	// generation: descriptors are pooled and reused after Free, so a
	// stale hint must be discarded rather than claim the descriptor's
	// next incarnation onto this executor.
	//
	// Plain fields, not atomics: setHint is only called by the work unit
	// currently holding this executor's control token, and takeHint only
	// by the scheduling loop after that unit handed the token back, so
	// the hand-off switch already orders every access.
	hintT   *ULT
	hintGen uint64

	// empties counts consecutive empty polls since the last dispatch and
	// epoch is the idler generation captured once the spin budget is
	// spent (see idle); touched only by whoever holds the control token
	// (the scheduling loop, or a joiner's DispatchFrom).
	empties uint32
	epoch   uint64
	// idled records an empty poll since the last loop-level ULT
	// dispatch: set by idle, cleared by Step, which then wakes an idle P
	// (wakeIdleP). Same ownership as empties.
	idled bool

	stats ExecStats
}

// ExecStats counts scheduling events on one executor. All counters are
// monotonically increasing and safe to read concurrently.
type ExecStats struct {
	// Dispatches counts ULT dispatches (including re-dispatches after a
	// yield).
	Dispatches atomic.Uint64
	// TaskletRuns counts tasklets executed inline.
	TaskletRuns atomic.Uint64
	// Yields counts hand-backs where the ULT stayed Ready.
	Yields atomic.Uint64
	// Suspensions counts hand-backs where the ULT blocked.
	Suspensions atomic.Uint64
	// Completions counts ULTs that finished on this executor.
	Completions atomic.Uint64
	// HintHits counts YieldTo hints that were dispatched directly.
	HintHits atomic.Uint64
	// IdleSpins counts scheduler iterations that found no work.
	IdleSpins atomic.Uint64
	// Parks counts the times the executor exhausted its spin budget and
	// went to sleep on its pool's Idler.
	Parks atomic.Uint64
	// Steals counts successful work steals performed by this executor.
	Steals atomic.Uint64
}

// handoff is the message an adopted primary sends its executor when
// returning control.
type handoff struct {
	t  *ULT
	st Status
}

// NewExecutor creates an execution stream identified by id. The identifier
// is only used for reporting; uniqueness is the caller's concern.
func NewExecutor(id int) *Executor {
	return &Executor{id: id, handback: make(chan handoff)}
}

// ID returns the executor's identifier.
func (e *Executor) ID() int { return e.id }

// Stats exposes the executor's event counters.
func (e *Executor) Stats() *ExecStats { return &e.stats }

// setHint records a YieldTo target. A second YieldTo before the executor
// consumes the first simply overwrites it; the skipped target is still in
// its pool and loses nothing. Must be called while holding the
// executor's control token (YieldTo does).
func (e *Executor) setHint(t *ULT) {
	e.hintT = t
	e.hintGen = t.gen.Load()
}

// takeHint removes and returns the pending YieldTo target, or nil. A hint
// whose target descriptor has been freed and recycled since the hint was
// set is dropped: the claim that follows would otherwise dispatch the
// descriptor's next incarnation here, bypassing any placement it was
// created with.
func (e *Executor) takeHint() *ULT {
	t := e.hintT
	if t == nil {
		return nil
	}
	e.hintT = nil
	if t.gen.Load() != e.hintGen {
		return nil
	}
	return t
}

// DispatchResult describes how a dispatched ULT returned control.
type DispatchResult int

const (
	// DispatchDone means the ULT finished.
	DispatchDone DispatchResult = iota
	// DispatchYielded means the ULT yielded and is Ready; the caller
	// should put it back in a pool.
	DispatchYielded
	// DispatchBlocked means the ULT suspended itself; something else
	// will Resume and re-enqueue it.
	DispatchBlocked
	// DispatchSkipped means the unit could not be claimed (it was
	// already running elsewhere via a YieldTo hint or a DispatchFrom,
	// or already done).
	DispatchSkipped
)

// dispatch claims and runs a ULT until it hands control back, and reports
// how it returned. A unit that cannot be claimed is skipped — this is how
// stale pool entries left behind by YieldTo and DispatchFrom are
// discarded.
func (e *Executor) dispatch(t *ULT) DispatchResult {
	if !t.claim() {
		return DispatchSkipped
	}
	return e.dispatchClaimed(t)
}

// dispatchClaimed runs a ULT the caller has already claimed (via a
// successful Resume+claim or takeHint+claim path) until it switches back.
// The incarnation's first dispatch binds an idle coroutine, which starts
// the body; later dispatches resume the coroutine where the body yielded
// or suspended.
func (e *Executor) dispatchClaimed(t *ULT) DispatchResult {
	t.owner = e
	e.empties = 0
	e.stats.Dispatches.Add(1)
	return e.settle(t, t.switchIn(e))
}

// settle publishes the disposition t switched back with and counts it.
// Ready and Blocked are stored here, after the switch, never inside
// Yield/Suspend: the moment the status is Ready a stale pool entry can
// claim the unit, and the moment it is Blocked a resumer can requeue it,
// and either way another executor may resume the coroutine — which must
// by then have switched out. A completed unit published Done itself
// (finish), before its waiters ran; settle retires its coroutine.
func (e *Executor) settle(t *ULT, st Status) DispatchResult {
	switch st {
	case StatusDone:
		e.stats.Completions.Add(1)
		t.retire()
		return DispatchDone
	case StatusReady:
		t.status.Store(int32(StatusReady))
		e.stats.Yields.Add(1)
		return DispatchYielded
	case StatusBlocked:
		t.status.Store(int32(StatusBlocked))
		e.stats.Suspensions.Add(1)
		return DispatchBlocked
	default:
		panic("ult: hand-off in state " + st.String())
	}
}

// dispatchHint runs the pending YieldTo hint if there is one and it can be
// claimed. It returns the dispatched ULT's result and true, or false if no
// hint was runnable. The hint bypasses the pool (dispatchBypass).
func (e *Executor) dispatchHint() (DispatchResult, *ULT, bool) {
	h := e.takeHint()
	if h == nil {
		return 0, nil, false
	}
	if !h.claim() {
		return 0, nil, false
	}
	e.stats.HintHits.Add(1)
	return e.dispatchBypass(h), h, true
}

// dispatchBypass runs a unit claimed outside its pool — a YieldTo hint or
// a direct-switch join. Its pool entry (if it had one) goes stale: some
// scheduler will pop the same pointer later and rely on claim() failing
// to skip it. That skip is only sound while the pointer still refers to
// this incarnation, so the descriptor is marked non-recyclable — Free
// will release it to the garbage collector instead of the reuse pool.
// Units whose creator promised they never entered a pool (MarkUnpooled —
// the work-first creation hand-off) leave no stale entry and stay
// recyclable.
func (e *Executor) dispatchBypass(t *ULT) DispatchResult {
	if !t.unpooled {
		t.noRecycle.Store(true)
	}
	return e.dispatchClaimed(t)
}

// DispatchFrom is the direct switch of a join: the running ULT t claims
// target and runs it on its own executor, from its own coroutine, without
// going through the scheduler (Argobots' yield_to applied to a joinee).
// target switches back to t, not to the scheduling loop, and the result
// says how: DispatchDone (the join is over), DispatchYielded (target is
// Ready and the caller must requeue it), DispatchBlocked (target
// suspended; whoever resumes it requeues it), or DispatchSkipped (target
// was not Ready — already running elsewhere, blocked or done). Like a
// YieldTo hint, a claimed target's pool entry goes stale and its
// descriptor is not recycled. The caller is responsible for placement:
// target runs on t's executor. Must be called from inside t's body.
func (t *ULT) DispatchFrom(target *ULT) DispatchResult {
	if !target.claim() {
		return DispatchSkipped
	}
	return t.owner.dispatchBypass(target)
}

// RunTasklet executes a tasklet inline. Unclaimable tasklets are skipped.
func (e *Executor) RunTasklet(t *Tasklet) bool {
	if !t.claim() {
		return false
	}
	e.empties = 0
	t.run(e)
	e.stats.TaskletRuns.Add(1)
	return true
}
