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

	// handback receives control tokens from the ULT that is currently
	// running on this executor (on yield, suspend, or completion). The
	// message carries the disposition the ULT had at hand-off time:
	// classifying from the ULT's live status instead would race with a
	// third party that resumes and re-dispatches the unit before this
	// executor reads it.
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
	// the hand-off channel already orders every access.
	hintT   *ULT
	hintGen uint64

	// empties counts consecutive empty polls since the last dispatch and
	// epoch is the idler generation captured once the spin budget is
	// spent (see idle); touched only by the scheduling loop's goroutine.
	empties uint32
	epoch   uint64

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

// handoff is the message a ULT sends its executor when returning control.
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
	// already running elsewhere via a YieldTo hint, or already done).
	DispatchSkipped
)

// dispatch claims and runs a ULT until it hands control back, and reports
// how it returned. A unit that cannot be claimed is skipped — this is how
// stale pool entries left behind by YieldTo are discarded.
func (e *Executor) dispatch(t *ULT) DispatchResult {
	if !t.claim() {
		return DispatchSkipped
	}
	return e.dispatchClaimed(t)
}

// dispatchClaimed runs a ULT the caller has already claimed (via a
// successful Resume+claim or takeHint+claim path). The incarnation's
// first dispatch binds a trampoline goroutine from the central idle pool
// (which starts the body directly); later dispatches hand the control
// token to the already-bound goroutine parked in Yield/Suspend.
func (e *Executor) dispatchClaimed(t *ULT) DispatchResult {
	t.owner = e
	e.empties = 0
	e.stats.Dispatches.Add(1)
	if !t.bound {
		t.bound = true
		bind(t)
	} else {
		t.resume <- struct{}{}
	}
	back := <-e.handback
	if back.t != t {
		// The hand-off protocol guarantees the token returns from the
		// dispatched ULT; anything else is substrate corruption.
		panic("ult: hand-off protocol violation")
	}
	return e.classifyHandoff(back)
}

// classifyHandoff converts a hand-off message into a DispatchResult and
// updates the counters. The message status is authoritative: the ULT's
// live status may already have moved on (a blocked unit can be resumed
// and re-dispatched elsewhere before this executor processes the
// hand-off).
func (e *Executor) classifyHandoff(h handoff) DispatchResult {
	switch h.st {
	case StatusDone:
		e.stats.Completions.Add(1)
		return DispatchDone
	case StatusReady:
		e.stats.Yields.Add(1)
		return DispatchYielded
	case StatusBlocked:
		e.stats.Suspensions.Add(1)
		return DispatchBlocked
	default:
		panic("ult: hand-off in state " + h.st.String())
	}
}

// dispatchHint runs the pending YieldTo hint if there is one and it can be
// claimed. It returns the dispatched ULT's result and true, or false if no
// hint was runnable.
//
// A hint-claimed unit's pool entry (if it had one) goes stale: some
// scheduler will pop the same pointer later and rely on claim() failing
// to skip it. That skip is only sound while the pointer still refers to
// this incarnation, so the descriptor is marked non-recyclable — Free
// will release it to the garbage collector instead of the reuse pool.
// Units whose creator promised they never entered a pool (MarkUnpooled —
// the work-first creation hand-off) leave no stale entry and stay
// recyclable.
func (e *Executor) dispatchHint() (DispatchResult, *ULT, bool) {
	h := e.takeHint()
	if h == nil {
		return 0, nil, false
	}
	if !h.claim() {
		return 0, nil, false
	}
	if !h.unpooled {
		h.noRecycle.Store(true)
	}
	e.stats.HintHits.Add(1)
	return e.dispatchClaimed(h), h, true
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
