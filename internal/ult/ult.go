// Package ult implements the user-level-thread (ULT) substrate on which
// every runtime emulation in this repository is built.
//
// A ULT is a cooperatively scheduled unit of work with its own private
// stack. In this implementation each ULT runs on a runtime coroutine
// (iter.Pull) and control is transferred with a direct coroutine switch:
// an executor resumes the ULT with the coroutine's next, and the ULT hands
// control back by yielding its disposition (Ready, Blocked or Done). The
// switch is a user-level stack switch that bypasses the Go scheduler's run
// queues, like the C libraries studied in the paper (Argobots, Qthreads,
// MassiveThreads, Converse Threads), and at any moment an execution stream
// (Executor) runs at most one ULT. The hand-off gives the substrate real
// cooperative semantics — Yield, YieldTo, Suspend/Resume, migration
// between executors, and a joiner running its joinee directly
// (DispatchFrom) — rather than relying on the Go scheduler's preemption.
//
// The coroutine is pooled: it is bound to a descriptor for the life of one
// incarnation and returns to a central idle pool at completion, so a
// steady-state create/join cycle (the paper's Figures 2–3 hot path)
// creates no goroutines and performs no allocations at the descriptor
// level. A ULT body must not call runtime.LockOSThread: a coroutine
// switch requires the thread-lock state it was created with, and the
// runtime throws on a mismatch.
//
// A Tasklet is the second work-unit type of the paper (Argobots Tasklets,
// Converse Messages): an atomic, stackless unit executed inline by the
// executor. Tasklets cannot yield, block, or migrate once started, and are
// correspondingly much cheaper to create and run.
package ult

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// Status describes the lifecycle state of a work unit.
type Status int32

// Work-unit lifecycle states. Transitions:
//
//	Created → Ready → Running → {Ready, Blocked, Done}
//	Blocked → Ready (via Resume)
const (
	// StatusCreated means the unit exists but was never made runnable.
	StatusCreated Status = iota
	// StatusReady means the unit is runnable and (normally) sitting in a
	// pool waiting for an executor.
	StatusReady
	// StatusRunning means an executor currently owns the unit.
	StatusRunning
	// StatusBlocked means the unit suspended itself and must be resumed
	// explicitly before it can run again.
	StatusBlocked
	// StatusDone means the unit finished executing.
	StatusDone
)

// String returns a human-readable state name.
func (s Status) String() string {
	switch s {
	case StatusCreated:
		return "created"
	case StatusReady:
		return "ready"
	case StatusRunning:
		return "running"
	case StatusBlocked:
		return "blocked"
	case StatusDone:
		return "done"
	default:
		return fmt.Sprintf("status(%d)", int32(s))
	}
}

// Kind discriminates the two work-unit types of the paper.
type Kind int

const (
	// KindULT is a yieldable, migratable unit with a private stack.
	KindULT Kind = iota
	// KindTasklet is an atomic, stackless unit.
	KindTasklet
)

// String returns the work-unit kind name.
func (k Kind) String() string {
	if k == KindTasklet {
		return "tasklet"
	}
	return "ult"
}

// Unit is the common interface of ULTs and Tasklets so pools can hold both.
type Unit interface {
	// Kind reports whether the unit is a ULT or a Tasklet.
	Kind() Kind
	// Status reports the unit's current lifecycle state.
	Status() Status
	// ID returns the unit's process-unique identifier.
	ID() uint64
}

// Errors reported by the substrate.
var (
	// ErrNotMigratable is returned when migrating a pinned ULT.
	ErrNotMigratable = errors.New("ult: work unit is not migratable")
	// ErrFreed is returned when operating on an already-freed unit.
	ErrFreed = errors.New("ult: work unit already freed")
	// ErrNotDone is returned when freeing a unit that has not completed.
	ErrNotDone = errors.New("ult: work unit has not completed")
)

var idCounter atomic.Uint64

func nextID() uint64 { return idCounter.Add(1) }

// Descriptor and coroutine pooling. Freeing a work unit (the Argobots
// join-and-free discipline) returns its descriptor to a reuse pool, and
// the backing coroutine — bound to the descriptor only for the life of one
// incarnation — returns to a central idle pool at completion, so
// steady-state create/free cycles neither allocate nor spawn: the paper's
// create/join hot path (Figures 2–3) recycles the descriptor and the
// coroutine.
//
// The coroutine pool is central rather than per-descriptor on purpose: a
// coroutine parked *inside* a dropped descriptor would leak forever (a
// blocked goroutine pins itself; finalizers never run), so completed
// units that are never freed — fire-and-forget handles — must leave
// nothing parked behind. With the binding released at completion, an
// unfreed descriptor is plain garbage.
//
// A descriptor may only be recycled once *both* parties are finished with
// it: the caller of Free, and the unit's own final act (the executor's
// retire after the terminal switch, or the tasklet's completion
// publication), which can still be in flight when a status-polling joiner
// observes Done and frees. Each side calls release; the second release
// performs the recycle. The pooling contract for callers is the same
// use-after-free rule the C libraries have: a handle must not be touched
// after the unit was freed (for the unified API: after Join returned).
var taskletPool sync.Pool

// ultFreeCap bounds the descriptor freelist; descriptors beyond the
// high-water mark fall to the garbage collector.
const ultFreeCap = 8192

// ultFree is the ULT descriptor freelist. A channel rather than a stack:
// sends and receives are allocation-free, safe from any goroutine, and
// immune to the ABA problem a CAS-linked freelist of recycled nodes has.
var ultFree = make(chan *ULT, ultFreeCap)

// releaseParties is the number of release calls that must land before a
// descriptor can be recycled.
const releaseParties = 2

// closedChan is the pre-closed channel completed units hand to DoneChan
// callers; its address doubles as the waitCh "completion published" seal.
var closedChan = func() chan struct{} {
	c := make(chan struct{})
	close(c)
	return c
}()

// DoneWaiter is the single-waiter park slot's entry: a callback the
// finishing work unit runs when it completes. Register one with SetWaiter.
//
// Fn runs on the finishing unit's coroutine *before* the terminal
// switch, so the owning executor's control token is still held: the
// callback may therefore perform owner-side pool operations for that
// executor (it receives the executor), but it must not block, yield, or
// re-enter a scheduler. The intended use is exactly one thing: resume a
// joiner that parked with Suspend and hand it back to a ready pool (see
// ResumeAndRequeue).
//
// A DoneWaiter may be reused across joins (the runtimes cache one for
// their primary ULT), but only after its previous Fn call has returned.
type DoneWaiter struct {
	// Fn receives the executor whose control token the finishing unit
	// holds (for tasklets: the executor running the tasklet inline).
	Fn func(owner *Executor)
}

// sealedWaiter marks a hook slot whose unit has published completion.
var sealedWaiter DoneWaiter

// Func is the body of a ULT. The self argument is the running ULT and is
// only valid for the duration of the call; it provides the cooperative
// operations (Yield, YieldTo, Suspend, ...).
type Func func(self *ULT)

// BodyFunc is the closure-free body form: a package-level function plus an
// explicit argument, so runtimes can run per-unit state through a handle
// they allocate anyway instead of a fresh closure per create (NewWith).
type BodyFunc func(self *ULT, arg any)

// ULT is a user-level thread: an independent, yieldable, migratable work
// unit with its own private stack (the stack of the coroutine bound to it
// for this incarnation).
//
// The zero value is not usable; create ULTs with New or NewWith.
type ULT struct {
	id uint64

	// fn, or bodyFn+bodyArg, is the incarnation's body; exactly one form
	// is set per incarnation.
	fn      Func
	bodyFn  BodyFunc
	bodyArg any

	status atomic.Int32

	// co is the coroutine bound to this incarnation: set by the executor
	// on the first dispatch, returned to the idle pool (and cleared) by
	// retire at completion. Dispatch-side only: the claim CAS chain and
	// the coroutine switches order all access.
	co *coro
	// resume carries the control token from an executor to an adopted
	// primary (Adopt), whose body is the adopting goroutine rather than
	// a coroutine; it is nil for every other ULT and doubles as the
	// "adopted" flag of the hand-off.
	resume chan struct{}
	// owner is the executor currently running the ULT. It is written by
	// dispatch before the control token is handed over and read only by
	// the ULT itself while running, so it needs no extra locking.
	owner *Executor

	// comp is the generation-counted completion word: the number of
	// incarnations of this descriptor that have published completion. It
	// replaces the per-create done channel — Done is one load, and unlike
	// the status word it is never reset by the next incarnation, so a
	// joiner racing a recycle can never observe completion un-published.
	comp atomic.Uint64

	// waitCh is the lazily allocated waiter channel behind DoneChan: only
	// select-based joiners (the go-model backend) pay for a channel.
	// Sealed with &closedChan once completion is published.
	waitCh atomic.Pointer[chan struct{}]

	// hook is the single-waiter park slot: the parking join's registered
	// waiter, run by the finishing incarnation. Sealed with &sealedWaiter.
	hook atomic.Pointer[DoneWaiter]

	freed      atomic.Bool
	migratable bool

	// err records a panic recovered from the body; read after Done.
	err error

	// label is an optional debugging name set by the emulations.
	label string

	// gen counts descriptor reuses. YieldTo hints capture it so a hint
	// that outlives its target's free+recycle is discarded instead of
	// hijacking the descriptor's next incarnation onto the wrong stream;
	// comp counts against it so completion is per-incarnation.
	gen atomic.Uint64

	// releases counts the parties (retire after the terminal switch,
	// Free) that have finished with the descriptor; the second one
	// recycles it.
	releases atomic.Int32

	// noRecycle exempts the descriptor from pooling for the rest of this
	// incarnation's life. Set when a *pooled* unit is dispatched past its
	// pool entry — a YieldTo hint or a direct-switch join
	// (dispatchBypass): that dispatch leaves the unit's pool entry stale,
	// and the scheduler that later pops the stale pointer depends on
	// claim() failing against *this* incarnation — reusing the descriptor
	// would let the stale entry claim (and misplace) the next one. The
	// descriptor falls to the garbage collector instead.
	noRecycle atomic.Bool

	// unpooled, when true, promises that this incarnation has never been
	// inserted into a scheduler pool (and will not be before its first
	// dispatch), so a YieldTo hint dispatch leaves no stale entry behind
	// and need not poison recycling. Set via MarkUnpooled by creators that
	// hand the fresh unit straight to an executor (MassiveThreads'
	// work-first creation); cleared the moment the unit yields or
	// suspends, because the requeue that follows is a pool insertion.
	unpooled bool
}

// New creates a ULT in the Created state. On a recycled descriptor this is
// a freelist pop, a field reset and a generation bump, and the first
// dispatch binds a parked coroutine from the central idle pool — so the
// steady-state create/dispatch cycle spawns nothing and allocates
// nothing. Only a cold start pays for a fresh descriptor and a coroutine —
// deliberately still heavier than a Tasklet, as in the paper.
func New(fn Func) *ULT {
	t := acquire()
	t.fn = fn
	return t
}

// NewWith creates a ULT whose body is the package-level body applied to
// arg, avoiding the per-create closure allocation of New. Runtimes thread
// their per-unit state through the handle they return to the caller
// anyway; arg is typically that handle (a pointer conversion to any does
// not allocate).
func NewWith(body BodyFunc, arg any) *ULT {
	t := acquire()
	t.bodyFn = body
	t.bodyArg = arg
	return t
}

// NewDetachedWith is NewWith for a unit nobody will join or free: the
// Free party of the descriptor's release pair is settled at creation,
// so the terminal release at completion recycles it. The creator must
// not touch the unit once it is in a pool; completion is observable
// only through what the body itself publishes.
func NewDetachedWith(body BodyFunc, arg any) *ULT {
	t := NewWith(body, arg)
	t.releases.Store(1)
	return t
}

// acquire pops a recycled descriptor from the freelist, or builds a
// fresh one. No coroutine is involved until the first dispatch.
func acquire() *ULT {
	var t *ULT
	select {
	case t = <-ultFree:
		t.gen.Add(1)
		t.releases.Store(0)
		t.freed.Store(false)
		t.owner = nil
		t.err = nil
		t.label = ""
		t.unpooled = false
		t.waitCh.Store(nil)
		t.hook.Store(nil)
	default:
		t = &ULT{}
	}
	t.id = nextID()
	t.migratable = true
	t.status.Store(int32(StatusCreated))
	return t
}

// NewPinned creates a ULT that refuses migration between executors.
func NewPinned(fn Func) *ULT {
	t := New(fn)
	t.migratable = false
	return t
}

// runBody executes the ULT body with panic containment: a panicking work
// unit must not take down the executor or the process; it completes with
// the panic recorded as its error. (Note: a panic thrown while the ULT
// is parked in Yield/Suspend cannot happen — the body only runs while it
// holds the control token.)
func (t *ULT) runBody() {
	defer func() {
		if r := recover(); r != nil {
			t.err = fmt.Errorf("ult: work unit %d panicked: %v", t.id, r)
		}
	}()
	if t.bodyFn != nil {
		t.bodyFn(t, t.bodyArg)
		return
	}
	t.fn(t)
}

// finish publishes completion: the status and the generation-counted
// completion word are stored, the lazy waiter channel is closed and the
// parked joiner (if any) is woken, all while the unit still holds its
// executor's control token. The coroutine's terminal switch follows, and
// the release that makes the descriptor recyclable is the executor's
// retire after that switch, so a joiner that observes Done and frees
// cannot recycle the descriptor out from under this sequence.
func (t *ULT) finish() {
	t.status.Store(int32(StatusDone))
	t.comp.Store(t.gen.Load() + 1)
	t.sealWaiters(t.owner)
}

// sealWaiters publishes completion to both waiter slots: the lazy DoneChan
// channel is closed (and the slot sealed so later DoneChan calls get the
// shared pre-closed channel), and the registered park-slot waiter is run
// while the executor's control token is still held.
func (t *ULT) sealWaiters(owner *Executor) {
	if w := t.waitCh.Swap(&closedChan); w != nil && w != &closedChan {
		close(*w)
	}
	if h := t.hook.Swap(&sealedWaiter); h != nil && h != &sealedWaiter {
		h.Fn(owner)
	}
}

// release records that one of the two parties (the executor's retire
// after the terminal switch, Free) is finished with the descriptor; the
// second one recycles it. A descriptor that cannot be recycled — an
// incarnation dispatched past its pool entry (noRecycle), a full
// freelist, or a Free that never comes — is simply garbage: no coroutine
// is parked inside it.
func (t *ULT) release() {
	if t.releases.Add(1) != releaseParties {
		return
	}
	if t.noRecycle.Load() {
		return
	}
	// A recycled descriptor must not pin its last body's state while it
	// waits in the freelist.
	t.fn = nil
	t.bodyFn = nil
	t.bodyArg = nil
	select {
	case ultFree <- t:
	default:
	}
}

// Kind implements Unit.
func (t *ULT) Kind() Kind { return KindULT }

// ID implements Unit.
func (t *ULT) ID() uint64 { return t.id }

// Status implements Unit.
func (t *ULT) Status() Status { return Status(t.status.Load()) }

// Done reports whether this incarnation's body has returned. It reads the
// generation-counted completion word, which — unlike the status word — is
// never reset when the descriptor is recycled, so completion once
// observed stays observed.
func (t *ULT) Done() bool { return t.comp.Load() > t.gen.Load() }

// Gen returns the descriptor's incarnation number. Handles that can
// outlive their unit's free-and-recycle capture it at creation and poll
// completion with DoneAt instead of Done.
func (t *ULT) Gen() uint64 { return t.gen.Load() }

// DoneAt reports whether incarnation gen has published completion. The
// completion word only grows, so — unlike every other method — DoneAt
// stays correct even after the descriptor was freed and recycled: a stale
// handle keeps reading true forever. This is what lets runtimes without
// an explicit user-facing free (the join releases the descriptor) answer
// Done from old handles safely.
func (t *ULT) DoneAt(gen uint64) bool { return t.comp.Load() > gen }

// Closed returns the shared pre-closed channel, for handle-level DoneChan
// wrappers that must answer after their descriptor was freed.
func Closed() <-chan struct{} { return closedChan }

// DoneChan exposes a channel closed on completion for select-based joins
// (the mechanism the Go runtime model uses). The channel is allocated
// lazily on first call — status- and park-based joiners never pay for it —
// and completed units share one pre-closed channel.
func (t *ULT) DoneChan() <-chan struct{} {
	if w := t.waitCh.Load(); w != nil {
		return *w
	}
	nc := make(chan struct{})
	if t.waitCh.CompareAndSwap(nil, &nc) {
		// finish had not sealed at the CAS, so it will observe nc in the
		// slot and close it.
		return nc
	}
	return *t.waitCh.Load()
}

// SetWaiter registers w in the unit's single-waiter park slot. It returns
// true when the registration won the slot — w.Fn will then run exactly
// once, on the finishing unit's coroutine — and false when completion was
// already published or another waiter holds the slot (callers fall back
// to a polling join). After a successful SetWaiter the joiner must park
// (Suspend), unconditionally: the waiter's wake spin-waits for it.
func (t *ULT) SetWaiter(w *DoneWaiter) bool {
	return t.hook.CompareAndSwap(nil, w)
}

// ResumeAndRequeue is the wake half of the parking join: it transitions a
// joiner that parked (or is about to park) via Suspend back to Ready —
// spinning out the window between the joiner's SetWaiter and the Blocked
// store its executor makes once the joiner has switched out — and then
// hands it to requeue for pool reinsertion. Intended to be called from a
// DoneWaiter.Fn.
func ResumeAndRequeue(j *ULT, requeue func(*ULT)) {
	for !j.Resume() {
		if j.Done() {
			return
		}
		runtime.Gosched()
	}
	requeue(j)
}

// WaiterSlot is the park-slot surface shared by ULT and Tasklet
// descriptors.
type WaiterSlot interface {
	SetWaiter(*DoneWaiter) bool
}

// ParkJoinStep performs one wait step of a parking join: it registers
// joiner in slot and suspends it, reporting true; when the slot is
// unavailable (completion already published, or another waiter holds it)
// it reports false and the caller polls instead. On resume, the finishing
// unit has handed the joiner to requeue together with the executor whose
// control token it held — backends that need an owner-side pool insertion
// (the Chase–Lev deques) use that executor, everyone else ignores it.
//
// Safety: the caller must hold the handle-level right to free the target
// (a join claim) before parking — its own pending free is what keeps the
// descriptor out of the reuse pool while the registration is in flight.
func ParkJoinStep(joiner *ULT, slot WaiterSlot, requeue func(j *ULT, owner *Executor)) bool {
	w := &DoneWaiter{Fn: func(owner *Executor) {
		ResumeAndRequeue(joiner, func(j *ULT) { requeue(j, owner) })
	}}
	if slot.SetWaiter(w) {
		joiner.Suspend()
		return true
	}
	return false
}

// Err returns the panic recovered from the body, or nil. Only meaningful
// once the ULT is Done.
func (t *ULT) Err() error { return t.err }

// Migratable reports whether the ULT may move between executors.
func (t *ULT) Migratable() bool { return t.migratable }

// Owner returns the executor currently running the ULT. It is only
// meaningful while the ULT is Running (the value is stable between the
// dispatch and the next hand-back); runtimes use it to find the worker a
// spawning ULT is executing on.
func (t *ULT) Owner() *Executor { return t.owner }

// SetLabel attaches a debugging name to the ULT.
func (t *ULT) SetLabel(s string) { t.label = s }

// Label returns the debugging name (may be empty).
func (t *ULT) Label() string { return t.label }

// MarkUnpooled promises that this unit will reach its first dispatch
// without ever being inserted into a scheduler pool — the creator hands it
// to an executor directly (a work-first YieldTo). A hint dispatch of an
// unpooled unit leaves no stale pool entry behind, so the descriptor stays
// recyclable. Must be called before the unit is made Ready.
func (t *ULT) MarkUnpooled() { t.unpooled = true }

// Freed reports whether Free has been called on the ULT.
func (t *ULT) Freed() bool { return t.freed.Load() }

// Free releases the ULT's resources. It mirrors the join-and-free step of
// Argobots' ABT_thread_free: the paper attributes part of Argobots' join
// cost to this extra bookkeeping, so emulations call it explicitly.
// Freeing a unit twice or freeing an unfinished unit is an error.
//
// Free returns the descriptor to the reuse pool (once the executor has
// also retired the incarnation after its terminal switch). The caller must
// not touch the ULT — not even Status or DoneChan — after Free returns:
// the descriptor may already be serving a new work unit.
func (t *ULT) Free() error {
	if !t.Done() {
		return ErrNotDone
	}
	if !t.freed.CompareAndSwap(false, true) {
		return ErrFreed
	}
	t.release()
	return nil
}

// markReady transitions a freshly created unit to Ready. Yields and
// resumes never go through it: the executor publishes Ready after the
// yielding unit has switched out, and Resume is a CAS from Blocked, so a
// requeue must not store the status again (a stale pool entry may
// already have claimed the unit).
func (t *ULT) markReady() { t.status.Store(int32(StatusReady)) }

// claim atomically takes a Ready unit for execution. It is the only
// Ready→Running transition, so a unit that is reachable from two places
// (a pool entry and a YieldTo hint) is dispatched exactly once.
func (t *ULT) claim() bool {
	return t.status.CompareAndSwap(int32(StatusReady), int32(StatusRunning))
}

// Yield cooperatively returns control to the owning executor and re-enters
// the Ready state. The executor decides where the ULT goes next (usually
// back into a pool). Must be called from inside the ULT body.
//
// Yield does not store Ready itself: the executor publishes it once the
// switch is complete (settle). A unit that is Ready while still on its
// coroutine could be claimed through a stale pool entry and resumed by a
// second executor before it had switched out.
func (t *ULT) Yield() {
	t.unpooled = false // the requeue that follows is a pool insertion
	t.switchOut(StatusReady)
}

// YieldTo yields and asks the executor to dispatch target next, bypassing
// the scheduler — the Argobots yield_to operation of Table I. If the
// target cannot be claimed (already running or done) the hint is dropped
// and the executor falls back to its scheduler.
func (t *ULT) YieldTo(target *ULT) {
	t.owner.setHint(target)
	t.Yield()
}

// Suspend blocks the ULT: it returns control to the executor without
// becoming Ready. Another thread of control must call Resume (and
// re-enqueue the ULT) before it can run again. Must be called from inside
// the ULT body. As with Yield, the executor stores Blocked only after the
// switch, so Resume cannot succeed before the unit is off its coroutine.
func (t *ULT) Suspend() {
	t.unpooled = false // the eventual requeue is a pool insertion
	t.switchOut(StatusBlocked)
}

// Resume transitions a Blocked ULT back to Ready so it can be re-enqueued.
// It reports whether the transition happened (false if the ULT was not
// blocked). The caller is responsible for putting the ULT back in a pool.
func (t *ULT) Resume() bool {
	return t.status.CompareAndSwap(int32(StatusBlocked), int32(StatusReady))
}

// TaskletFunc is the body of a Tasklet. It receives no self handle: a
// tasklet has no stack of its own and cannot yield or block.
type TaskletFunc func()

// Tasklet is an atomic, stackless work unit (Argobots Tasklet, Converse
// Message). It is executed inline by the executor's scheduling loop.
type Tasklet struct {
	id     uint64
	fn     TaskletFunc
	status atomic.Int32
	freed  atomic.Bool
	// bodyFn/bodyArg are the closure-free body form (NewTaskletDetached),
	// the tasklet counterpart of ULT.bodyFn.
	bodyFn  func(arg any)
	bodyArg any
	// err records a panic recovered from the body; read after Done.
	err error
	// doneCh is allocated eagerly by NewTaskletWithDone for callers that
	// join on a channel; plain status polling does not pay for it.
	doneCh chan struct{}
	// hook is the single-waiter park slot (see ULT.SetWaiter).
	hook atomic.Pointer[DoneWaiter]
	// releases counts the parties (completion publication, Free) done
	// with the descriptor; the second one recycles it.
	releases atomic.Int32
}

// NewTasklet creates a tasklet in the Created state. Creation is at most
// one small allocation — the "lightest work unit available" of §VI — and
// none at all in steady state: freed tasklet descriptors are reused from
// a pool, so a create/free cycle (the Figure 2/5 hot path) does not touch
// the allocator.
func NewTasklet(fn TaskletFunc) *Tasklet {
	t, _ := taskletPool.Get().(*Tasklet)
	if t == nil {
		t = &Tasklet{}
	} else {
		t.releases.Store(0)
		t.freed.Store(false)
		t.err = nil
		t.doneCh = nil
		t.hook.Store(nil)
	}
	t.id = nextID()
	t.fn = fn
	t.status.Store(int32(StatusCreated))
	return t
}

// NewTaskletDetached creates a tasklet that runs body(arg) — no
// per-create closure — and that nobody will join or free: the Free party
// of its release pair is settled at creation, so completion recycles
// the descriptor. This is the handle-free launch of a caller that
// learns of completion through arg itself. The creator must not touch
// the tasklet once it is in a pool.
func NewTaskletDetached(body func(arg any), arg any) *Tasklet {
	t := NewTasklet(nil)
	t.bodyFn = body
	t.bodyArg = arg
	t.releases.Store(1)
	return t
}

// NewTaskletBulk creates one tasklet per body, in body order. Descriptor
// acquisition is inherently per-unit (one pool hit each, allocation-free
// in steady state); the batching win of a bulk create is on the enqueue
// side — pair this with queue.FIFO.PushBatch or
// queue.Deque.PushBottomBatch and a single executor wake, as the runtime
// bulk creators do. The returned tasklets still need MarkReady plus pool
// insertion.
func NewTaskletBulk(fns []func()) []*Tasklet {
	out := make([]*Tasklet, len(fns))
	for i, fn := range fns {
		out[i] = NewTasklet(fn)
	}
	return out
}

// NewTaskletWithDone creates a tasklet whose completion can be awaited on
// a channel. Slightly heavier than NewTasklet (one channel allocation).
func NewTaskletWithDone(fn TaskletFunc) *Tasklet {
	t := NewTasklet(fn)
	t.doneCh = make(chan struct{})
	return t
}

// Kind implements Unit.
func (t *Tasklet) Kind() Kind { return KindTasklet }

// ID implements Unit.
func (t *Tasklet) ID() uint64 { return t.id }

// Status implements Unit.
func (t *Tasklet) Status() Status { return Status(t.status.Load()) }

// Done reports whether the tasklet has executed.
func (t *Tasklet) Done() bool { return t.Status() == StatusDone }

// DoneChan returns a channel closed on completion. Only valid for tasklets
// created with NewTaskletWithDone; otherwise it returns nil.
func (t *Tasklet) DoneChan() <-chan struct{} { return t.doneCh }

// SetWaiter registers w in the tasklet's single-waiter park slot, with
// exactly the ULT.SetWaiter contract: true means w.Fn runs once on the
// executor that runs the tasklet inline, and the caller must park.
func (t *Tasklet) SetWaiter(w *DoneWaiter) bool {
	return t.hook.CompareAndSwap(nil, w)
}

// markReady transitions the tasklet to Ready (pool insertion).
func (t *Tasklet) markReady() { t.status.Store(int32(StatusReady)) }

// claim atomically takes a Ready tasklet for execution.
func (t *Tasklet) claim() bool {
	return t.status.CompareAndSwap(int32(StatusReady), int32(StatusRunning))
}

// run executes the tasklet body inline on executor e, with the same panic
// containment as ULT bodies.
func (t *Tasklet) run(e *Executor) {
	func() {
		defer func() {
			if r := recover(); r != nil {
				t.err = fmt.Errorf("ult: tasklet %d panicked: %v", t.id, r)
			}
		}()
		if t.bodyFn != nil {
			t.bodyFn(t.bodyArg)
			return
		}
		t.fn()
	}()
	t.status.Store(int32(StatusDone))
	if t.doneCh != nil {
		close(t.doneCh)
	}
	if h := t.hook.Swap(&sealedWaiter); h != nil && h != &sealedWaiter {
		h.Fn(e)
	}
	t.release()
}

// release records that one of the two parties (completion, Free) is done
// with the descriptor; the second one recycles it. The executor-side
// release is the last statement of run, so a freer racing a
// status-polling join cannot recycle the descriptor out from under the
// completion publication.
func (t *Tasklet) release() {
	if t.releases.Add(1) == releaseParties {
		t.fn = nil
		t.bodyFn = nil
		t.bodyArg = nil
		taskletPool.Put(t)
	}
}

// Err returns the panic recovered from the body, or nil. Only meaningful
// once the tasklet is Done.
func (t *Tasklet) Err() error { return t.err }

// Freed reports whether Free has been called.
func (t *Tasklet) Freed() bool { return t.freed.Load() }

// Free releases the tasklet, returning the descriptor to the reuse pool
// (once the completion publication has also finished). The caller must
// not touch the tasklet after Free returns: the descriptor may already be
// serving a new work unit.
func (t *Tasklet) Free() error {
	if t.Status() != StatusDone {
		return ErrNotDone
	}
	if !t.freed.CompareAndSwap(false, true) {
		return ErrFreed
	}
	t.release()
	return nil
}

// MarkReady makes a freshly created unit eligible for dispatch. Emulations
// call it when inserting the unit into a pool.
func MarkReady(u Unit) {
	switch v := u.(type) {
	case *ULT:
		v.markReady()
	case *Tasklet:
		v.markReady()
	default:
		panic(fmt.Sprintf("ult: unknown unit type %T", u))
	}
}
