// Package core implements the unified lightweight-thread API that the
// paper identifies as its forward path: §VIII-C and Listing 4 show that a
// reduced set of functions — initialization, ULT creation, tasklet
// creation, yield, join, finalization (Table II) — suffices to implement
// every parallel pattern studied, and §X announces "a common API for the
// LWT libraries" as future work (the authors later shipped it as GLT).
//
// This package is that common API, at its second (GLT-shaped) revision:
// one Runtime type constructed from a Config (Open), over a pluggable
// Backend implemented by each of the emulated libraries. Beyond the
// Table II rows, v2 adds the three capability groups GLT standardized:
//
//   - Placement: NumExecutors, ULTCreateTo and Ctx.ExecutorID map work
//     units onto named executors (execution streams, shepherds, workers,
//     processors, threads).
//   - Scheduler selection: Config.Scheduler picks an internal/sched
//     policy by name for the backend's ready pools.
//   - Synchronization objects: Mutex, Barrier and Cond (sync.go) that
//     are scheduler-aware — waiting yields the work unit instead of
//     blocking the executor.
//
// Every feature degrades the way the paper's own microbenchmarks
// degrade it (tasklets fall back to ULTs, remote creation falls back to
// local, yield falls back to a scheduler hint), and every degradation
// is explicit: Config-level requests are negotiated against the
// backend's Capabilities at Open — recorded on the Runtime, queryable
// via Degradations, fatal under Config.Strict — while the per-call
// operations (ULTCreateTo, YieldTo) degrade statically per the
// capability flags (Placement, YieldTo).
package core

import (
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/queue"
	"repro/internal/sched"
)

// Handle is a joinable reference to a created work unit.
type Handle interface {
	// Done reports completion without blocking.
	Done() bool
}

// Ctx is the execution context passed to ULT bodies: the cooperative
// operations of the unified API that are valid only inside a running
// work unit.
type Ctx interface {
	// Yield re-enters the backend's scheduler.
	Yield()
	// YieldTo hands control directly to the target work unit where the
	// backend supports it (Caps().YieldTo); elsewhere it degrades to a
	// plain Yield. Handles from other runtimes degrade likewise.
	YieldTo(h Handle)
	// ULTCreate spawns a child ULT wherever the backend's dispatch
	// prefers.
	ULTCreate(fn func(Ctx)) Handle
	// ULTCreateTo spawns a child ULT pinned to the named executor where
	// the backend supports placement (Caps().Placement); elsewhere it
	// degrades to local creation. The executor index is taken modulo
	// NumExecutors.
	ULTCreateTo(executor int, fn func(Ctx)) Handle
	// TaskletCreate spawns a child tasklet (or the backend's closest
	// equivalent).
	TaskletCreate(fn func()) Handle
	// Join waits for a work unit created by this or any context.
	Join(h Handle)
	// ExecutorID reports the executor currently running this work unit.
	ExecutorID() int
	// NumExecutors reports the backend's executor-group size.
	NumExecutors() int
}

// Capabilities describes a backend in the vocabulary of the paper's
// Table I, extended with the v2 (GLT-shaped) capability columns.
type Capabilities struct {
	// HierarchyLevels counts the execution hierarchy depth (Pthreads 1,
	// Qthreads 3, the rest 2).
	HierarchyLevels int
	// WorkUnitTypes counts the distinct work-unit kinds.
	WorkUnitTypes int
	// Tasklets reports native stackless-work-unit support.
	Tasklets bool
	// GroupControl reports user control over the executor group size.
	GroupControl bool
	// YieldTo reports direct control transfer between ULTs.
	YieldTo bool
	// GlobalQueue reports a single shared work-unit queue.
	GlobalQueue bool
	// PrivateQueues reports per-executor work-unit queues.
	PrivateQueues bool
	// PluginScheduler reports user-replaceable scheduling policies.
	PluginScheduler bool
	// StackableScheduler reports run-time scheduler stacking.
	StackableScheduler bool
	// Yieldable reports whether any yield operation is exposed at all
	// (Go's model exposes none).
	Yieldable bool

	// --- v2 extensions ---

	// Placement reports that ULTCreateTo pins work to the named
	// executor: a ULT created toward executor i is dispatched only by
	// executor i, so its body observes ExecutorID() == i. Backends
	// without it (shared pools, work stealing, global queues) fall back
	// to their default dispatch.
	Placement bool
	// Schedulers lists the ready-pool policies Open can select on this
	// backend (Config.Scheduler), default first. An empty or absent
	// request always succeeds; a listed name is honored; anything else
	// degrades to the default.
	Schedulers []string
	// SyncMechanism names the substrate behind the unified sync objects
	// on this backend: "feb" (full/empty-bit words in the runtime's
	// table, Qthreads) or "atomic" (CAS words polled with cooperative
	// yields).
	SyncMechanism string
	// AsyncIO reports that a blocking wait issued through the aio
	// surface (Sleep, Deadline, Read, Write, Await) parks the work unit
	// on the reactor and frees its executor, resuming into the unit's
	// home pool when the operation completes. Backends without it (or
	// call sites without a ULT context, e.g. tasklets) degrade
	// explicitly: the wait still completes, but by yield-polling on the
	// executor — or plain blocking where not even a yield is available —
	// rather than parking.
	AsyncIO bool
}

// SupportsScheduler reports whether the named policy is in the
// capability's scheduler list (the empty name is the default and always
// supported).
func (c Capabilities) SupportsScheduler(name string) bool {
	if name == "" || name == sched.DefaultPolicy {
		return true
	}
	for _, s := range c.Schedulers {
		if s == name {
			return true
		}
	}
	return false
}

// Backend is one LWT library behind the unified API.
type Backend interface {
	// Name returns the backend's registry key (e.g. "argobots").
	Name() string
	// Init starts the backend. The Config it receives has been
	// negotiated: Executors is resolved (>= 1) and Scheduler names a
	// policy the backend's Capabilities advertise.
	Init(cfg Config) error
	// NumExecutors reports the executor-group size (execution streams,
	// shepherds, workers, processors, threads).
	NumExecutors() int
	// ULTCreate creates a ULT from the main thread.
	ULTCreate(fn func(Ctx)) Handle
	// ULTCreateTo creates a ULT pinned to the named executor from the
	// main thread, degrading per Caps().Placement.
	ULTCreateTo(executor int, fn func(Ctx)) Handle
	// TaskletCreate creates a tasklet (or fallback) from the main thread.
	TaskletCreate(fn func()) Handle
	// Yield yields the main thread to the backend's scheduler.
	Yield()
	// Join waits, from the main thread, for a unit created on this
	// backend.
	Join(h Handle)
	// Finalize stops the backend.
	Finalize()
	// Caps describes the backend per Table I plus the v2 columns. It
	// must be callable before Init (Open negotiates against it).
	Caps() Capabilities
}

// BulkBackend is an optional Backend extension for bulk creation: one
// call creates a whole batch of work units with the backend's cheapest
// distribution — batched pool insertions (one multi-ticket reservation on
// the lock-free queues, one lock acquisition on the mutex pools) and a
// single idle-executor wake. Backends without it are served by a create
// loop in Runtime.ULTCreateBulk / Runtime.TaskletCreateBulk.
type BulkBackend interface {
	// ULTCreateBulk creates one ULT per body, in order.
	ULTCreateBulk(fns []func(Ctx)) []Handle
	// TaskletCreateBulk creates one tasklet (or fallback) per body.
	TaskletCreateBulk(fns []func()) []Handle
}

// Work is the body of a detached work unit (Runtime.Spawn). Being an
// interface, it lets a caller launch a pointer to its own state with no
// per-launch closure.
type Work interface {
	// Run executes the body: c is the unit's cooperative context for a
	// ULT and nil for a tasklet.
	Run(c Ctx)
}

// Spawner is the optional Backend extension behind Runtime.Spawn: a
// native handle-free launch.
type Spawner interface {
	// Spawn launches w as a detached ULT (ult) or tasklet.
	Spawn(w Work, ult bool)
}

// Factory constructs an uninitialized backend.
type Factory func() Backend

var (
	registryMu sync.RWMutex
	registry   = map[string]Factory{}
)

// Register installs a backend factory under its name. Emulation adapters
// call it from init; re-registration panics to catch name collisions.
func Register(name string, f Factory) {
	registryMu.Lock()
	defer registryMu.Unlock()
	if _, dup := registry[name]; dup {
		panic(fmt.Sprintf("core: backend %q registered twice", name))
	}
	registry[name] = f
}

// Backends lists the registered backend names, sorted.
func Backends() []string {
	registryMu.RLock()
	defer registryMu.RUnlock()
	names := make([]string, 0, len(registry))
	for n := range registry {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Errors reported by Open.
var (
	// ErrUnknownBackend is returned for unregistered backend names.
	ErrUnknownBackend = errors.New("core: unknown backend")
	// ErrUnknownScheduler is returned when Config.Scheduler names no
	// policy at all (a typo, not a capability gap; see sched.Names).
	ErrUnknownScheduler = errors.New("core: unknown scheduler policy")
	// ErrUnsupported is returned under Config.Strict when the backend
	// cannot honor a requested capability that would otherwise degrade.
	ErrUnsupported = errors.New("core: backend does not support requested capability")
)

// Config parameterizes Open — the v2 constructor, replacing the v1
// positional New(name, nthreads).
type Config struct {
	// Backend is the registered backend name (see Backends); empty
	// selects "go".
	Backend string
	// Executors is the executor-group size — execution streams
	// (Argobots), shepherds (Qthreads), workers (MassiveThreads),
	// processors (Converse), scheduler threads (Go); <= 0 selects
	// runtime.NumCPU().
	Executors int
	// Scheduler names the ready-pool ordering policy: "fifo" (the
	// default), "lifo", "priority" or "random" (sched.Names). Backends
	// whose Capabilities do not list the request degrade to their
	// default policy and record a Degradation.
	Scheduler string
	// Strict makes Open fail with ErrUnsupported instead of degrading.
	Strict bool
}

// Degradation records one capability request Open could not honor; the
// runtime fell back the way the paper's own microbenchmarks do.
type Degradation struct {
	// Feature is the capability group ("scheduler", ...).
	Feature string
	// Requested is what the Config asked for.
	Requested string
	// Granted is what the runtime actually provides.
	Granted string
	// Reason explains the gap in the backend's own terms.
	Reason string
}

// String renders the degradation for logs and errors.
func (d Degradation) String() string {
	return fmt.Sprintf("%s: requested %q, granted %q (%s)", d.Feature, d.Requested, d.Granted, d.Reason)
}

// Runtime is an initialized unified-API instance (Listing 4's program
// shape: initialization_function .. finalize_function).
type Runtime struct {
	b    Backend
	sp   Spawner // b's native Spawn, nil when it has none
	cfg  Config  // granted configuration, after negotiation
	degs []Degradation
}

// Open initializes a backend from the configuration, negotiating every
// requested capability against the backend's Capabilities. Requests the
// backend cannot honor degrade explicitly — recorded and queryable via
// Degradations — unless cfg.Strict, which turns them into ErrUnsupported.
func Open(cfg Config) (*Runtime, error) {
	if cfg.Backend == "" {
		cfg.Backend = "go"
	}
	if cfg.Executors <= 0 {
		cfg.Executors = runtime.NumCPU()
	}
	registryMu.RLock()
	f, ok := registry[cfg.Backend]
	registryMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: %q (have %v)", ErrUnknownBackend, cfg.Backend, Backends())
	}
	b := f()
	caps := b.Caps()

	var degs []Degradation
	if cfg.Scheduler != "" {
		if _, known := sched.ByName(cfg.Scheduler); !known {
			return nil, fmt.Errorf("%w: %q (have %v)", ErrUnknownScheduler, cfg.Scheduler, sched.Names())
		}
		if !caps.SupportsScheduler(cfg.Scheduler) {
			degs = append(degs, Degradation{
				Feature:   "scheduler",
				Requested: cfg.Scheduler,
				Granted:   sched.DefaultPolicy,
				Reason:    schedulerGapReason(caps),
			})
			cfg.Scheduler = sched.DefaultPolicy
		}
	}
	if cfg.Strict && len(degs) > 0 {
		return nil, fmt.Errorf("%w: %q: %v", ErrUnsupported, cfg.Backend, degs)
	}
	if err := b.Init(cfg); err != nil {
		return nil, fmt.Errorf("core: init %q: %w", cfg.Backend, err)
	}
	sp, _ := b.(Spawner)
	return &Runtime{b: b, sp: sp, cfg: cfg, degs: degs}, nil
}

// schedulerGapReason words the scheduler degradation per Table I.
func schedulerGapReason(caps Capabilities) string {
	if !caps.PluginScheduler {
		return "backend has no plug-in scheduler (Table I)"
	}
	return "policy selectable only at configure time (Table I)"
}

// MustOpen is Open for known-good configurations; it panics on error.
func MustOpen(cfg Config) *Runtime {
	r, err := Open(cfg)
	if err != nil {
		panic(err)
	}
	return r
}

// Backend exposes the underlying backend.
func (r *Runtime) Backend() Backend { return r.b }

// Name returns the backend name.
func (r *Runtime) Name() string { return r.b.Name() }

// Caps returns the backend's Table I feature set plus the v2 columns.
func (r *Runtime) Caps() Capabilities { return r.b.Caps() }

// Config returns the granted configuration: what the runtime actually
// provides after negotiation (e.g. Scheduler is the effective policy).
func (r *Runtime) Config() Config { return r.cfg }

// Degradations lists the capability requests Open could not honor on
// this backend, in request order. Empty means everything asked for was
// granted.
func (r *Runtime) Degradations() []Degradation {
	out := make([]Degradation, len(r.degs))
	copy(out, r.degs)
	return out
}

// NumExecutors reports the executor-group size (the placement domain
// count for ULTCreateTo).
func (r *Runtime) NumExecutors() int { return r.b.NumExecutors() }

// SchedStatsReporter is the optional Backend extension exposing the
// summed ready-pool counters (queue.Stats snapshots) of the substrate's
// schedulers. Every bundled backend implements it; the serving tier's
// /metrics export reads it.
type SchedStatsReporter interface {
	// SchedStats reports the aggregated pool counters.
	SchedStats() queue.Counts
}

// SchedStats reports the backend's aggregated ready-pool counters —
// pushes, pops, steals, contention, empty polls, executor parks — or
// zeros when the backend does not keep them.
func (r *Runtime) SchedStats() queue.Counts {
	if sr, ok := r.b.(SchedStatsReporter); ok {
		return sr.SchedStats()
	}
	return queue.Counts{}
}

// ULTCreate creates a ULT (Table II row "ULT creation").
func (r *Runtime) ULTCreate(fn func(Ctx)) Handle { return r.b.ULTCreate(fn) }

// ULTCreateTo creates a ULT pinned to the named executor on backends
// whose Caps().Placement allows it, and falls back to the backend's
// default dispatch elsewhere. The executor index is taken modulo
// NumExecutors.
func (r *Runtime) ULTCreateTo(executor int, fn func(Ctx)) Handle {
	return r.b.ULTCreateTo(executor, fn)
}

// TaskletCreate creates a tasklet or the backend's closest work unit
// (Table II row "Tasklet creation").
func (r *Runtime) TaskletCreate(fn func()) Handle { return r.b.TaskletCreate(fn) }

// Spawn is the detached launch: it creates w as a ULT (ult set) or a
// tasklet and returns nothing — no handle is built, nobody joins the
// unit, and the caller learns of completion through w itself. Backends
// implementing Spawner launch natively (Argobots passes w to a recycled
// descriptor as its argument: no closure, no handle, no descriptor left
// waiting for a free); elsewhere Spawn falls back to ULTCreate or
// TaskletCreate and drops the handle.
func (r *Runtime) Spawn(w Work, ult bool) {
	switch {
	case r.sp != nil:
		r.sp.Spawn(w, ult)
	case ult:
		r.b.ULTCreate(w.Run)
	default:
		r.b.TaskletCreate(func() { w.Run(nil) })
	}
}

// ULTCreateBulk creates one ULT per body in a single submission: on
// backends with native bulk support the batch pays the pool
// synchronization and the idle-executor wake once, which is what lets
// the loop and task patterns (Figures 4–8) stop paying per-iteration
// submission overhead. Elsewhere it degrades to a create loop.
func (r *Runtime) ULTCreateBulk(fns []func(Ctx)) []Handle {
	if bb, ok := r.b.(BulkBackend); ok {
		return bb.ULTCreateBulk(fns)
	}
	hs := make([]Handle, len(fns))
	for i, fn := range fns {
		hs[i] = r.b.ULTCreate(fn)
	}
	return hs
}

// TaskletCreateBulk creates one tasklet (or the backend's fallback work
// unit) per body in a single submission; see ULTCreateBulk.
func (r *Runtime) TaskletCreateBulk(fns []func()) []Handle {
	if bb, ok := r.b.(BulkBackend); ok {
		return bb.TaskletCreateBulk(fns)
	}
	hs := make([]Handle, len(fns))
	for i, fn := range fns {
		hs[i] = r.b.TaskletCreate(fn)
	}
	return hs
}

// Yield yields the main thread (Table II row "Yield").
func (r *Runtime) Yield() { r.b.Yield() }

// MainParker is the optional Backend extension behind Runtime.MainPark.
// Every bundled backend implements it.
type MainParker interface {
	// MainPark builds the main thread's park/unpark pair; see
	// Runtime.MainPark.
	MainPark() (park, unpark func())
}

// MainPark builds the main thread's passive wait — §IX-B's "extra yield
// calls" of a polling master, replaced by a sleep. park suspends the
// calling main thread until unpark is called; unpark may be called from
// any goroutine, and one that lands before park is not lost — the next
// park returns at once. Unparks between two parks collapse into one, so
// callers re-check their wait condition after every park. On the
// cooperative masters park keeps the runtime's local work moving:
// Argobots and MassiveThreads suspend the adopted primary, freeing its
// executor; Converse drives processor 0 until its queue is empty, then
// sleeps. Go and Qthreads executors run on their own, so there park is a
// plain channel wait.
// Backends without the MainParker extension fall back to a Yield poll.
// Build one pair per main thread and call park only from that thread.
func (r *Runtime) MainPark() (park, unpark func()) {
	if mp, ok := r.b.(MainParker); ok {
		return mp.MainPark()
	}
	var kicked atomic.Bool
	park = func() {
		for !kicked.CompareAndSwap(true, false) {
			r.b.Yield()
		}
	}
	unpark = func() { kicked.Store(true) }
	return park, unpark
}

// chanPark is the main-thread park of backends whose executors need no
// driving: a one-slot channel keeps an early unpark as the token.
func chanPark() (park, unpark func()) {
	token := make(chan struct{}, 1)
	return func() { <-token }, func() {
		select {
		case token <- struct{}{}:
		default:
		}
	}
}

// Join waits for one work unit (Table II row "Join").
func (r *Runtime) Join(h Handle) { r.b.Join(h) }

// JoinAll joins a batch of work units in order — the join loop of
// Listing 4.
func (r *Runtime) JoinAll(hs []Handle) {
	for _, h := range hs {
		r.b.Join(h)
	}
}

// Finalize stops the backend (Table II row "Finalization").
func (r *Runtime) Finalize() { r.b.Finalize() }
