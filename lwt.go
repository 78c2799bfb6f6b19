// Package lwt is the public face of this repository: a unified
// lightweight-thread (LWT) API over faithful Go reproductions of the five
// threading runtimes studied in "A Review of Lightweight Thread Approaches
// for High Performance Computing" (Castelló et al., CLUSTER 2016) —
// Argobots, Qthreads, MassiveThreads, Converse Threads and the Go
// scheduler model — plus the GNU and Intel OpenMP runtime emulations the
// paper benchmarks them against.
//
// The API is the GLT-shaped second revision of the reduced function set
// the paper distills in Table II and Listing 4: initialize a backend from
// a Config, create ULTs and tasklets (optionally pinned to an executor,
// individually or in bulk), yield, join, synchronize, finalize. Every
// backend implements it; the paper's central claim — that this small set
// suffices for the common parallel patterns — is exercised by this
// module's examples, tests and benchmark harness.
//
// Create/join is the measured hot path (the paper's Figures 2–3), and it
// runs spawn-free and allocation-free in steady state: work-unit
// descriptors — backing goroutine included — are pooled, Join both
// synchronizes and releases the descriptor, and a joining work unit
// parks in the target's waiter slot to be resumed directly by the
// finishing unit instead of polling. The contract is the C libraries'
// own: a Handle must not be used after Join returns, except Done, which
// answers from a generation-counted completion word and stays correct
// forever. Runtime.ULTCreateBulk and Runtime.TaskletCreateBulk submit
// whole batches with one pool insertion and one executor wake, which is
// what the loop- and task-pattern figures (4–8) ride.
//
// Quickstart (Listing 4's shape, v2 surface):
//
//	r := lwt.MustOpen(lwt.Config{Backend: "argobots", Executors: 4})
//	defer r.Finalize()
//	hs := make([]lwt.Handle, 100)
//	for i := range hs {
//		hs[i] = r.ULTCreateTo(i, func(c lwt.Ctx) {
//			fmt.Println("hello from executor", c.ExecutorID())
//		})
//	}
//	r.Yield()
//	r.JoinAll(hs)
//
// Capability negotiation: every Config request is checked against the
// backend's Capabilities at Open. What the backend cannot honor degrades
// the way the paper's own microbenchmarks degrade: a scheduler request
// falls back to the default policy — recorded and queryable via
// Runtime.Degradations, or an error under Config.Strict. The per-call
// operations degrade statically per the capability flags: ULTCreateTo
// falls back to local creation where Caps().Placement is false, and
// YieldTo falls back to Yield where Caps().YieldTo is false.
//
// The synchronization objects (Mutex, Barrier, Cond) are scheduler-aware:
// waiting yields the calling work unit back to the backend's scheduler
// instead of blocking the executor thread, so a lock held across a Yield
// cannot deadlock even a single-executor runtime. On Qthreads the mutex
// word lives in the runtime's full/empty-bit table (Capabilities.
// SyncMechanism == "feb"), exactly like qthread_lock.
//
// Backends are selected by name; see Backends for the registry. Variants
// the paper evaluates separately (MassiveThreads work-first vs help-first,
// Argobots private vs shared pools, Qthreads shepherd layouts) register
// under their own names.
//
// On top of the unified API sits the serving layer (NewServer): a
// sharded task-submission engine that lets arbitrary goroutines inject
// work into any backend. ServeOptions.Shards independent backend
// runtimes sit behind one Server, each with its own bounded queues; a
// request launches from its producer while an executor slot is free and
// otherwise from the completion that frees one, so no goroutine polls
// on its way. Power-of-two choices on shard depth spreads unkeyed
// submissions, Req.Key pins a session's requests to one shard by key
// hash, admission control is
// two-level (a full shard re-routes once before ErrSaturated
// surfaces), and Close drains gracefully — every accepted Future
// resolves. The shard set is fixed at NewServer; within it, idle shards
// steal unkeyed backlog from loaded ones (ServeOptions.Steal — keyed
// work never moves).
// cmd/lwtserved serves HTTP compute traffic through it on every
// backend.
//
// All submissions go through two generic entry points, Do (tasklet
// bodies) and DoULT (stackful bodies), with the per-request options —
// affinity key, deadline, non-blocking admission — in a Req struct:
//
//	srv := lwt.MustNewServer(lwt.ServeOptions{Backend: "argobots", Shards: 4})
//	defer srv.Close()
//	f, err := lwt.Do(srv.Submitter(), ctx, func() (int, error) {
//		return compute(), nil
//	}, lwt.Req{})
//	v, err := f.Wait(ctx)
//	g, err := lwt.Do(srv.Submitter(), ctx, handle, lwt.Req{Key: sessionID})
package lwt

import (
	"context"
	"io"
	"time"

	"repro/internal/core"
	"repro/internal/serve"
)

// Runtime is an initialized unified-API instance over one backend.
type Runtime = core.Runtime

// Config parameterizes Open: backend name, executor-group size,
// scheduler policy, and strictness of capability negotiation.
type Config = core.Config

// Degradation records one Config request the backend could not honor and
// what was granted instead; see Runtime.Degradations.
type Degradation = core.Degradation

// Handle is a joinable reference to a created work unit.
type Handle = core.Handle

// Ctx is the cooperative context passed to ULT bodies.
type Ctx = core.Ctx

// Capabilities describes a backend in the vocabulary of the paper's
// Table I, extended with the v2 capability columns (placement, scheduler
// policies, synchronization mechanism).
type Capabilities = core.Capabilities

// Backend is the adapter interface a threading runtime implements to
// participate in the unified API.
type Backend = core.Backend

// Waiter is anything a synchronization object can wait on behalf of: a
// *Runtime (main thread) or a Ctx (running work unit).
type Waiter = core.Waiter

// Mutex is the scheduler-aware lock of the unified API; see
// Runtime.NewMutex.
type Mutex = core.Mutex

// Barrier is the scheduler-aware rendezvous of the unified API; see
// Runtime.NewBarrier.
type Barrier = core.Barrier

// Cond is the scheduler-aware condition variable of the unified API; see
// Runtime.NewCond.
type Cond = core.Cond

// Errors surfaced from the unified API.
var (
	// ErrUnknownBackend is returned by Open for unregistered backend
	// names.
	ErrUnknownBackend = core.ErrUnknownBackend
	// ErrUnknownScheduler is returned by Open when Config.Scheduler
	// names no policy at all.
	ErrUnknownScheduler = core.ErrUnknownScheduler
	// ErrUnsupported is returned by Open under Config.Strict when the
	// backend cannot honor a request that would otherwise degrade.
	ErrUnsupported = core.ErrUnsupported
)

// Open initializes a backend from the configuration, negotiating every
// requested capability against the backend's Capabilities (unsupported
// requests degrade explicitly; see Runtime.Degradations).
func Open(cfg Config) (*Runtime, error) { return core.Open(cfg) }

// MustOpen is Open for known-good configurations; it panics on error.
func MustOpen(cfg Config) *Runtime { return core.MustOpen(cfg) }

// Backends lists the registered backend names, sorted.
func Backends() []string { return core.Backends() }

// Register installs a custom backend factory; it panics on duplicate
// names.
func Register(name string, f func() Backend) {
	core.Register(name, func() core.Backend { return f() })
}

// --- Async I/O ---
//
// The waits below free the calling work unit's executor instead of
// blocking it: on a backend whose Capabilities report AsyncIO, the unit
// parks on a process-wide reactor and is resumed into its home pool
// when the wait completes. Where parking is unavailable the wait
// degrades explicitly — yield-polling inside a work unit without a
// parkable substrate, plain blocking when c is nil (no unit to park).

// ErrCanceled is the early-wake sentinel a cancelable wait returns when
// the request's cancellation signal fires before the wait's own
// completion.
var ErrCanceled = core.ErrCanceled

// Sleep blocks the calling work unit for at least d without occupying
// its executor. On a serving-layer context carrying a cancellation
// signal the wait ends early with ErrCanceled; otherwise Sleep returns
// nil.
func Sleep(c Ctx, d time.Duration) error { return core.Sleep(c, d) }

// Deadline blocks the calling work unit until ctx is cancelled or its
// deadline passes, returning ctx.Err().
func Deadline(c Ctx, ctx context.Context) error { return core.Deadline(c, ctx) }

// AwaitIO blocks the calling work unit until done is closed (a future's
// completion channel, a context's Done). On a serving-layer context
// carrying a cancellation signal the wait ends early with ErrCanceled;
// otherwise AwaitIO returns nil.
func AwaitIO(c Ctx, done <-chan struct{}) error { return core.AwaitIO(c, done) }

// Canceled returns the cooperative cancellation signal attached to c —
// closed when the request's deadline passed or its submission context
// was cancelled — or nil when c carries none, which blocks forever in a
// select exactly like context.Context.Done.
func Canceled(c Ctx) <-chan struct{} { return core.Canceled(c) }

// ReadIO reads from r into buf without occupying the calling unit's
// executor while the data is in flight.
func ReadIO(c Ctx, r io.Reader, buf []byte) (int, error) { return core.ReadIO(c, r, buf) }

// WriteIO writes all of buf to w without occupying the calling unit's
// executor while the bytes drain.
func WriteIO(c Ctx, w io.Writer, buf []byte) (int, error) { return core.WriteIO(c, w, buf) }

// --- Serving layer ---

// Server is a request-serving engine over a pool of backend runtime
// shards: externally submitted requests become work units spawned from
// the submitting goroutine or from the completion that frees their
// executor slot, while each shard's keeper goroutine holds its
// runtime's main thread.
type Server = serve.Server

// ServeOptions configures a Server (backend, executors per shard,
// scheduler policy, shard count, queue depth, in-flight cap, drain
// timeout, tracer, work stealing, and the Router test seam).
type ServeOptions = serve.Options

// Router picks the shard for each unkeyed submission. A Server routes
// by power-of-two choices; ServeOptions.Router replaces that only so a
// test can pin or rotate shards deterministically.
type Router = serve.Router

// Submitter is the thread-safe, multi-producer injection front-end of a
// Server.
type Submitter = serve.Submitter

// Future is the result handle of a submission; see serve.Future.
type Future[T any] = serve.Future[T]

// ServerMetrics is a snapshot of a Server's counters and latency window.
type ServerMetrics = serve.Metrics

// PanicError is the error a Future resolves to when a request body
// panicked.
type PanicError = serve.PanicError

// ErrSaturated is the admission-control fast-reject for a full
// submission queue.
var ErrSaturated = serve.ErrSaturated

// ErrServerClosed is returned for submissions to a closed Server.
var ErrServerClosed = serve.ErrClosed

// ErrExpired resolves a Future whose request's deadline passed while it
// waited in the queue — the request was shed before launch.
var ErrExpired = serve.ErrExpired

// NewServer starts a serving engine over the named backend.
func NewServer(opts ServeOptions) (*Server, error) { return serve.New(opts) }

// MustNewServer is NewServer for known-good options; it panics on error.
func MustNewServer(opts ServeOptions) *Server { return serve.MustNew(opts) }

// Req carries the per-submission options of one Do or DoULT call:
// affinity key, end-to-end deadline, non-blocking admission. The zero
// value is a plain submission — unkeyed, no deadline, blocking.
type Req = serve.Req

// Do queues fn as a tasklet-shaped request with the options in req —
// the single submission entry point the legacy Submit*/TrySubmit*
// permutations collapse into. With the zero Req, Do blocks on a full
// queue until space frees, ctx is cancelled, or the server closes; a
// deadline on ctx is adopted as the request's completion budget.
// Req.Key pins the request to its key's shard (FNV-1a hash), keeping
// that shard's backend-local state warm for the session; Req.Deadline
// sets an explicit budget — a request still queued when it passes is
// shed before launch (Future resolves ErrExpired), and a launched
// handler sees it through the cooperative cancellation signal
// (Canceled, cancelable Sleep/AwaitIO); Req.NonBlocking turns a full
// queue into an immediate ErrSaturated instead of parking.
func Do[T any](sub *Submitter, ctx context.Context, fn func() (T, error), req Req) (*Future[T], error) {
	return serve.Do(sub, ctx, fn, req)
}

// DoULT is Do for stackful request bodies: fn receives the cooperative
// context, so it can spawn and join child work units (nested
// parallelism on the serving runtime) and issue cancelable aio waits.
func DoULT[T any](sub *Submitter, ctx context.Context, fn func(Ctx) (T, error), req Req) (*Future[T], error) {
	return serve.DoULT(sub, ctx, fn, req)
}
