// Package serve is the request-serving subsystem over the unified LWT
// API: it turns any registered backend into a concurrent task-submission
// engine that arbitrary goroutines can drive, which the paper's reduced
// function set (Table II, Listing 4) cannot do on its own — work may only
// be created from the backend's main thread or from inside a running work
// unit, joins return no values, and nothing pushes back when producers
// outrun the runtime.
//
// The engine is a pool of shards. Each shard is an independent backend
// runtime behind its own bounded multi-producer queues, with a keeper
// goroutine as the backend's main thread; power-of-two choices on shard
// depth spreads unkeyed submissions across shards (Options.Router
// replaces it only as a test seam), and keyed submissions pin to one
// shard by hash so backend-local state stays warm. All submissions
// enter through Do (tasklet bodies) and DoULT (stackful bodies), with
// the per-request options — affinity key, deadline, non-blocking
// admission — carried in a Req:
//
//	producers (any goroutine)
//	  Do / DoULT    ───P2C────▶ shard 0 ──slot free──▶ Spawn ──▶ runtime 0
//	  Do{Req.Key}   ──FNV-1a──▶ shard 1 ──at the cap─▶ queues
//	        │                     ▲                      │
//	        │                     └── finish / I/O park ─┘  (pull: launch)
//	        ▼
//	   Future[T]  ◀── complete(value, err, panic) ◀── any shard's executor
//
// A request launches where its executor slot is known to be free, and
// nowhere else: a producer whose shard has a slot free under
// MaxInFlight (inflight − ioparked, claimed by CAS) spawns the work
// unit itself; otherwise the request is queued, and the next event that
// frees a slot — a completion, or an I/O park — takes it from the queue
// and spawns it. core.Runtime.Spawn is safe from any goroutine, so no
// goroutine exists to move requests: the keeper only opens the runtime,
// parks its main thread (core.Runtime.MainPark, which is what drives
// Converse's processor 0 and frees the adopted Argobots and
// MassiveThreads primary's executor) until Close, and then drains and
// finalizes it. The two roads cannot strand a request: a producer
// re-checks for a free slot after it queued, and an event publishes the
// slot it freed before it looks at the queues, so whichever of the two
// comes second sees the other — a request never sits queued while its
// shard (with stealing on, any shard) has a slot free. A producer that
// launched its own request yields its thread on one launch in sixteen:
// one whose futures are done before it waits never blocks, and would
// otherwise hold its P for a whole preemption slice while the executors
// running its requests wait.
//
// Admission is one counter per shard: a queued submission is accepted
// by a CAS increment of the shard's queued count below QueueDepth, and
// each dequeue decrements it. Control is two-level: a full shard
// re-routes one submission once (to the least-loaded shard) before a
// non-blocking Do surfaces ErrSaturated, a blocking Do parks on the
// least-loaded shard until a dequeue signals it, and Close is a graceful
// drain — admission stops, queued requests keep launching as slots free
// (bounded by Options.DrainTimeout), and every accepted Future resolves.
//
// A request costs one heap object from Do to completion: its call
// record holds the queue entry, the Future and the body, and launch
// spawns it as a detached work unit (core.Runtime.Spawn) that keeps no
// handle. The Future's channel is made only for a waiter that has to
// block.
//
// # Idle
//
// An idle Server costs no CPU, and there is no option to set. Every
// backend's dispatch loop shares one idle policy (the idle step of
// ult.Executor.Run): an executor that finds nothing to run yields its OS
// thread for a fixed budget of 64 consecutive empty polls, then parks
// on its pool's ult.Idler until something is pushed there. Whatever
// makes a unit runnable wakes the pool's sleepers — a launch, a child
// created or a yield requeued by a running unit, a join or aio
// completion resuming a parked unit, a push a thief could steal — so a
// request never queues behind a spinner. The keepers sleep on their
// main threads from New to Close, and no timer re-scans the queues, so
// on an idle server Metrics.Sched.Parks and EmptyPops stay flat.
//
// # Work stealing
//
// The shard set is fixed when New starts it, as each of the paper's
// runtimes fixes its executors at initialization; a deployment that
// wants N shards sets Options.Shards to N. Within that set, work
// stealing (Options.Steal, off by default) moves unkeyed load. A slot
// that frees with its own shard's queues empty takes the next queued
// unkeyed request from the shard with the deepest unkeyed backlog and
// runs it; and an unkeyed request whose shard has no slot free starts
// at once on a peer that has one. Stealing never moves keyed work: each
// shard buffers keyed and unkeyed requests separately, and the keyed
// queue is only ever launched from on its own shard, so the affinity
// contract — same key, same runtime, for the server's lifetime — holds
// by construction, not by policy. A stolen request stays Submitted on
// the shard that accepted it and becomes Completed (and Steals) on the
// shard that ran it, so per-shard Submitted/Completed drift under
// stealing while every aggregate identity below holds exactly.
//
// # Observability
//
// Server.Metrics returns one Metrics snapshot per shard plus an
// aggregate. The counters (Submitted, Completed, Saturated, Canceled,
// Rejected, Failed, Panicked, Steals) are monotonic over the Server's
// lifetime; the gauges (QueueDepth, InFlight, IOParked) are
// instantaneous.
// Invariants the fields keep:
//
//   - Admission accounting: InFlight counts requests that were accepted
//     and have not yet resolved their Future, including requests parked
//     on the async-I/O reactor (internal/aio). IOParked is the parked
//     subset, so InFlight - IOParked is the work actually occupying the
//     shard's runtime — the number the router's load estimate and the
//     saturation checks are really about.
//   - Drain accounting: after Close, Submitted stops growing, launched
//     work always runs to completion, and every queued-but-unlaunched
//     request past the drain deadline resolves its Future with
//     ErrClosed. When drain returns, InFlight is zero and Submitted ==
//     Completed + Canceled + Failed + Panicked + the ErrClosed
//     remainder.
//   - Deadline accounting: every accepted request resolves exactly once
//     — Submitted == Completed + Rejected + Expired after drain, summed
//     across shards. With stealing on, the identity holds in the
//     aggregate only: Submitted counts at the accepting shard, the
//     resolution counts at the shard that ran (or shed) the request.
//     Expired counts requests shed at launch because their deadline
//     passed (or their context was cancelled) while queued; the handler
//     body never ran. Canceled counts blocking Submits that gave up
//     while parked waiting for queue space — those were never accepted,
//     so they sit outside the identity. A request whose deadline
//     expires after launch is *not* shed: launched work runs to
//     completion, but its Ctx's cancellation channel (core.Canceled)
//     fires so handlers — and any aio park they are blocked in — can
//     return core.ErrCanceled early. Cancellation is strictly
//     cooperative: a handler that ignores the channel runs to the end
//     and counts as Completed.
//   - Latency is recorded per completion into one lock-free log-bucket
//     histogram per shard (internal/lathist: four buckets per power of
//     two, an atomic add per request). Metrics.Latency is its lifetime
//     Counts: Quantile gives P50/P99 within 25 %, and the difference of
//     two samples' Latency is the latency of the requests completed
//     between them — the window by time the anomaly watchdog judges.
//     WriteProm folds the same counts onto
//     power-of-two le bounds, so /metrics and Metrics never disagree.
//   - Sched carries the shard queue's cumulative queue.Counts (pushes,
//     pops, steals, contended CAS retries, empty polls, executor parks),
//     surfaced so scheduler-level contention is visible next to
//     request-level load.
//
// WriteProm renders any set of View snapshots as a Prometheus text-0.0.4
// page (families contiguous across backends, as the format requires);
// lwtserved mounts it at /metrics. Options.OnAnomaly arms a watchdog
// that samples Metrics every AnomalyInterval and fires on a P99 spike or
// sustained saturation — lwtserved uses it to dump the always-on flight
// recorder (internal/trace) while the anomaly is still inside the ring
// window. Request intervals are traced with 1-in-Options.TraceSample
// sampling, plus every slow request. See TRACING.md for the operator
// view of both surfaces.
//
// # Files
//
//   - serve.go: Options, Server, New, the accessors and Snapshot.
//   - admission.go: Req, the request and its typed call, the shard's
//     queues and admission counter (admit, accept, start, push, pop,
//     take), Do/DoULT, route and submit.
//   - launch.go: the executor slots (claim, backlog, pull), stealing,
//     launch, completion (Run, record, finish) and the handler
//     contexts.
//   - drain.go: the keeper, Close, its wakes and the drain check, and
//     the sweep.
//   - detector.go: the anomaly watchdog and its detector; router.go:
//     the P2C router and the key hash; future.go: Future; metrics.go and
//     prom.go: Metrics and its Prometheus page.
package serve
