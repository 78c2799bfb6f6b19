// Package serve is the request-serving subsystem over the unified LWT
// API: it turns any registered backend into a concurrent task-submission
// engine that arbitrary goroutines can drive, which the paper's reduced
// function set (Table II, Listing 4) cannot do on its own — work may only
// be created from the backend's main thread or from inside a running work
// unit, joins return no values, and nothing pushes back when producers
// outrun the runtime.
//
// The engine is a pool of shards. Each shard is an independent backend
// runtime behind its own bounded multi-producer queues and pump
// goroutine (the backend's main thread); power-of-two choices on shard
// depth spreads unkeyed submissions across shards (Options.Router
// replaces it only as a test seam), and keyed submissions pin to one
// shard by hash so backend-local state stays warm. All submissions
// enter through Do (tasklet bodies) and DoULT (stackful bodies), with
// the per-request options — affinity key, deadline, non-blocking
// admission — carried in a Req:
//
//	producers (any goroutine)
//	  Do / DoULT          ───P2C────▶ shard 0: queues ──▶ pump ──▶ runtime 0
//	  Do{Req.Key}         ──FNV-1a──▶ shard 1: queues ──▶ pump ──▶ runtime 1
//	        │                         …
//	        ▼                         shard N-1: queues ─▶ pump ──▶ runtime N-1
//	   Future[T]  ◀── complete(value, err, panic) ◀── any shard's executor
//
// Every runtime interaction — creation, yielding, finalization — happens
// on the owning shard's pump goroutine, so backends whose master must
// drive its own scheduler (Converse's return mode, §VIII-B1) serve
// traffic exactly like preemptive ones. Admission is one counter per
// shard: a submission is accepted by a CAS increment of the shard's
// queued count below QueueDepth, and the pump's dequeue decrements it.
// Control is two-level: a full shard re-routes one submission once (to
// the least-loaded shard) before a non-blocking Do surfaces
// ErrSaturated, a blocking Do parks on the least-loaded shard until a
// dequeue signals it, and Close is a graceful drain — admission stops,
// every shard runs down its queues (bounded by Options.DrainTimeout),
// and every accepted Future resolves.
//
// A request costs one heap object from Do to completion: its call
// record holds the queue entry, the Future and the body, and the pump
// launches it as a detached work unit (core.Runtime.Spawn) that keeps
// no handle. The Future's channel is made only for a waiter that has to
// block.
//
// # Idle executors
//
// A shard's executors do not busy-wait. Every backend's dispatch loop
// shares one idle policy (the idle step of ult.Executor.Run): an executor that finds
// nothing to run yields its OS thread for a fixed budget of 64
// consecutive empty polls, then parks on its pool's ult.Idler until
// something is pushed there. Whatever makes a unit runnable wakes the
// pool's sleepers — a launch from the pump, a child created or a yield
// requeued by a running unit, a join or aio completion resuming a
// parked unit, a push a thief could steal — so an idle Server costs no
// CPU and a request never queues behind a spinner. There is no option
// to set.
//
// The pump, the backend's main thread, follows the same policy. With
// nothing to launch it polls again after a yield for the same budget —
// the backend's Yield while work is in flight, which is what runs local
// work on the cooperative masters, a runtime.Gosched otherwise — and
// then parks its main thread (core.Runtime.MainPark: the adopted
// primary suspends on Argobots and MassiveThreads, the Converse master
// drains processor 0 and then sleeps on its idler, Go and Qthreads wait
// on a channel). Before it parks it arms a sleep flag and re-checks its
// wake condition, and every event that can give it work kicks it after
// publishing the event: a push, a completion that frees room under a
// non-empty queue or ends the last in-flight unit, an I/O park that
// frees room, a peer's unkeyed backlog reaching two (with stealing on),
// Close, the drain deadline, and the last producer leaving a closed
// server. A wake that
// brings nothing to launch steals or parks again at once: the budget
// is spent only after work. Metrics.PumpParks counts the parks, so
// whether the master is polling is a /metrics query, not a CPU
// subtraction.
//
// # Work stealing
//
// The shard set is fixed when New starts it, as each of the paper's
// runtimes fixes its executors at initialization; a deployment that
// wants N shards sets Options.Shards to N. Within that set, work
// stealing (Options.Steal, off by default) moves unkeyed load: a shard
// whose own queues are empty and whose executors have spare capacity
// takes queued unkeyed requests from the shard with the deepest unkeyed
// backlog and runs them itself — as the last step before its pump
// parks, and again whenever a push grows a peer's unkeyed backlog to
// two and kicks it awake; no timer re-scans the pool. Stealing never
// moves keyed work: each shard buffers keyed and unkeyed requests
// separately, and only the owning pump ever receives from the keyed
// queue, so the affinity contract — same key, same runtime, for the
// server's lifetime — holds by construction, not by policy. A stolen
// request stays Submitted on the shard that accepted it and becomes
// Completed (and Steals) on the thief, so per-shard Submitted/Completed
// drift under stealing while every aggregate identity below holds
// exactly.
//
// # Observability
//
// Server.Metrics returns one Metrics snapshot per shard plus an
// aggregate. The counters (Submitted, Completed, Saturated, Canceled,
// Rejected, Failed, Panicked, Steals, PumpParks) are monotonic over the
// Server's lifetime; the gauges (QueueDepth, InFlight, IOParked) are
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
//     queues and admission counter (admit, push, pop, take), Do/DoULT,
//     route and submit.
//   - pump.go: the pump's park and kick, the serving loop, stealing,
//     launch, completion (Run, record, finish) and the handler
//     contexts.
//   - drain.go: Close and the per-shard shutdown (sweep).
//   - detector.go: the anomaly watchdog and its detector; router.go:
//     the P2C router and the key hash; future.go: Future; metrics.go and
//     prom.go: Metrics and its Prometheus page.
package serve
