// Package cluster is the distributed serving tier over the in-process
// engine: it scales the PR 5 shard pool past one Go process by routing
// HTTP requests across N lwtserved worker processes. The shape mirrors
// the in-process design one level up — what a Router does for shards
// inside one Server, the gateway does for whole workers:
//
//	clients
//	  GET /fib?key=sess-7 ──ring (FNV-1a + vnodes)──▶ worker 10.0.0.1:8080
//	  GET /fib            ──p2c (in-flight×latency)─▶ worker 10.0.0.2:8080
//	        │                                         worker 10.0.0.3:8080  (ejected)
//	        ▼                                              ▲
//	   response  ◀── bounded retry on conn failure ──  health checks
//
// Keyed requests pin to a worker by consistent hashing, so sessions
// keep hitting one process's warm runtimes and membership changes
// remap only the departed worker's share of the key space. Unkeyed
// requests spread by power-of-two-choices over live load estimates,
// with worker 503s feeding the estimate as backpressure. Active health
// checks eject dead workers and re-admit recovered ones; connection
// failures retry idempotent requests on the next candidate, bounded.
//
// # Deadlines
//
// A request carrying X-LWT-Deadline-Ms (or ?deadline_ms=) is budgeted
// end to end: each proxy attempt's context is bounded by
// min(Options.AttemptTimeout, remaining budget), the forwarded header
// carries the *remaining* milliseconds so the worker's serve layer can
// shed queued work whose client stopped waiting, and when the budget
// runs out at the gate the answer is an immediate 504 — retries never
// outlive the deadline.
//
// # Circuit breaker
//
// Health ejection reacts to consecutive hard failures — a dead
// process. The per-worker circuit breaker covers the sick-but-alive
// process that still intermittently answers and so never trips a
// consecutive counter: it watches the failure *rate* (attempt timeouts
// and transport errors; a 503 is backpressure, not failure) over a
// sliding window of settled attempts, per BreakerPolicy:
//
//	closed ──[failures/window ≥ FailureRatio over ≥ MinSamples]──▶ open
//	open ──[Cooldown elapsed; next attempt admitted as probe]──▶ half-open
//	half-open ──[probe succeeds]──▶ closed (window reset)
//	half-open ──[probe fails]──▶ open (cooldown restarts)
//
// An open breaker removes the worker from first-choice routing
// (Worker.Routable = Healthy ∧ breaker-admitting) but routing fails
// open: keyed candidates demote breaker-blocked workers behind
// routable ones and ejected ones last, so a key whose whole candidate
// list is sick still reaches *something*. A request whose every
// candidate is breaker-open is answered 503 with Retry-After set to
// the longest remaining cooldown. Attempts cancelled by the client or
// by a hedge race settle as drops — they say nothing about the worker
// and never move the breaker. Only the probe's own outcome moves a
// half-open breaker: an attempt admitted while closed that settles
// after the breaker opened is recorded, never taken for the probe.
// Transitions are traced (trace.KindBreaker,
// Unit = new state) and exported (lwt_gate_breaker_state,
// lwt_gate_worker_breaker_opens_total).
//
// Hedging (Options.Hedge) is the tail-latency complement: an
// idempotent, unkeyed, body-less request stuck past the recent P99
// launches one extra attempt on another admitted worker; the first
// useful response wins and the loser's context is cancelled.
//
// # Observability
//
// Gateway.Snapshot returns a Metrics value: gateway-level gauges
// (Members, Healthy, InFlight, Draining) and counters (Proxied,
// Retried, Failed, RejectedDraining), plus one WorkerMetrics per
// member. Each worker row carries the raw load-estimate inputs —
// InFlight, the latency EWMA in microseconds, and the 503-backpressure
// Penalty — and the composed p2c score the router actually compares:
//
//	Score = (InFlight + Penalty + 1) × (EWMA + 1ms floor)
//
// Lower scores route sooner; the +1 and the floor keep a cold worker
// from scoring zero and absorbing the whole arrival burst. Ejections
// and Readmissions count health-state transitions, so a worker that
// flaps is visible as a counter pair growing in lockstep rather than as
// a gauge blinking between scrapes. Metrics.WriteProm renders the
// snapshot as a Prometheus text-0.0.4 page; Gateway.PromHandler mounts
// it (lwtgate serves it at /metrics and /cluster/metrics?format=prom),
// and MetricsHandler keeps the JSON view. See TRACING.md for the family
// list and scrape configuration.
package cluster
