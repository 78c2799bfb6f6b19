package serve

import (
	"sync/atomic"
	"time"

	"repro/internal/lathist"
	"repro/internal/queue"
)

// metrics is one shard's internal counters and latency histogram.
type metrics struct {
	submitted atomic.Uint64 // accepted into the queue
	completed atomic.Uint64 // request bodies finished (incl. failed/panicked)
	saturated atomic.Uint64 // fast-rejected with ErrSaturated
	canceled  atomic.Uint64 // cancelled/expired while blocked submitting (never accepted)
	expired   atomic.Uint64 // shed before launch: deadline passed or ctx cancelled while queued
	rejected  atomic.Uint64 // failed with ErrClosed at shutdown
	failed    atomic.Uint64 // bodies that returned an error
	panicked  atomic.Uint64 // bodies that panicked
	steals    atomic.Uint64 // unkeyed requests accepted by another shard and run here
	lat       lathist.Hist  // end-to-end latency of every completed request
}

// observe records one completed request's latency. It takes no lock.
func (m *metrics) observe(lat time.Duration) {
	m.completed.Add(1)
	m.lat.Observe(lat)
}

// Metrics is a point-in-time snapshot of serving counters and the
// latency distribution — the throughput/queue-depth/percentile view a
// serving deployment watches. Server.Metrics returns the aggregate
// across shards (Shard == -1); Server.ShardMetrics returns one entry
// per shard.
type Metrics struct {
	// Backend is the serving backend's registered name.
	Backend string
	// Shard is the shard index this snapshot covers, or -1 for the
	// whole-server aggregate.
	Shard int
	// Shards is the server's shard count, Options.Shards after
	// defaulting; the per-shard slice from ShardMetrics has one entry
	// per shard.
	Shards int
	// Submitted counts requests accepted into the queue.
	Submitted uint64
	// Completed counts finished request bodies, including those that
	// returned errors or panicked.
	Completed uint64
	// Saturated counts submissions fast-rejected with ErrSaturated.
	Saturated uint64
	// Canceled counts submissions that gave up while blocked on a full
	// queue — context cancelled or deadline passed before acceptance.
	// They were never accepted, so they sit outside the drain identity.
	Canceled uint64
	// Expired counts accepted requests shed from the queue before
	// launch: their deadline passed (ErrExpired) or their submission
	// context was cancelled while they waited. Together with Completed
	// and Rejected they account for every accepted request:
	// Submitted == Completed + Rejected + Expired after a drain.
	Expired uint64
	// Rejected counts queued requests failed with ErrClosed at shutdown.
	Rejected uint64
	// Failed counts bodies that returned a non-nil error.
	Failed uint64
	// Panicked counts bodies whose panic was captured into the Future.
	Panicked uint64
	// Steals counts unkeyed requests that ran on this shard although
	// another shard accepted them (Options.Steal): taken from that
	// shard's queue by a slot freed here, or started here by their
	// producer because the accepting shard had no slot free.
	// Runner-side: a stolen request stays Submitted on the shard that
	// accepted it and becomes Completed here, so per-shard Submitted and
	// Completed drift apart under stealing while the aggregate drain
	// identity holds exactly.
	Steals uint64
	// QueueDepth is the number of requests waiting in the submission
	// queue right now.
	QueueDepth int
	// InFlight is the number of launched-but-unfinished work units.
	InFlight int
	// IOParked is how many of InFlight are currently parked on the
	// async-I/O reactor: launched, unfinished, but holding no executor.
	// The admission gate discounts them, so InFlight may legitimately
	// exceed MaxInFlight by up to IOParked.
	IOParked int
	// Uptime is the time since the server started.
	Uptime time.Duration
	// Throughput is Completed divided by Uptime, in requests/second.
	Throughput float64
	// Latency counts every completed request's end-to-end latency over
	// the server's lifetime, four log-linear buckets per power of two
	// (package lathist): Latency.Quantile(0.99) is the P99 within 25 %,
	// and the Sub of two samples' Latency holds exactly the requests that
	// completed between them. Latency is end-to-end — measured from the
	// submission call, so for blocking submits it includes time spent
	// waiting out backpressure, not just queued-to-completion service
	// time.
	Latency lathist.Counts
	// Sched snapshots the shard runtime's scheduler pool counters —
	// pushes, pops, steals, contended operations, empty polls — and its
	// executors' parks, summed across the backend's executors (and
	// across shards in the aggregate view). Zero-valued on backends
	// without instrumented pools.
	Sched queue.Counts
}
