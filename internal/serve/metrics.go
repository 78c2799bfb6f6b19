package serve

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/microbench"
	"repro/internal/queue"
)

// histBounds are the fixed exponential upper bounds of the latency
// histogram, chosen to straddle the paper's microsecond-scale work units
// and real I/O-bound request times. The histogram has one more bucket
// than bounds: the final, implicit bound is +Inf.
var histBounds = [...]time.Duration{
	50 * time.Microsecond, 100 * time.Microsecond, 250 * time.Microsecond,
	500 * time.Microsecond, time.Millisecond, 2500 * time.Microsecond,
	5 * time.Millisecond, 10 * time.Millisecond, 25 * time.Millisecond,
	50 * time.Millisecond, 100 * time.Millisecond, 250 * time.Millisecond,
	500 * time.Millisecond, time.Second, 2500 * time.Millisecond,
}

const numHistBuckets = len(histBounds) + 1

// HistBounds returns the latency histogram's bucket upper bounds. The
// returned slice has len(Metrics.Hist)-1 entries; the last histogram
// bucket is +Inf. Callers must not modify it.
func HistBounds() []time.Duration { return histBounds[:] }

// metrics is one shard's internal counter and latency-sample state.
type metrics struct {
	submitted atomic.Uint64 // accepted into the queue
	completed atomic.Uint64 // request bodies finished (incl. failed/panicked)
	saturated atomic.Uint64 // fast-rejected with ErrSaturated
	canceled  atomic.Uint64 // cancelled/expired while blocked submitting (never accepted)
	expired   atomic.Uint64 // shed before launch: deadline passed or ctx cancelled while queued
	rejected  atomic.Uint64 // failed with ErrClosed at shutdown
	failed    atomic.Uint64 // bodies that returned an error
	panicked  atomic.Uint64 // bodies that panicked
	steals    atomic.Uint64 // unkeyed requests this shard stole from another shard's queue
	pumpParks atomic.Uint64 // times the shard's pump parked its main thread

	// hist counts completed requests per latency bucket (non-cumulative
	// here; Metrics.Hist exposes the Prometheus-style cumulative form).
	// latSum accumulates every observed latency for the _sum series.
	hist   [numHistBuckets]atomic.Uint64
	latSum atomic.Int64

	// lats is a ring of recent end-to-end request latencies
	// (submission to completion), the window Metrics summarizes.
	mu   sync.Mutex
	lats []time.Duration
	next int
	wrap bool
}

// observe records one completed request's latency.
func (m *metrics) observe(lat time.Duration) {
	m.completed.Add(1)
	b := 0
	for b < len(histBounds) && lat > histBounds[b] {
		b++
	}
	m.hist[b].Add(1)
	m.latSum.Add(int64(lat))
	m.mu.Lock()
	if len(m.lats) > 0 {
		m.lats[m.next] = lat
		m.next++
		if m.next == len(m.lats) {
			m.next = 0
			m.wrap = true
		}
	}
	m.mu.Unlock()
}

// histSnapshot reads the bucket counters once and returns the cumulative
// (Prometheus "le"-style) histogram: entry i counts requests with
// latency <= histBounds[i], the final entry counts everything observed.
func (m *metrics) histSnapshot() []uint64 {
	out := make([]uint64, numHistBuckets)
	var run uint64
	for i := range m.hist {
		run += m.hist[i].Load()
		out[i] = run
	}
	return out
}

// window snapshots the latency ring in no particular order.
func (m *metrics) window() []time.Duration {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := m.next
	if m.wrap {
		n = len(m.lats)
	}
	out := make([]time.Duration, n)
	copy(out, m.lats[:n])
	return out
}

// Metrics is a point-in-time snapshot of serving counters and recent
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
	// Shards is the routing set's current size — base shards plus live
	// dynamic shards. With autoscaling armed it moves between
	// Options.Shards and AutoScale.MaxShards; the per-shard slice from
	// ShardMetrics may be longer (scaled-down shards keep reporting).
	Shards int
	// Router is the name of the router spreading unkeyed submissions.
	Router string
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
	// Steals counts unkeyed queued requests this shard took from
	// another shard's queue and ran itself (Options.Steal). Thief-side:
	// a stolen request stays Submitted on the shard that accepted it
	// and becomes Completed here, so per-shard Submitted and Completed
	// drift apart under stealing while the aggregate drain identity
	// holds exactly.
	Steals uint64
	// PumpParks counts the times the shard's pump found nothing to do,
	// spent the idle policy's spin budget and parked its main thread
	// until a kick. A pump that polled instead would leave it flat while
	// burning a core; a parked, quiet shard leaves it flat at no cost.
	PumpParks uint64
	// ScaleUps and ScaleDowns count autoscaler routing-set changes over
	// the server's lifetime (aggregate view only; zero per shard).
	ScaleUps   uint64
	ScaleDowns uint64
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
	// Latency summarizes the recent latency window: mean, RSD and the
	// P50/P95/P99 percentiles (zero-valued until a request completes).
	// Latency is end-to-end — measured from the submission call, so for
	// blocking submits it includes time spent waiting out backpressure,
	// not just queued-to-completion service time.
	Latency microbench.Stats
	// Hist is the cumulative end-to-end latency histogram over the
	// server's whole lifetime (unlike Latency, which covers only the
	// recent window): Hist[i] counts completed requests with latency
	// <= HistBounds()[i], and the final entry — the +Inf bucket — counts
	// every completion. Cumulative counts map directly onto Prometheus
	// histogram "le" series.
	Hist []uint64
	// LatencySum is the sum of every completed request's end-to-end
	// latency, the _sum companion to Hist.
	LatencySum time.Duration
	// Sched snapshots the shard runtime's scheduler pool counters —
	// pushes, pops, steals, contended operations, empty polls — and its
	// executors' parks, summed across the backend's executors (and
	// across shards in the aggregate view). Zero-valued on backends
	// without instrumented pools.
	Sched queue.Counts
}
