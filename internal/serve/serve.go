package serve

import (
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/trace"
)

var (
	// ErrSaturated is the fast-reject returned when the submission
	// queues are at QueueDepth — the backpressure signal, returned
	// instead of blocking or deadlocking. Unkeyed submissions are
	// re-routed once before it surfaces; keyed submissions surface it
	// directly (re-routing would break affinity).
	ErrSaturated = errors.New("serve: submission queue saturated")
	// ErrClosed is returned for submissions to a closed server, and
	// resolves Futures of requests still queued when the drain deadline
	// expires at shutdown.
	ErrClosed = errors.New("serve: server closed")
	// ErrExpired resolves the Future of a deadline-carrying request
	// whose budget ran out before launch: the pump sheds it from the
	// queue instead of spending an executor on an answer nobody is
	// waiting for. Counted in Metrics.Expired.
	ErrExpired = errors.New("serve: request deadline expired before launch")
)

// Defaults for Options fields left zero.
const (
	// DefaultQueueDepth bounds each shard's submission queue.
	DefaultQueueDepth = 1024
	// DefaultTraceSample is the request-trace sampling interval: one
	// request in every DefaultTraceSample emits its KindUser interval.
	DefaultTraceSample = 8
	// slowTraceCutoff bypasses sampling: any request at least this slow
	// is always traced, so the flight recorder never misses a tail-
	// latency outlier between samples.
	slowTraceCutoff = 25 * time.Millisecond
	// stealKickDepth is the unkeyed queue depth at which a push also
	// wakes a parked peer to steal (Options.Steal): one queued request is
	// its own pump's to take on the push's kick, a second one queued
	// behind it means that pump has not caught up.
	stealKickDepth = 2
)

// Options configures a Server.
type Options struct {
	// Backend is the registered backend name (see core.Backends);
	// empty means "go".
	Backend string
	// Threads is the executor count per shard; <= 0 means
	// runtime.NumCPU() divided by the shard count (at least 1), so a
	// zero-value Options keeps the pool's total executor budget at one
	// per CPU rather than multiplying shards by CPUs.
	Threads int
	// Scheduler names the backend's ready-pool policy (core.Config.
	// Scheduler); empty means the backend default. Requests the backend
	// cannot honor degrade per the unified API's negotiation rules.
	Scheduler string
	// Shards is the number of independent backend runtimes the server
	// starts, each behind its own queue and pump; <= 0 means
	// runtime.NumCPU(). One shard reproduces the unsharded engine. This
	// is also the keyed-affinity domain and the autoscaler's floor:
	// keyed submissions hash over these base shards only, so growing or
	// shrinking the pool never remaps a key.
	Shards int
	// Router spreads unkeyed submissions across shards; nil means
	// power-of-two-choices on shard depth (P2C). See RouterByName.
	Router Router
	// QueueDepth bounds each shard's submission queue; <= 0 means
	// DefaultQueueDepth. With every candidate shard's queue full,
	// a non-blocking Do fast-rejects with ErrSaturated and a blocking
	// Do parks.
	QueueDepth int
	// MaxInFlight caps launched-but-unfinished work units per shard. At
	// the cap the shard's pump stops launching, so its queue fills and
	// admission control engages; without it every burst would pour
	// straight into the backend's unbounded pools. <= 0 means
	// QueueDepth.
	MaxInFlight int
	// DrainTimeout bounds how long Close lets each shard keep launching
	// queued requests. Work already launched always runs to completion;
	// once the deadline passes, requests still queued resolve their
	// Futures with ErrClosed instead of running. Zero means drain
	// without a deadline.
	DrainTimeout time.Duration
	// Steal enables idle-shard work stealing: a shard whose own queues
	// are empty and whose executors have spare capacity takes unkeyed
	// queued requests from the most-loaded shard and runs them itself.
	// Keyed requests are never stolen — they sit in a queue only their
	// pinned shard's pump drains — so the affinity contract holds
	// verbatim. Stolen requests count as Submitted on the shard that
	// accepted them and Completed on the shard that ran them; the
	// aggregate drain identity is unaffected. Stealing is event-driven:
	// an idle pump steals before it parks, and a push that grows a
	// shard's unkeyed backlog to two wakes one parked pump to steal it.
	Steal bool
	// Scale arms the shard autoscaler when Scale.MaxShards exceeds
	// Shards; see AutoScale.
	Scale AutoScale
	// Tracer records one KindUser interval per request (submission to
	// completion, Unit = request id) into a per-shard flight-recorder
	// lane (Exec = -(shard+1): the work ran on some backend executor,
	// but the interval belongs to the request). Nil selects the
	// process-global recorder (trace.Default) — tracing is always on
	// unless LWT_TRACE_OFF disables the recorder itself.
	Tracer *trace.Recorder
	// TraceSample traces one request in every TraceSample (rounded up
	// to a power of two; <= 0 means DefaultTraceSample, 1 means every
	// request). Requests slower than 25ms are always traced regardless
	// of sampling, so tail outliers never slip between samples.
	TraceSample int
	// OnAnomaly, when non-nil, arms the anomaly watchdog: Metrics() is
	// sampled every AnomalyInterval and the callback fires when the
	// detector sees a P99 spike against its EWMA baseline or sustained
	// saturation growth (see detector). The callback runs on the
	// watchdog goroutine — lwtserved uses it to write a flight-recorder
	// dump, which is the point: the trace window still holds the anomaly
	// when the callback fires.
	OnAnomaly func(reason string, m Metrics)
	// AnomalyInterval is the watchdog sample period; <= 0 means
	// DefaultAnomalyInterval. Ignored without OnAnomaly.
	AnomalyInterval time.Duration
}

// Server is a request-serving engine over a pool of backend runtimes.
// Create one with New, submit through Submitter, stop with Close.
type Server struct {
	opts   Options
	router Router
	// base is the configured shard count: the keyed-affinity hash
	// domain and the autoscaler's floor. Base shards are never removed
	// from the routing set.
	base int
	// all is every shard, base and headroom, in id order: the
	// Scale.MaxShards shards New starts, never changed after it, so it
	// is read without a lock. It is the metrics domain: a shard outside
	// the routing set keeps its counters and its parked pump, which
	// still owns its queues, so a submission that raced a scale-down is
	// served, not stranded.
	all []*shard
	// live is the routing set's size: unkeyed submissions land on
	// all[:live]. The autoscaler moves it between base and len(all).
	live atomic.Int32
	// load is the router's probe over all, built once so a Pick passes
	// it without allocating a closure per submission.
	load func(i int) int
	rec  *trace.Recorder
	// scaleRing is the autoscaler's trace lane: one KindUser instant
	// per scale event, Unit = the new routing-set size.
	scaleRing            *trace.Ring
	scaleUps, scaleDowns atomic.Uint64

	quit   chan struct{}
	closed atomic.Bool
	active atomic.Int64 // producers currently inside a submit call
	nextID atomic.Uint64
	start  time.Time
	// drainBy is the shutdown deadline in unix nanoseconds (0 = none).
	// It is written before quit closes, so pumps that observed the
	// close see it.
	drainBy atomic.Int64
	// traceMask samples request traces: id&traceMask == 0 emits.
	// TraceSample rounded up to a power of two, minus one.
	traceMask uint64
}

// New starts a server: it spawns one pump goroutine per shard — base
// and autoscaler headroom alike, Scale.MaxShards in all — each
// initializing its own instance of the named backend, and returns once
// every shard is serving (or any initialization failed, in which case
// the shards that did start are torn down). Headroom shards start
// parked, outside the routing set.
func New(opts Options) (*Server, error) {
	if opts.Backend == "" {
		opts.Backend = "go"
	}
	if opts.Shards <= 0 {
		opts.Shards = runtime.NumCPU()
	}
	if opts.Threads <= 0 {
		// Split the CPU budget across the pool: defaulting both fields
		// yields NumCPU total executors, not Shards x NumCPU.
		opts.Threads = runtime.NumCPU() / opts.Shards
		if opts.Threads < 1 {
			opts.Threads = 1
		}
	}
	if opts.QueueDepth <= 0 {
		opts.QueueDepth = DefaultQueueDepth
	}
	if opts.MaxInFlight <= 0 {
		opts.MaxInFlight = opts.QueueDepth
	}
	if opts.TraceSample <= 0 {
		opts.TraceSample = DefaultTraceSample
	}
	if opts.Scale.MaxShards < opts.Shards {
		opts.Scale.MaxShards = opts.Shards // autoscaling off
	}
	if opts.Scale.Interval <= 0 {
		opts.Scale.Interval = DefaultScaleInterval
	}
	router := opts.Router
	if router == nil {
		router = P2C{}
	}
	s := &Server{
		opts:   opts,
		router: router,
		base:   opts.Shards,
		quit:   make(chan struct{}),
		start:  time.Now(),
	}
	mask := uint64(1)
	for int(mask) < opts.TraceSample {
		mask <<= 1
	}
	s.traceMask = mask - 1
	s.rec = opts.Tracer
	if s.rec == nil {
		s.rec = trace.Default()
	}
	s.all = make([]*shard, opts.Scale.MaxShards)
	for i := range s.all {
		s.all[i] = &shard{
			s:       s,
			id:      i,
			keyed:   make(chan *request, opts.QueueDepth),
			unkeyed: make(chan *request, opts.QueueDepth),
			space:   make(chan struct{}, 1),
			done:    make(chan struct{}),
			ring:    s.rec.SharedRing(fmt.Sprintf("serve/%s/shard%d", opts.Backend, i), -(i + 1)),
		}
	}
	s.live.Store(int32(opts.Shards))
	s.load = func(i int) int { return s.all[i].load() }
	ready := make(chan error, len(s.all))
	for _, sh := range s.all {
		go sh.pump(ready)
	}
	var firstErr error
	for range s.all {
		if err := <-ready; err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if firstErr != nil {
		s.Close() // tear down the shards that did start
		return nil, fmt.Errorf("serve: start %q: %w", opts.Backend, firstErr)
	}
	if opts.Scale.MaxShards > opts.Shards {
		s.scaleRing = s.rec.SharedRing(fmt.Sprintf("serve/%s/scale", opts.Backend), scaleLaneExec)
		go s.watchScale()
	}
	if opts.OnAnomaly != nil {
		go s.watchAnomalies()
	}
	return s, nil
}

// MustNew is New for known-good options; it panics on error.
func MustNew(opts Options) *Server {
	s, err := New(opts)
	if err != nil {
		panic(err)
	}
	return s
}

// Backend reports the serving backend's name.
func (s *Server) Backend() string { return s.opts.Backend }

// NumShards reports the routing set's current size: base shards plus
// the headroom shards the autoscaler has added. It changes over time
// when autoscaling is armed.
func (s *Server) NumShards() int { return len(s.shards()) }

// Router reports the router spreading unkeyed submissions.
func (s *Server) Router() Router { return s.router }

// ShardOf reports the shard index keyed submissions with this affinity
// key pin to — stable for the server's whole lifetime. Keys hash over
// the base shard count only, so autoscaling never remaps them.
func (s *Server) ShardOf(key string) int { return keyShard(key, s.base) }

// shards returns the current routing set, one atomic load.
func (s *Server) shards() []*shard { return s.all[:s.live.Load()] }

// Submitter returns the server's injection front-end. It is safe for any
// number of goroutines and can be handed to producers that should not be
// able to Close the server.
func (s *Server) Submitter() *Submitter { return &Submitter{s: s} }

// Snapshot reads the server's counters and latency histograms once and
// returns both views: the cross-shard aggregate (Metrics.Shard == -1)
// and the per-shard breakdown (entry i is shard i, including headroom
// shards outside the routing set — their counters stay visible and
// monotonic) — the form a metrics scrape that wants aggregate and
// breakdown together should use.
func (s *Server) Snapshot() (Metrics, []Metrics) {
	up := time.Since(s.start)
	shards := s.NumShards()
	agg := Metrics{
		Backend:    s.opts.Backend,
		Shard:      -1,
		Shards:     shards,
		Router:     s.router.Name(),
		Uptime:     up,
		ScaleUps:   s.scaleUps.Load(),
		ScaleDowns: s.scaleDowns.Load(),
	}
	per := make([]Metrics, len(s.all))
	for i, sh := range s.all {
		mt := Metrics{
			Backend:    s.opts.Backend,
			Shard:      sh.id,
			Shards:     shards,
			Router:     s.router.Name(),
			Submitted:  sh.m.submitted.Load(),
			Completed:  sh.m.completed.Load(),
			Saturated:  sh.m.saturated.Load(),
			Canceled:   sh.m.canceled.Load(),
			Expired:    sh.m.expired.Load(),
			Rejected:   sh.m.rejected.Load(),
			Failed:     sh.m.failed.Load(),
			Panicked:   sh.m.panicked.Load(),
			Steals:     sh.m.steals.Load(),
			PumpParks:  sh.m.pumpParks.Load(),
			QueueDepth: int(sh.queued.Load()),
			InFlight:   int(sh.inflight.Load()),
			IOParked:   int(sh.ioparked.Load()),
			Uptime:     up,
			Latency:    sh.m.lat.Snapshot(),
		}
		if rt := sh.rt.Load(); rt != nil {
			mt.Sched = rt.SchedStats()
		}
		if secs := up.Seconds(); secs > 0 {
			mt.Throughput = float64(mt.Completed) / secs
		}
		per[i] = mt
		agg.Submitted += mt.Submitted
		agg.Completed += mt.Completed
		agg.Saturated += mt.Saturated
		agg.Canceled += mt.Canceled
		agg.Expired += mt.Expired
		agg.Rejected += mt.Rejected
		agg.Failed += mt.Failed
		agg.Panicked += mt.Panicked
		agg.Steals += mt.Steals
		agg.PumpParks += mt.PumpParks
		agg.QueueDepth += mt.QueueDepth
		agg.InFlight += mt.InFlight
		agg.IOParked += mt.IOParked
		agg.Sched = agg.Sched.Plus(mt.Sched)
		agg.Latency = agg.Latency.Add(mt.Latency)
	}
	if secs := up.Seconds(); secs > 0 {
		agg.Throughput = float64(agg.Completed) / secs
	}
	return agg, per
}

// Metrics snapshots the server's counters and latency histograms,
// aggregated across every shard (Metrics.Shard is -1). Use ShardMetrics
// for the per-shard breakdown, or Snapshot for both in one pass.
func (s *Server) Metrics() Metrics {
	agg, _ := s.Snapshot()
	return agg
}

// ShardMetrics snapshots each shard's own counters and latency histogram;
// entry i is shard i (Metrics.Shard = i). The sum over entries is
// Metrics().
func (s *Server) ShardMetrics() []Metrics {
	_, per := s.Snapshot()
	return per
}
