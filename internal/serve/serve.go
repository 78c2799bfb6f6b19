package serve

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/microbench"
	"repro/internal/topo"
	"repro/internal/trace"
	"repro/internal/ult"
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
	// DefaultBatch is the largest request group launched per pump
	// wakeup.
	DefaultBatch = 64
	// DefaultLatencyWindow is the number of recent latency samples each
	// shard's metrics keep.
	DefaultLatencyWindow = 4096
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
	// per CPU rather than multiplying shards by CPUs. With Topo set,
	// <= 0 means the topology's hardware threads per core instead.
	Threads int
	// Scheduler names the backend's ready-pool policy (core.Config.
	// Scheduler); empty means the backend default. Requests the backend
	// cannot honor degrade per the unified API's negotiation rules.
	Scheduler string
	// Shards is the number of independent backend runtimes the server
	// starts, each behind its own queue and pump; <= 0 means
	// runtime.NumCPU(), or the topology's physical core count when Topo
	// is set. One shard reproduces the unsharded engine. This is also
	// the keyed-affinity domain and the autoscaler's floor: keyed
	// submissions hash over these base shards only, so growing or
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
	// Batch caps the number of requests launched per pump wakeup —
	// queued requests are turned into work units in groups, amortizing
	// the pump's scheduling step; <= 0 means DefaultBatch.
	Batch int
	// MaxInFlight caps launched-but-unfinished work units per shard. At
	// the cap the shard's pump stops launching, so its queue fills and
	// admission control engages; without it every burst would pour
	// straight into the backend's unbounded pools. <= 0 means
	// QueueDepth.
	MaxInFlight int
	// LatencyWindow is the recent-sample count kept per shard for
	// percentile metrics; <= 0 means DefaultLatencyWindow.
	LatencyWindow int
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
	// Topo, when set, derives the pool layout from the machine
	// topology: Shards defaults to the physical core count and Threads
	// to the hardware threads per core, so one shard's queue, pump and
	// executors align with one core the way Qthreads binds one Shepherd
	// per core (§III-D). Explicit Shards/Threads override it field by
	// field. See Server.Layout.
	Topo *topo.Topology
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
	// saturation growth (see anomalyDetector). The callback runs on the
	// watchdog goroutine — lwtserved uses it to write a flight-recorder
	// dump, which is the point: the trace window still holds the anomaly
	// when the callback fires.
	OnAnomaly func(reason string, m Metrics)
	// AnomalyInterval is the watchdog sample period; <= 0 means
	// DefaultAnomalyInterval. Ignored without OnAnomaly.
	AnomalyInterval time.Duration
}

// Req carries the per-submission options of one Do/DoULT call — the
// attributes the legacy Submit* permutations encoded in their names.
// The zero value is a plain submission: unkeyed, no deadline, blocking.
type Req struct {
	// Key, when non-empty, pins the request to one base shard by
	// FNV-1a hash: every submission carrying the same key lands on the
	// same backend runtime for the server's whole lifetime, keeping
	// shard-local state warm. Keyed requests never re-route, never
	// autoscale onto dynamic shards, and are never stolen.
	Key string
	// Deadline is the request's end-to-end completion budget (zero:
	// none). A request still queued when it passes is shed before
	// launch (Future resolves ErrExpired); a launched handler sees it
	// through its cooperative cancellation signal. A blocking
	// submission gives up at the deadline with ErrExpired. When ctx
	// also carries a deadline the earlier one wins.
	Deadline time.Time
	// NonBlocking selects fast-reject admission: with the routed
	// shard's queue full (and, for unkeyed requests, one re-route
	// exhausted) Do returns ErrSaturated immediately instead of
	// parking.
	NonBlocking bool
}

// request is one queued submission.
type request struct {
	id    uint64
	shard *shard          // shard accountable for the request; thief overwrites at steal
	ctx   context.Context // submission context; nil means background
	ult   bool            // needs a stackful ULT (body takes a Ctx)
	keyed bool            // pinned by affinity key: never re-routed, never stolen
	enq   time.Time
	// deadline is the request's completion budget (zero: none). The
	// pump sheds queued requests whose deadline has passed (one time
	// comparison — no timer), and running handlers see it through the
	// lazily built cancellation signal below.
	deadline time.Time
	// cancelOnce/cancelCh/stopCancel materialize the handler-visible
	// cancellation signal (core.Canceler) on first use only: the hot
	// path of an undeadlined — or deadlined but never-waiting — request
	// never allocates a timer or context for it.
	cancelOnce sync.Once
	cancelCh   <-chan struct{}
	stopCancel func()
	// run executes the body and resolves the Future; the Ctx is nil
	// for tasklet-shaped bodies.
	run func(core.Ctx)
	// fail resolves the Future with an error without running the body
	// (cancellation and shutdown paths).
	fail func(error)
}

// cancelSignal lazily builds the channel handlers and aio waits watch:
// the submission context's Done when there is no deadline, a
// deadline-armed derivation of it otherwise. Built at most once, on
// the handler's own goroutine; finish releases the timer.
func (r *request) cancelSignal() <-chan struct{} {
	r.cancelOnce.Do(func() {
		base := r.ctx
		if base == nil {
			base = context.Background()
		}
		if r.deadline.IsZero() {
			r.cancelCh = base.Done()
			return
		}
		dctx, stop := context.WithDeadline(base, r.deadline)
		r.cancelCh = dctx.Done()
		r.stopCancel = stop
	})
	return r.cancelCh
}

// shard is one independent serving lane: a backend runtime, its bounded
// queues, its pump goroutine, and its slice of the metrics.
//
// Admission is a token semaphore over two channels: slots caps the
// shard's total accepted-but-unlaunched requests at QueueDepth, and a
// holder of a token pushes into keyed or unkeyed, each sized to the
// full depth so the post-token send can never block. The split is what
// makes stealing safe by construction — Go channels are MPMC, so any
// idle pump may receive from another shard's unkeyed channel, while
// the keyed channel has exactly one consumer: the owning pump.
type shard struct {
	s       *Server
	id      int
	keyed   chan *request // drained only by the owning pump — affinity
	unkeyed chan *request // drained by the owner and by stealing pumps
	slots   chan struct{} // admission tokens; cap = QueueDepth over both queues

	inflight atomic.Int64 // launched-but-unfinished work units
	// ioparked counts the subset of inflight currently parked on the
	// async-I/O reactor (lwt.Sleep, ReadIO, ...): launched and
	// unfinished, but holding no executor. The pump's admission gate and
	// the shutdown pacer meter true CPU occupancy — inflight minus
	// ioparked — so handlers waiting on I/O do not cap the shard's
	// concurrency; the drain loop keeps watching total inflight, because
	// a parked handler still owes a completion.
	ioparked atomic.Int64
	queued   atomic.Int64 // accepted-but-unlaunched requests, both queues
	m        metrics
	done     chan struct{} // pump exited, runtime finalized
	// ring is the shard's request lane in the flight recorder. It is
	// multi-writer — finish runs on whichever backend executor completed
	// the request — which the ring's claim protocol handles.
	ring *trace.Ring
	// rt publishes the shard's runtime to metrics scrapes (SchedStats);
	// only the pump goroutine stores it.
	rt atomic.Pointer[core.Runtime]
	// sleep is the pump's armed flag: set just before the pump re-checks
	// its wake condition and parks, cleared by the one kick that wakes it
	// (see wait). unpark is the runtime's MainPark wake, written by the
	// pump before it first arms the flag.
	sleep  atomic.Bool
	unpark func()
}

// room is the shard's spare executor occupancy under MaxInFlight. Work
// units parked on the async-I/O reactor hold no executor, so they are
// discounted: the shard keeps admitting while they wait.
func (sh *shard) room() int {
	return sh.s.opts.MaxInFlight - int(sh.inflight.Load()-sh.ioparked.Load())
}

// kick wakes the shard's pump if it is parked or about to park. Every
// event that can give a parked pump something to do calls it after
// publishing the event: a push, a completion that frees room under a
// queue or ends the last in-flight unit, an I/O park that frees room,
// a steal-worthy backlog on a peer, Close, the drain deadline and the
// last straggling producer. With the pump awake it is one atomic load;
// the flag's CAS elects one kicker per park, so every park is paired
// with exactly one unpark. It reports whether it woke the pump.
func (sh *shard) kick() bool {
	if sh.sleep.Load() && sh.sleep.CompareAndSwap(true, false) {
		sh.unpark()
		return true
	}
	return false
}

// wait is the pump's one park step, shared by serving and shutdown: arm
// the sleep flag, re-check the wake condition, and park only if it still
// fails. Every waker publishes its event before it kicks and the pump
// arms before it re-checks (all atomics), so either the re-check sees
// the event or the kick sees the flag. A kick that won the flag after a
// successful re-check has already issued its unpark; the park that
// follows consumes that token so the next wait does not return early.
func (sh *shard) wait(park func(), ready func() bool) {
	sh.sleep.Store(true)
	if !ready() {
		sh.m.pumpParks.Add(1)
	} else if sh.sleep.CompareAndSwap(true, false) {
		return
	}
	park()
}

// load is the routing signal: accepted-but-unlaunched plus in-flight
// requests, two atomic loads.
func (sh *shard) load() int {
	return int(sh.queued.Load() + sh.inflight.Load())
}

// queueFor picks the request's admission channel by affinity.
func (sh *shard) queueFor(r *request) chan *request {
	if r.keyed {
		return sh.keyed
	}
	return sh.unkeyed
}

// push settles the admission accounting and buffers one request whose
// token the caller already holds — the single place the accepted-
// submission counters are bumped, shared by the non-blocking and
// parked paths. The channel send cannot block: each queue's capacity
// matches the token count. The push then kicks the shard's pump, and
// with stealing on, an unkeyed backlog reaching stealKickDepth also
// wakes a parked peer to steal it.
func (sh *shard) push(r *request) {
	r.shard = sh
	q := sh.queueFor(r)
	sh.queued.Add(1)
	sh.m.submitted.Add(1)
	q <- r
	sh.kick()
	if q == sh.unkeyed && sh.s.opts.Steal && len(q) >= stealKickDepth {
		sh.s.kickThief(sh)
	}
}

// kickThief wakes one parked pump that could steal from victim: a peer
// with room under its cap. The depth check that calls it reads the
// channel length, which is not an atomic, so a wake can be missed in a
// race; that costs the steal, never the request — the victim's own pump
// still serves its queue.
func (s *Server) kickThief(victim *shard) {
	for _, sh := range s.shards() {
		if sh != victim && sh.sleep.Load() && sh.room() > 0 && sh.kick() {
			return
		}
	}
}

// pop settles the dequeue side: one queued-counter decrement and one
// token release per request received from either channel, whether by
// the owning pump or a stealing one.
func (sh *shard) pop() {
	sh.queued.Add(-1)
	<-sh.slots
}

// tryEnqueue is the non-blocking admission step onto this shard.
func (sh *shard) tryEnqueue(r *request) bool {
	select {
	case sh.slots <- struct{}{}:
	default:
		return false
	}
	sh.push(r)
	return true
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
	// set is the routing set — the shards unkeyed submissions may land
	// on, read lock-free on the submit fast path and swapped whole by
	// the autoscaler under scaleMu. Base shards are always members;
	// dynamic shards come and go.
	set atomic.Pointer[[]*shard]
	// all is every shard ever started, base and dynamic, in id order —
	// the metrics domain. A scaled-down shard leaves the routing set
	// but stays here: its counters remain visible (and monotonic) and
	// its parked pump still owns its queues, so a submission that raced
	// the scale-down is served, not stranded. Guarded by scaleMu.
	all     []*shard
	scaleMu sync.Mutex
	// baseShards is the immutable prefix of all — the shards New
	// created, the keyed-affinity domain. Never appended to after New,
	// so keyed admission reads it without scaleMu.
	baseShards []*shard
	rec        *trace.Recorder
	// scaleRing is the autoscaler's trace lane: one KindUser instant
	// per scale event, Unit = the new routing-set size.
	scaleRing            *trace.Ring
	scaleUps, scaleDowns atomic.Uint64
	layout               string // topology-derived layout, "" without Topo

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

// TopoLayout maps a machine topology onto a shard-pool layout: one
// shard per physical core — each core's queue, pump and executors stay
// local, the way Qthreads binds one Shepherd per core — with one
// executor per hardware thread of that core.
func TopoLayout(t topo.Topology) (shards, threads int) {
	shards = t.Count(topo.LevelCore)
	threads = t.PUsPerCore
	if shards < 1 {
		shards = 1
	}
	if threads < 1 {
		threads = 1
	}
	return shards, threads
}

// New starts a server: it spawns one pump goroutine per shard, each
// initializing its own instance of the named backend, and returns once
// every shard is serving (or any initialization failed, in which case
// the shards that did start are torn down).
func New(opts Options) (*Server, error) {
	if opts.Backend == "" {
		opts.Backend = "go"
	}
	layout := ""
	if opts.Topo != nil {
		ts, tt := TopoLayout(*opts.Topo)
		if opts.Shards <= 0 {
			opts.Shards = ts
		}
		if opts.Threads <= 0 {
			opts.Threads = tt
		}
		layout = fmt.Sprintf("%s -> %d shards x %d executors", opts.Topo, opts.Shards, opts.Threads)
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
	if opts.Batch <= 0 {
		opts.Batch = DefaultBatch
	}
	if opts.MaxInFlight <= 0 {
		opts.MaxInFlight = opts.QueueDepth
	}
	if opts.LatencyWindow <= 0 {
		opts.LatencyWindow = DefaultLatencyWindow
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
		layout: layout,
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
	s.all = make([]*shard, opts.Shards)
	for i := range s.all {
		s.all[i] = s.newShard(i)
	}
	// Publish the routing set before any pump starts: an idle stealing
	// pump scans it immediately.
	s.baseShards = s.all
	set := append([]*shard(nil), s.all...)
	s.set.Store(&set)
	ready := make(chan error, opts.Shards)
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
		// Tear down the shards that did start.
		s.closed.Store(true)
		close(s.quit)
		for _, sh := range s.kickAll() {
			<-sh.done
		}
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

// newShard builds one shard's queues, token pool and trace lane; the
// caller starts its pump. Used by New for the base shards and by the
// autoscaler for dynamic ones.
func (s *Server) newShard(id int) *shard {
	sh := &shard{
		s:       s,
		id:      id,
		keyed:   make(chan *request, s.opts.QueueDepth),
		unkeyed: make(chan *request, s.opts.QueueDepth),
		slots:   make(chan struct{}, s.opts.QueueDepth),
		done:    make(chan struct{}),
		ring:    s.rec.SharedRing(fmt.Sprintf("serve/%s/shard%d", s.opts.Backend, id), -(id + 1)),
	}
	sh.m.lats = make([]time.Duration, s.opts.LatencyWindow)
	return sh
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
// live dynamic shards. It changes over time when autoscaling is armed.
func (s *Server) NumShards() int { return len(*s.set.Load()) }

// Router reports the router spreading unkeyed submissions.
func (s *Server) Router() Router { return s.router }

// Layout reports the topology-derived pool layout ("" when Options.Topo
// was not set), e.g. "1 sockets x 4 cores x 2 PUs (8 PUs) -> 4 shards x
// 2 executors".
func (s *Server) Layout() string { return s.layout }

// ShardOf reports the shard index keyed submissions with this affinity
// key pin to — stable for the server's whole lifetime. Keys hash over
// the base shard count only, so autoscaling never remaps them.
func (s *Server) ShardOf(key string) int { return keyShard(key, s.base) }

// shards returns the current routing set, one atomic load.
func (s *Server) shards() []*shard { return *s.set.Load() }

// leastLoaded scans the routing set for the shard with the smallest
// depth — the re-route target and the blocking submit's parking spot.
// The scan is O(shards) of atomic loads, off the fast path (it runs
// only after the router's pick saturated).
func leastLoaded(set []*shard) *shard {
	best := set[0]
	bestLoad := best.load()
	for _, sh := range set[1:] {
		if l := sh.load(); l < bestLoad {
			best, bestLoad = sh, l
		}
	}
	return best
}

// Submitter returns the server's injection front-end. It is safe for any
// number of goroutines and can be handed to producers that should not be
// able to Close the server.
func (s *Server) Submitter() *Submitter { return &Submitter{s: s} }

// Close stops the server with a graceful drain: new submissions are
// rejected with ErrClosed, every shard runs the requests accepted before
// Close to completion (bounded by Options.DrainTimeout — past the
// deadline, still-queued requests resolve to ErrClosed instead of
// running), requests racing with Close resolve to ErrClosed, and each
// shard's backend is finalized once its pump has drained — scaled-down
// shards included. No accepted Future is left unresolved. Close blocks
// until every pump has exited and is idempotent.
func (s *Server) Close() {
	if s.closed.CompareAndSwap(false, true) {
		if s.opts.DrainTimeout > 0 {
			// Written before close(quit): the channel close publishes
			// it to every pump.
			s.drainBy.Store(time.Now().Add(s.opts.DrainTimeout).UnixNano())
		}
		close(s.quit)
	}
	for _, sh := range s.kickAll() {
		<-sh.done
	}
}

// kickAll kicks every shard's pump, base and dynamic, and returns the
// shards it kicked.
func (s *Server) kickAll() []*shard {
	s.scaleMu.Lock()
	all := append([]*shard(nil), s.all...)
	s.scaleMu.Unlock()
	for _, sh := range all {
		sh.kick()
	}
	return all
}

// leave ends a producer's submit call. The last producer out after Close
// kicks every pump: a draining pump parks until the stragglers are gone.
func (s *Server) leave() {
	if s.active.Add(-1) == 0 && s.closed.Load() {
		s.kickAll()
	}
}

// pump is one shard's backend main thread: it owns that shard's runtime
// end to end and is the only goroutine that touches it (stealing moves
// queued requests, never runtime access).
func (sh *shard) pump(ready chan<- error) {
	s := sh.s
	rt, err := core.Open(core.Config{
		Backend:   s.opts.Backend,
		Executors: s.opts.Threads,
		Scheduler: s.opts.Scheduler,
	})
	if err != nil {
		ready <- err
		sh.ring.Close()
		close(sh.done)
		return
	}
	park, unpark := rt.MainPark()
	sh.unpark = unpark
	sh.rt.Store(rt)
	ready <- nil
	batch := make([]*request, 0, s.opts.Batch)
	// A fresh pump has no traffic yet, so it starts with the budget
	// spent: the spin is for pipelined pushes, not for competing with
	// the boot that is still starting its peers.
	spins := ult.SpinBudget()
	for {
		batch = batch[:0]
		// Batch drain: group up to Batch queued requests into work
		// units per wakeup, so one scheduler step admits many requests.
		// The MaxInFlight cap (room) leaves the excess queued, which is
		// what lets the bounded queue fill and reject.
		// Keyed requests drain first — only this pump can serve them,
		// while queued unkeyed work may still be rescued by a thief.
		for len(batch) < s.opts.Batch && len(batch) < sh.room() {
			select {
			case r := <-sh.keyed:
				sh.pop()
				batch = append(batch, r)
			default:
				select {
				case r := <-sh.unkeyed:
					sh.pop()
					batch = append(batch, r)
				default:
					goto collected
				}
			}
		}
	collected:
		idle := len(batch) == 0 && spins >= ult.SpinBudget()
		if idle && s.opts.Steal {
			// About to park with nothing of its own to launch (or no room
			// — the steal helper rechecks capacity): be a thief before
			// being idle. Not sooner: a pump that steals on every empty
			// poll races each peer's own pump for requests it was about
			// to launch, moving them across shards for nothing.
			sh.stealInto(&batch)
		}
		for _, r := range batch {
			sh.launch(rt, r)
		}
		select {
		case <-s.quit:
			sh.shutdown(rt, park)
			return
		default:
		}
		if len(batch) > 0 {
			spins = 0
			continue
		}
		// Nothing to launch: the executors' idle policy, applied to the
		// master. Under the spin budget the pump polls again after a
		// yield, so pipelined pushes find it awake. With work in flight
		// the yield is the runtime's — on the cooperative masters
		// (Converse's processor 0, the adopted primaries of Argobots and
		// MassiveThreads) that is what runs local work; with nothing in
		// flight there is no local work and it is a runtime.Gosched.
		// With the budget spent it parks until a kick: new traffic, a
		// completion or I/O park that frees room under a queue, a
		// peer's steal-worthy backlog, or shutdown.
		if !idle {
			spins++
			if sh.inflight.Load() > 0 {
				rt.Yield()
			} else {
				runtime.Gosched()
			}
			continue
		}
		spins = 0
		sh.wait(park, sh.hasWork)
	}
}

// hasWork is the serving pump's wake condition: shutdown, or room under
// MaxInFlight and something to fill it — its own queued work or, with
// stealing on, a peer's unkeyed backlog.
func (sh *shard) hasWork() bool {
	s := sh.s
	if s.closed.Load() {
		return true
	}
	if sh.room() <= 0 {
		return false
	}
	if sh.queued.Load() > 0 {
		return true
	}
	if !s.opts.Steal {
		return false
	}
	v, _ := sh.victim()
	return v != nil
}

// victim picks the steal victim: the routing-set member other than sh
// with the deepest unkeyed backlog, and that depth. It is nil when no
// peer has one or sh has been scaled out of the routing set — a shard
// outside it neither steals nor is stolen from.
func (sh *shard) victim() (*shard, int) {
	var victim *shard
	best, member := 0, false
	for _, v := range sh.s.shards() {
		if v == sh {
			member = true
			continue
		}
		if n := len(v.unkeyed); n > best {
			victim, best = v, n
		}
	}
	if !member {
		return nil, 0
	}
	return victim, best
}

// stealInto is the idle-shard steal: scan the routing set for the shard
// with the deepest unkeyed backlog and take up to half of it (bounded
// by Batch and this shard's spare executor capacity). Only unkeyed
// requests are reachable — the keyed channel has no consumer but its
// owner — so affinity survives by construction. A shard that has been
// scaled out of the routing set neither steals nor is stolen from.
func (sh *shard) stealInto(batch *[]*request) {
	s := sh.s
	room := sh.room() - len(*batch)
	if room <= 0 {
		return
	}
	victim, best := sh.victim()
	if victim == nil {
		return
	}
	max := (best + 1) / 2
	if max > room {
		max = room
	}
	if max > s.opts.Batch-len(*batch) {
		max = s.opts.Batch - len(*batch)
	}
	for i := 0; i < max; i++ {
		select {
		case r := <-victim.unkeyed:
			victim.pop()
			r.shard = sh
			sh.m.steals.Add(1)
			sh.ring.Instant(trace.KindSteal, r.id)
			*batch = append(*batch, r)
		default:
			return
		}
	}
}

// launch turns one accepted request into a backend work unit — or
// sheds it, exactly once, if its budget is already spent: a submission
// context cancelled while queued or a deadline that passed fails the
// Future (ctx.Err() / ErrExpired) without occupying an executor, and
// counts as Expired in the drain identity
// (Submitted == Completed + Rejected + Expired).
func (sh *shard) launch(rt *core.Runtime, r *request) {
	if r.ctx != nil {
		if err := r.ctx.Err(); err != nil {
			sh.m.expired.Add(1)
			sh.ring.Instant(trace.KindCancel, r.id)
			r.fail(err)
			return
		}
	}
	if !r.deadline.IsZero() && !time.Now().Before(r.deadline) {
		sh.m.expired.Add(1)
		sh.ring.Instant(trace.KindCancel, r.id)
		r.fail(ErrExpired)
		return
	}
	sh.inflight.Add(1)
	if r.ult {
		rt.ULTCreate(r.run)
	} else {
		rt.TaskletCreate(func() { r.run(nil) })
	}
}

// shutdown drains one shard on its pump goroutine: accepted requests
// run to completion (until the drain deadline, after which they resolve
// to ErrClosed unrun), in-flight work is driven until done, straggling
// producers are waited out and anything they enqueued is rejected, then
// the shard's backend is finalized. Every accepted Future resolves.
// Each of the three waits is the pump's park (wait), not a poll: a drain
// behind handlers parked on I/O costs no CPU for the length of the park.
func (sh *shard) shutdown(rt *core.Runtime, park func()) {
	defer close(sh.done)
	s := sh.s
	deadline := s.drainBy.Load()
	expired := func() bool {
		return deadline != 0 && time.Now().UnixNano() >= deadline
	}
	if deadline != 0 {
		// The drain deadline is an event too: it wakes a pump parked at
		// the MaxInFlight cap so still-queued requests are rejected on
		// time.
		t := time.AfterFunc(time.Until(time.Unix(0, deadline)), func() { sh.kick() })
		defer t.Stop()
	}
	reject := func(r *request) {
		sh.pop()
		sh.m.rejected.Add(1)
		r.fail(ErrClosed)
	}
	// Run everything accepted before Close, paced at MaxInFlight so the
	// drain cannot overload the backend. Past the deadline, requests
	// still queued resolve to ErrClosed instead of running.
drain:
	for {
		if expired() {
			for {
				select {
				case r := <-sh.keyed:
					reject(r)
					continue
				case r := <-sh.unkeyed:
					reject(r)
					continue
				default:
				}
				break drain
			}
		}
		if sh.room() <= 0 {
			sh.wait(park, func() bool { return sh.room() > 0 || expired() })
			continue
		}
		select {
		case r := <-sh.keyed:
			sh.pop()
			sh.launch(rt, r)
		case r := <-sh.unkeyed:
			sh.pop()
			sh.launch(rt, r)
		default:
			break drain
		}
	}
	// Launched work always runs to completion — a live work unit cannot
	// be abandoned without corrupting the backend — so the deadline
	// bounds queue drain, not execution.
	for sh.inflight.Load() > 0 {
		sh.wait(park, func() bool { return sh.inflight.Load() == 0 })
	}
	// Producers that passed the closed check concurrently with Close
	// are counted in active; drain-reject until they are gone so no
	// Future is left unresolved and no producer is left blocked. The
	// counter is server-wide (a straggler may target any shard), so
	// every shard holds its queues open until the last producer exits.
	for s.active.Load() > 0 {
		select {
		case r := <-sh.keyed:
			reject(r)
		case r := <-sh.unkeyed:
			reject(r)
		default:
			sh.wait(park, func() bool { return s.active.Load() == 0 || sh.queued.Load() > 0 })
		}
	}
	// A straggler's enqueue happens before its active-counter
	// decrement, so once active reached zero everything it sent is
	// already buffered; one final sweep resolves it.
	for {
		select {
		case r := <-sh.keyed:
			reject(r)
			continue
		case r := <-sh.unkeyed:
			reject(r)
			continue
		default:
		}
		break
	}
	rt.Finalize()
	sh.ring.Close()
}

// finish settles one completed request's accounting and trace. The
// trace emission costs no extra clock read — the latency measurement's
// endpoints are reused (EmitAt) — and is sampled (Options.TraceSample)
// so the always-on recorder charges the hot path one mask compare per
// untraced request. Slow requests bypass the sampler: the window always
// holds the outliers a post-incident dump is taken for.
func (sh *shard) finish(r *request) {
	lat := time.Since(r.enq)
	n := sh.inflight.Add(-1)
	sh.m.observe(lat)
	if r.stopCancel != nil {
		// Release the deadline timer armed by cancelSignal. Same
		// goroutine that built it (the handler's work unit), so the
		// read is ordered after any Do.
		r.stopCancel()
	}
	if r.id&sh.s.traceMask == 0 || lat >= slowTraceCutoff {
		sh.ring.EmitAt(trace.KindUser, r.id, r.enq, lat)
	}
	// Kick only when the completion can matter to a parked pump: the
	// last in-flight unit (a drain waits for it) or room freed under a
	// non-empty queue.
	if n == 0 || sh.queued.Load() > 0 && sh.room() > 0 {
		sh.kick()
	}
}

// ioParkable mirrors the async-I/O layer's park hook: a backend context
// implementing it can suspend its work unit off the executor and be
// resumed from the reactor.
type ioParkable interface {
	IOPark() (park func(), unpark func())
}

// requestCtx wraps every handler's backend context with the request's
// cooperative cancellation signal: CancelCh (core.Canceler) is what
// lets a running handler — and the aio waits it issues — observe that
// its deadline passed or its client went away. The signal is built
// lazily, so handlers that never look pay nothing.
type requestCtx struct {
	core.Ctx
	r *request
}

func (c requestCtx) CancelCh() <-chan struct{} { return c.r.cancelSignal() }

// parkRequestCtx is requestCtx on AsyncIO backends, adding the
// park-counting IOPark so the shard can tell which in-flight work
// units are parked on the reactor. Struct embedding (not interface
// embedding) is load-bearing: embedding the Ctx interface would not
// promote the concrete backend value's IOPark method, so the wrapper
// re-mints it here. The park half of every minted pair brackets the
// suspension with the ioparked counter — both adjustments run on the
// work unit's own goroutine (before suspending, after resuming), so
// the accounting is exact, not sampled. A park that frees room under a
// non-empty queue kicks the pump, which may be parked at the cap.
type parkRequestCtx struct {
	requestCtx
	sh *shard
}

func (c parkRequestCtx) IOPark() (func(), func()) {
	park, unpark := c.Ctx.(ioParkable).IOPark()
	sh := c.sh
	counted := func() {
		sh.ioparked.Add(1)
		if sh.queued.Load() > 0 && sh.room() > 0 {
			sh.kick()
		}
		start := sh.ring.Now()
		park()
		sh.ring.Interval(trace.KindPark, 0, start)
		sh.ioparked.Add(-1)
	}
	return counted, unpark
}

// Submitter is the multi-producer, thread-safe injection front-end: the
// missing external-submission path of the Table II API. All methods may
// be called from any goroutine, concurrently.
type Submitter struct {
	s *Server
}

// Server returns the owning server (for metrics access from handlers).
func (sub *Submitter) Server() *Server { return sub.s }

// makeRequest builds the queue entry and Future for one submission.
// The latency clock (enq) starts here, before admission: for a blocking
// Do the time spent waiting on a full queue is part of the request's
// end-to-end latency. That is deliberate — measuring from intended
// arrival rather than from admission is what keeps open-loop percentiles
// honest under backpressure (no coordinated omission).
func makeRequest[T any](s *Server, ctx context.Context, deadline time.Time, ult bool, fn func(core.Ctx) (T, error)) (*request, *Future[T]) {
	f := newFuture[T]()
	r := &request{
		id:       s.nextID.Add(1),
		ctx:      ctx,
		ult:      ult,
		enq:      time.Now(),
		deadline: deadline,
	}
	r.fail = func(err error) {
		var zero T
		f.complete(zero, err)
	}
	r.run = func(c core.Ctx) {
		sh := r.shard
		if c != nil {
			rc := requestCtx{Ctx: c, r: r}
			if _, ok := c.(ioParkable); ok {
				c = parkRequestCtx{requestCtx: rc, sh: sh}
			} else {
				c = rc
			}
		}
		defer func() {
			if p := recover(); p != nil {
				sh.m.panicked.Add(1)
				var zero T
				f.complete(zero, &PanicError{Value: p, Stack: debug.Stack()})
			}
			sh.finish(r)
		}()
		v, err := fn(c)
		if err != nil {
			sh.m.failed.Add(1)
		}
		f.complete(v, err)
	}
	return r, f
}

// Do submits fn as a tasklet-shaped request (stackless body, no
// cooperative context) with the options in req — the single entry
// point the legacy Submit*/TrySubmit* permutations collapse into.
//
// With the zero Req, Do blocks while the queues are full until space
// frees, ctx is cancelled, or the server closes; a deadline on ctx is
// adopted as the request's completion budget. Req.Key pins the request
// to its key's base shard, Req.Deadline sets an explicit budget, and
// Req.NonBlocking turns a full queue into an immediate ErrSaturated.
func Do[T any](sub *Submitter, ctx context.Context, fn func() (T, error), req Req) (*Future[T], error) {
	return do(sub, ctx, false, func(core.Ctx) (T, error) { return fn() }, req)
}

// DoULT is Do for stackful request bodies: fn receives the cooperative
// context, so it can spawn and join child work units (nested
// parallelism on the serving runtime) and issue cancelable aio waits.
func DoULT[T any](sub *Submitter, ctx context.Context, fn func(core.Ctx) (T, error), req Req) (*Future[T], error) {
	return do(sub, ctx, true, fn, req)
}

// do resolves Req into the admission path: key to pin, NonBlocking to
// fast-reject versus park.
func do[T any](sub *Submitter, ctx context.Context, ult bool, fn func(core.Ctx) (T, error), req Req) (*Future[T], error) {
	pin := -1
	if req.Key != "" {
		pin = sub.s.ShardOf(req.Key)
	}
	if req.NonBlocking {
		return trySubmit(sub, ctx, req.Deadline, pin, ult, fn)
	}
	return submit(sub, ctx, req.Deadline, pin, ult, fn)
}

// trySubmit is the non-blocking admission path with two-level admission:
// the router's pick is tried first; if that shard's queue is full the
// request is re-routed once to the least-loaded shard before
// ErrSaturated surfaces. pin >= 0 bypasses the router and disables the
// re-route (keyed affinity).
func trySubmit[T any](sub *Submitter, ctx context.Context, deadline time.Time, pin int, ult bool, fn func(core.Ctx) (T, error)) (*Future[T], error) {
	s := sub.s
	s.active.Add(1)
	defer s.leave()
	if s.closed.Load() {
		return nil, ErrClosed
	}
	r, f := makeRequest(s, ctx, deadline, ult, fn)
	if pin >= 0 {
		r.keyed = true
		sh := s.keyedShard(pin)
		if sh.tryEnqueue(r) {
			return f, nil
		}
		sh.m.saturated.Add(1)
		return nil, ErrSaturated
	}
	set := s.shards()
	sh := set[s.router.Pick(len(set), func(i int) int { return set[i].load() })]
	if sh.tryEnqueue(r) {
		return f, nil
	}
	if alt := leastLoaded(set); alt != sh && alt.tryEnqueue(r) {
		return f, nil
	}
	sh.m.saturated.Add(1)
	return nil, ErrSaturated
}

// keyedShard resolves a keyed pin onto its base shard. baseShards is
// immutable after New (the autoscaler appends to all, never here), so
// the read needs no lock.
func (s *Server) keyedShard(pin int) *shard {
	return s.baseShards[pin%s.base]
}

// submit is the blocking admission path with context cancellation: it
// first tries the router's pick without blocking, then parks on the
// least-loaded shard. pin >= 0 pins both attempts to one shard (keyed
// affinity). A deadline — explicit, or adopted from the submission
// context — bounds the park too: a request that cannot even enqueue
// inside its budget returns ErrExpired instead of blocking past it.
func submit[T any](sub *Submitter, ctx context.Context, deadline time.Time, pin int, ult bool, fn func(core.Ctx) (T, error)) (*Future[T], error) {
	s := sub.s
	s.active.Add(1)
	defer s.leave()
	if s.closed.Load() {
		return nil, ErrClosed
	}
	adopted := false // deadline came from ctx, whose Done covers the park
	if ctx != nil {
		if dl, ok := ctx.Deadline(); ok && (deadline.IsZero() || dl.Before(deadline)) {
			deadline = dl
			adopted = true
		}
	}
	r, f := makeRequest(s, ctx, deadline, ult, fn)
	var sh *shard
	if pin >= 0 {
		r.keyed = true
		sh = s.keyedShard(pin)
	} else {
		set := s.shards()
		sh = set[s.router.Pick(len(set), func(i int) int { return set[i].load() })]
	}
	if sh.tryEnqueue(r) {
		return f, nil
	}
	if pin < 0 {
		sh = leastLoaded(s.shards())
	}
	var cancel <-chan struct{}
	if ctx != nil {
		cancel = ctx.Done()
	}
	var expire <-chan time.Time
	if !deadline.IsZero() && !adopted {
		// The timer arms only on the blocked path — a queue with room
		// never pays for it — and only for an explicit deadline: one
		// adopted from ctx is already enforced by ctx.Done, and racing
		// a second timer against the context's own would surface
		// ErrExpired where callers armed DeadlineExceeded. Either way
		// the submission was never accepted, so it counts as
		// canceled-at-submit, outside the drain identity.
		tm := time.NewTimer(time.Until(deadline))
		defer tm.Stop()
		expire = tm.C
	}
	select {
	case sh.slots <- struct{}{}:
		sh.push(r)
		return f, nil
	case <-cancel:
		sh.m.canceled.Add(1)
		return nil, ctx.Err()
	case <-expire:
		sh.m.canceled.Add(1)
		// A deadline adopted from ctx races ctx.Done here; surface the
		// context's own error so callers see the sentinel they armed.
		if ctx != nil && ctx.Err() != nil {
			return nil, ctx.Err()
		}
		return nil, ErrExpired
	case <-s.quit:
		return nil, ErrClosed
	}
}

// Snapshot reads the server's counters and latency windows once and
// returns both views: the cross-shard aggregate (Metrics.Shard == -1)
// and the per-shard breakdown (entry i is shard i, including shards
// currently scaled out of the routing set — their counters stay
// visible and monotonic). Each shard's latency ring is locked and
// copied a single time, shared by both views — the form a metrics
// scrape that wants aggregate and breakdown together should use.
func (s *Server) Snapshot() (Metrics, []Metrics) {
	up := time.Since(s.start)
	s.scaleMu.Lock()
	all := append([]*shard(nil), s.all...)
	s.scaleMu.Unlock()
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
	per := make([]Metrics, len(all))
	var window []time.Duration
	for i, sh := range all {
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
			Hist:       sh.m.histSnapshot(),
			LatencySum: time.Duration(sh.m.latSum.Load()),
		}
		if mt.QueueDepth < 0 {
			mt.QueueDepth = 0 // transient: pop decrements before a racing push's increment lands
		}
		if rt := sh.rt.Load(); rt != nil {
			mt.Sched = rt.SchedStats()
		}
		w := sh.m.window()
		if secs := up.Seconds(); secs > 0 {
			mt.Throughput = float64(mt.Completed) / secs
		}
		if len(w) > 0 {
			mt.Latency = microbench.Summarize(w)
		}
		per[i] = mt
		window = append(window, w...)
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
		agg.LatencySum += mt.LatencySum
		agg.Sched = agg.Sched.Plus(mt.Sched)
		if agg.Hist == nil {
			agg.Hist = make([]uint64, len(mt.Hist))
		}
		for b, v := range mt.Hist {
			agg.Hist[b] += v
		}
	}
	if secs := up.Seconds(); secs > 0 {
		agg.Throughput = float64(agg.Completed) / secs
	}
	if len(window) > 0 {
		agg.Latency = microbench.Summarize(window)
	}
	return agg, per
}

// Metrics snapshots the server's counters and recent latency windows,
// aggregated across every shard (Metrics.Shard is -1). Use ShardMetrics
// for the per-shard breakdown, or Snapshot for both in one pass.
func (s *Server) Metrics() Metrics {
	agg, _ := s.Snapshot()
	return agg
}

// ShardMetrics snapshots each shard's own counters and latency window;
// entry i is shard i (Metrics.Shard = i). The sum over entries is
// Metrics().
func (s *Server) ShardMetrics() []Metrics {
	_, per := s.Snapshot()
	return per
}
