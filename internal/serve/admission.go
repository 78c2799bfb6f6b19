package serve

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/trace"
)

// Req carries the per-submission options of one Do/DoULT call — the
// attributes the legacy Submit* permutations encoded in their names.
// The zero value is a plain submission: unkeyed, no deadline, blocking.
type Req struct {
	// Key, when non-empty, pins the request to one shard by FNV-1a
	// hash: every submission carrying the same key lands on the same
	// backend runtime for the server's whole lifetime, keeping
	// shard-local state warm. Keyed requests never re-route and are
	// never stolen.
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

// request is one submission: the untyped half of a call, which is all
// that admission, the queues, launch and finish handle.
type request struct {
	id    uint64
	shard *shard          // shard accountable for the request; a thief overwrites it
	ctx   context.Context // submission context; nil means background
	ult   bool            // needs a stackful ULT (body takes a Ctx)
	keyed bool            // pinned by affinity key: never re-routed, never stolen
	enq   time.Time
	// deadline is the request's completion budget (zero: none). Launch
	// sheds requests whose deadline has passed (one time comparison —
	// no timer), and running handlers see it through the lazily built
	// cancellation signal below.
	deadline time.Time
	// cancelOnce/cancelCh/stopCancel materialize the handler-visible
	// cancellation signal (core.Canceler) on first use only: the hot
	// path of an undeadlined — or deadlined but never-waiting — request
	// never allocates a timer or context for it.
	cancelOnce sync.Once
	cancelCh   <-chan struct{}
	stopCancel func()
	// hctx is the handler's context of a ULT-shaped request, built at
	// run time in place so handing it out allocates nothing.
	hctx requestCtx
	// w is the typed half: the *call[T] this request is embedded in.
	w work
}

// work is how a request reaches its typed half. The interface value
// holds the *call[T] pointer, so storing it allocates nothing.
type work interface {
	// Run executes the body and resolves the Future; the Ctx is nil for
	// tasklet-shaped bodies. It is the detached work unit launch
	// spawns (core.Runtime.Spawn).
	core.Work
	// fail resolves the Future with an error without running the body
	// (cancellation and shutdown paths).
	fail(err error)
}

// call is one submission in a single heap object: the request, the
// Future the caller holds, and the body — fn for Do, ufn for DoULT. It
// is not pooled: the caller keeps the Future, and with it the call, for
// as long as it likes.
type call[T any] struct {
	request
	Future[T]
	fn  func() (T, error)
	ufn func(core.Ctx) (T, error)
}

// newCall builds the call for one submission. The latency clock (enq)
// starts here, before admission: for a blocking Do the time spent
// waiting on a full queue is part of the request's end-to-end latency.
// That is deliberate — measuring from intended arrival rather than from
// admission is what keeps open-loop percentiles honest under
// backpressure (no coordinated omission).
func newCall[T any](s *Server, ctx context.Context, deadline time.Time, fn func() (T, error), ufn func(core.Ctx) (T, error)) *call[T] {
	c := &call[T]{fn: fn, ufn: ufn}
	c.id = s.nextID.Add(1)
	c.ctx = ctx
	c.ult = ufn != nil
	c.enq = time.Now()
	c.deadline = deadline
	c.w = c
	return c
}

func (c *call[T]) fail(err error) {
	var zero T
	c.complete(zero, err)
}

// shard is one independent serving lane: a backend runtime, its bounded
// queues, its keeper goroutine, and its slice of the metrics.
//
// A request reaches the runtime by one of two roads. With an executor
// slot free under MaxInFlight (claim) its producer launches it at once;
// otherwise it is queued, and the event that next frees a slot launches
// it (pull). Admission to the queues is a counter: queued caps the
// shard's accepted-but-unlaunched requests at QueueDepth with a CAS
// increment (admit), and every receive from either queue decrements it
// (pop). An admitted request is sent into keyed or unkeyed, each sized
// to the full depth, so the send never blocks: a request is counted
// before it is sent and received before it is uncounted, so queued
// never leaves [0, QueueDepth]. A producer blocked on a full shard waits
// on space, counted in waiters; a pop signals space only while waiters
// is non-zero, and the woken producer passes the signal on while room
// and waiters remain, so one one-slot channel wakes any number of them.
// The queue split is what makes stealing safe by construction — Go
// channels are MPMC, so a slot freed on any shard may receive from
// another shard's unkeyed channel, while the keyed channel is only ever
// received from for its own shard.
type shard struct {
	s       *Server
	id      int
	keyed   chan *request // launched only on this shard — affinity
	unkeyed chan *request // launched here or, stolen, on a peer
	// space is the one-slot wake of producers parked on a full shard;
	// waiters counts them.
	space   chan struct{}
	waiters atomic.Int64

	inflight atomic.Int64 // executor slots taken: launched-but-unfinished work units
	// ioparked counts the subset of inflight currently parked on the
	// async-I/O reactor (lwt.Sleep, ReadIO, ...): launched and
	// unfinished, but holding no executor. The slot claim meters true
	// CPU occupancy — inflight minus ioparked — so handlers waiting on
	// I/O do not cap the shard's concurrency; the drain watches total
	// inflight, because a parked handler still owes a completion.
	ioparked atomic.Int64
	queued   atomic.Int64 // admission counter: accepted-but-unlaunched, both queues
	m        metrics
	done     chan struct{} // keeper exited, runtime finalized
	// ring is the shard's request lane in the flight recorder. It is
	// multi-writer — finish runs on whichever backend executor completed
	// the request — which the ring's claim protocol handles.
	ring *trace.Ring
	// rt is the shard's runtime and unpark its keeper's main-thread
	// wake. The keeper sets both before it reports ready, and New
	// returns only after every keeper did, so producers, executors and
	// metrics scrapes read them without synchronization.
	rt     *core.Runtime
	unpark func()
}

// load is the routing signal: accepted-but-unlaunched plus in-flight
// requests, two atomic loads.
func (sh *shard) load() int {
	return int(sh.queued.Load() + sh.inflight.Load())
}

// admit claims one queue slot: a CAS increment of queued below
// QueueDepth. It reports false on a full shard.
func (sh *shard) admit() bool {
	depth := int64(sh.s.opts.QueueDepth)
	for {
		n := sh.queued.Load()
		if n >= depth {
			return false
		}
		if sh.queued.CompareAndSwap(n, n+1) {
			return true
		}
	}
}

// signal wakes one producer parked on the shard's space; with a wake
// already pending it is a no-op.
func (sh *shard) signal() {
	select {
	case sh.space <- struct{}{}:
	default:
	}
}

// unwait ends a producer's park, admitted or given up: with room and
// waiters left it passes the wake on, since a pop's signal reached one
// waiter only.
func (sh *shard) unwait() {
	if sh.waiters.Add(-1) > 0 && sh.queued.Load() < int64(sh.s.opts.QueueDepth) {
		sh.signal()
	}
}

// accept makes sh the request's accepting shard — the single place the
// accepted-submission counter is bumped, shared by every admission
// path.
func (sh *shard) accept(r *request) {
	r.shard = sh
	sh.m.submitted.Add(1)
}

// start is the producer's own launch: with an executor slot free on sh
// it launches r there at once, bypassing the queue. With stealing on,
// an unkeyed request whose shard has no slot free may run on a peer
// that has one; it stays Submitted on sh and counts as that peer's
// steal. It reports whether r was started (or shed at launch).
func (sh *shard) start(r *request) bool {
	run := sh
	if !sh.claim() {
		if run = sh.peerWithRoom(r); run == nil {
			return false
		}
	}
	sh.accept(r)
	if run != sh {
		run.stole(r)
	}
	if !run.launch(r) {
		run.pull() // shed: the slot went back, maybe with a request queued behind it
	} else if r.id%launchYieldEvery == 0 {
		runtime.Gosched()
	}
	return true
}

// peerWithRoom claims an executor slot for an unkeyed r, with stealing
// on, on some shard other than sh and returns that shard, or nil.
func (sh *shard) peerWithRoom(r *request) *shard {
	if r.keyed || !sh.s.opts.Steal {
		return nil
	}
	for _, p := range sh.s.all {
		if p != sh && p.claim() {
			return p
		}
	}
	return nil
}

// push queues one admitted request and then pulls, for the slot an
// event may have freed between the producer's claim and its send. With
// stealing on, an unkeyed request may be pulled by any shard.
func (sh *shard) push(r *request) {
	sh.accept(r)
	if r.keyed {
		sh.keyed <- r
	} else {
		sh.unkeyed <- r
	}
	sh.pull()
	if sh.s.opts.Steal && !r.keyed {
		for _, p := range sh.s.all {
			p.pull()
		}
	}
}

// pop settles the dequeue side of one request received from either
// channel, whether by its own shard or a stealing one: the admission
// counter drops, and a producer parked on the full shard is woken.
func (sh *shard) pop() {
	sh.queued.Add(-1)
	if sh.waiters.Load() > 0 {
		sh.signal()
	}
}

// take is the one dequeue step of the shard's own queues, shared by
// pull and the drain's sweep: a non-blocking receive, settled by pop,
// or nil with both queues empty. Keyed requests come first — only this
// shard can run them, while queued unkeyed work may still be rescued by
// a thief.
func (sh *shard) take() *request {
	var r *request
	select {
	case r = <-sh.keyed:
	default:
		select {
		case r = <-sh.unkeyed:
		default:
			return nil
		}
	}
	sh.pop()
	return r
}

// tryEnqueue is the non-blocking admission step onto this shard.
func (sh *shard) tryEnqueue(r *request) bool {
	if !sh.admit() {
		return false
	}
	sh.push(r)
	return true
}

// leastLoaded scans the shards for the shard with the smallest
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

// Submitter is the multi-producer, thread-safe injection front-end: the
// missing external-submission path of the Table II API. All methods may
// be called from any goroutine, concurrently.
type Submitter struct {
	s *Server
}

// Server returns the owning server (for metrics access from handlers).
func (sub *Submitter) Server() *Server { return sub.s }

// Do submits fn as a tasklet-shaped request (stackless body, no
// cooperative context) with the options in req — the single entry
// point the legacy Submit*/TrySubmit* permutations collapse into.
//
// With the zero Req, Do blocks while the queues are full until space
// frees, ctx is cancelled, or the server closes; a deadline on ctx is
// adopted as the request's completion budget. Req.Key pins the request
// to its key's shard, Req.Deadline sets an explicit budget, and
// Req.NonBlocking turns a full queue into an immediate ErrSaturated.
func Do[T any](sub *Submitter, ctx context.Context, fn func() (T, error), req Req) (*Future[T], error) {
	return do(sub, ctx, req, fn, nil)
}

// DoULT is Do for stackful request bodies: fn receives the cooperative
// context, so it can spawn and join child work units (nested
// parallelism on the serving runtime) and issue cancelable aio waits.
func DoULT[T any](sub *Submitter, ctx context.Context, fn func(core.Ctx) (T, error), req Req) (*Future[T], error) {
	return do[T](sub, ctx, req, nil, fn)
}

// do resolves Req into the admission path: key to pin, NonBlocking to
// fast-reject versus park. Exactly one of fn and ufn is set.
func do[T any](sub *Submitter, ctx context.Context, req Req, fn func() (T, error), ufn func(core.Ctx) (T, error)) (*Future[T], error) {
	s := sub.s
	s.active.Add(1)
	defer s.leave()
	if s.closed.Load() {
		return nil, ErrClosed
	}
	pin := -1
	if req.Key != "" {
		pin = s.ShardOf(req.Key)
	}
	deadline, adopted := req.Deadline, false // adopted: from ctx, whose Done covers the park
	if !req.NonBlocking && ctx != nil {
		if dl, ok := ctx.Deadline(); ok && (deadline.IsZero() || dl.Before(deadline)) {
			deadline, adopted = dl, true
		}
	}
	c := newCall(s, ctx, deadline, fn, ufn)
	if err := s.submit(&c.request, pin, !req.NonBlocking, adopted); err != nil {
		return nil, err
	}
	return &c.Future, nil
}

// route picks the shard for one submission: the pinned shard for a
// keyed request (pin >= 0), the router's pick over every shard
// otherwise.
func (s *Server) route(r *request, pin int) *shard {
	if pin >= 0 {
		r.keyed = true
		return s.all[pin]
	}
	return s.all[s.router.Pick(len(s.all), s.load)]
}

// submit is the one admission path, two-level: the router's pick is
// tried first — launched at once with a slot free (start), else
// queued; if that shard's queue is full the request is re-routed once
// to the least-loaded shard. pin >= 0 bypasses the router and
// disables the re-route (keyed affinity). With both full, a
// non-blocking submission (block false) surfaces ErrSaturated, and a
// blocking one parks on the re-route target until space frees, its
// context is cancelled or the server closes. A deadline — explicit, or
// adopted from the submission context — bounds the park too: a request
// that cannot even enqueue inside its budget returns ErrExpired instead
// of blocking past it.
func (s *Server) submit(r *request, pin int, block, adopted bool) error {
	sh := s.route(r, pin)
	if sh.start(r) || sh.tryEnqueue(r) {
		return nil
	}
	alt := sh
	if pin < 0 {
		if alt = leastLoaded(s.all); alt != sh && alt.tryEnqueue(r) {
			return nil
		}
	}
	if !block {
		sh.m.saturated.Add(1)
		return ErrSaturated
	}
	sh = alt
	ctx := r.ctx
	var cancel <-chan struct{}
	if ctx != nil {
		cancel = ctx.Done()
	}
	var expire <-chan time.Time
	if !r.deadline.IsZero() && !adopted {
		// The timer arms only on the blocked path — a queue with room
		// never pays for it — and only for an explicit deadline: one
		// adopted from ctx is already enforced by ctx.Done, and racing
		// a second timer against the context's own would surface
		// ErrExpired where callers armed DeadlineExceeded. Either way
		// the submission was never accepted, so it counts as
		// canceled-at-submit, outside the drain identity.
		tm := time.NewTimer(time.Until(r.deadline))
		defer tm.Stop()
		expire = tm.C
	}
	// Park as a counted waiter until a slot frees: every pop with waiters
	// present signals space, and the waiter re-tries admission. Counting
	// in before the first try closes the race with pop — either the try
	// sees the freed slot or the pop sees the waiter.
	sh.waiters.Add(1)
	defer sh.unwait()
	for !sh.admit() {
		select {
		case <-sh.space:
		case <-cancel:
			sh.m.canceled.Add(1)
			return ctx.Err()
		case <-expire:
			sh.m.canceled.Add(1)
			// A deadline adopted from ctx races ctx.Done here; surface the
			// context's own error so callers see the sentinel they armed.
			if ctx != nil && ctx.Err() != nil {
				return ctx.Err()
			}
			return ErrExpired
		case <-s.quit:
			return ErrClosed
		}
	}
	sh.push(r)
	return nil
}
