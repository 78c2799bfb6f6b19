package serve

import (
	"time"

	"repro/internal/core"
)

// Close stops the server with a graceful drain: new submissions are
// rejected with ErrClosed, every shard runs the requests accepted before
// Close to completion (bounded by Options.DrainTimeout — past the
// deadline, still-queued requests resolve to ErrClosed instead of
// running), requests racing with Close resolve to ErrClosed, and each
// shard's backend is finalized once its pump has drained. No accepted Future is left unresolved. Close blocks
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
	s.kickAll()
	for _, sh := range s.all {
		<-sh.done
	}
}

// kickAll kicks every shard's pump.
func (s *Server) kickAll() {
	for _, sh := range s.all {
		sh.kick()
	}
}

// leave ends a producer's submit call. The last producer out after Close
// kicks every pump: a draining pump parks until the stragglers are gone.
func (s *Server) leave() {
	if s.active.Add(-1) == 0 && s.closed.Load() {
		s.kickAll()
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
	// Run everything accepted before Close, paced at MaxInFlight so the
	// drain cannot overload the backend, until the queues are empty or
	// the deadline passes; requests still queued then resolve to
	// ErrClosed instead of running.
	for !expired() {
		if sh.room() <= 0 {
			sh.wait(park, func() bool { return sh.room() > 0 || expired() })
			continue
		}
		r := sh.take()
		if r == nil {
			break
		}
		sh.launch(rt, r)
	}
	sh.sweep()
	// Launched work always runs to completion — a live work unit cannot
	// be abandoned without corrupting the backend — so the deadline
	// bounds queue drain, not execution.
	for sh.inflight.Load() > 0 {
		sh.wait(park, func() bool { return sh.inflight.Load() == 0 })
	}
	// Producers that passed the closed check concurrently with Close
	// are counted in active; reject what they enqueue until they are
	// gone so no Future is left unresolved and no producer is left
	// blocked. The counter is server-wide (a straggler may target any
	// shard), so every shard holds its queues open until the last
	// producer exits.
	for s.active.Load() > 0 {
		sh.sweep()
		sh.wait(park, func() bool { return s.active.Load() == 0 || sh.queued.Load() > 0 })
	}
	// A straggler's enqueue happens before its active-counter
	// decrement, so once active reached zero everything it sent is
	// already buffered; one final sweep resolves it.
	sh.sweep()
	rt.Finalize()
	sh.ring.Close()
}

// sweep resolves every request still queued on the shard with
// ErrClosed.
func (sh *shard) sweep() {
	for r := sh.take(); r != nil; r = sh.take() {
		sh.m.rejected.Add(1)
		r.w.fail(ErrClosed)
	}
}
