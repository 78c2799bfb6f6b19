package serve

import (
	"time"

	"repro/internal/core"
)

// keep is one shard's keeper: the backend's main thread. It opens the
// shard's runtime and then parks that main thread (core.Runtime.
// MainPark) for the server's lifetime — launches and completions never
// need it, since any goroutine may spawn on the runtime. Its park is
// what drives Converse's processor 0 and lends the adopted Argobots and
// MassiveThreads primary's executor to the workers. After Close it
// wakes to check the drain, sweeps the queues once the drain deadline
// passed, and finalizes the runtime once the server is drained.
func (sh *shard) keep(ready chan<- error) {
	defer close(sh.done)
	rt, err := core.Open(core.Config{
		Backend:   sh.s.opts.Backend,
		Executors: sh.s.opts.Threads,
		Scheduler: sh.s.opts.Scheduler,
	})
	if err != nil {
		ready <- err
		sh.ring.Close()
		return
	}
	park, unpark := rt.MainPark()
	sh.rt, sh.unpark = rt, unpark
	ready <- nil
	for !sh.s.drained() {
		park()
		if sh.s.expired.Load() {
			sh.sweep()
		}
	}
	rt.Finalize()
	sh.ring.Close()
}

// Close stops the server with a graceful drain: new submissions are
// rejected with ErrClosed, the requests accepted before Close keep
// launching and run to completion (bounded by Options.DrainTimeout —
// past the deadline, still-queued requests resolve to ErrClosed instead
// of running), and each shard's backend is finalized once the whole
// server has drained. No accepted Future is left unresolved. Close
// blocks until every keeper has exited and is idempotent.
func (s *Server) Close() {
	if s.closed.CompareAndSwap(false, true) {
		if d := s.opts.DrainTimeout; d > 0 {
			t := time.AfterFunc(d, func() {
				s.expired.Store(true)
				s.wakeKeepers()
			})
			defer t.Stop()
		}
		close(s.quit)
		s.wakeKeepers()
	}
	for _, sh := range s.all {
		<-sh.done
	}
}

// wakeKeepers unparks every shard's keeper to re-check the drain. After
// Close it is called from exactly three places besides Close itself:
// the completion that leaves a shard with nothing in flight (finish),
// the last producer leaving a submit call (leave), and the drain
// deadline.
func (s *Server) wakeKeepers() {
	for _, sh := range s.all {
		if sh.unpark != nil { // nil on a shard whose runtime failed to open
			sh.unpark()
		}
	}
}

// leave ends a producer's submit call. The last producer out after Close
// wakes the keepers: a drain waits for the stragglers, which may still
// launch or queue.
func (s *Server) leave() {
	if s.active.Add(-1) == 0 && s.closed.Load() {
		s.wakeKeepers()
	}
}

// drained reports whether the keepers may finalize: the server is
// closed, no producer is inside a submit call, and no shard has a
// request queued or in flight. The reads are ordered against the
// writers': a producer launches or queues before it leaves, and a slot
// is claimed before the request it runs is dequeued, so a request
// moving from a queue to an executor is always seen in one or the
// other. Launched work always runs to completion — a live work unit
// cannot be abandoned without corrupting the backend — so the drain
// deadline bounds queue drain, not execution.
func (s *Server) drained() bool {
	if !s.closed.Load() || s.active.Load() != 0 {
		return false
	}
	for _, sh := range s.all {
		if sh.queued.Load() != 0 {
			return false
		}
	}
	for _, sh := range s.all {
		if sh.inflight.Load() != 0 {
			return false
		}
	}
	return true
}

// sweep resolves every request still queued on the shard with
// ErrClosed.
func (sh *shard) sweep() {
	for r := sh.take(); r != nil; r = sh.take() {
		sh.m.rejected.Add(1)
		r.w.fail(ErrClosed)
	}
}
