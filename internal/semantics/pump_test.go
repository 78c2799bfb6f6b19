package semantics

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/serve"
)

// fixedRouter sends every unkeyed submission to one shard, so a test can
// pile a backlog onto it.
type fixedRouter int

func (r fixedRouter) Pick(int, func(int) int) int { return int(r) }

// settle waits until the server's executors have parked and stay
// parked: the summed executor-park count unchanged across three polls
// 1 ms apart. With the spin budget at 0 an executor with nothing to run
// parks on its second empty poll, so a quiet count means every idle
// executor is asleep and only a push's wake will move it. A yielding
// unit in flight keeps re-waking its pool's sleepers, so the wait is
// capped at 50 polls: it only sharpens a case, no assertion depends on
// it. The shard keepers are parked on their main threads throughout.
func settle(s *serve.Server) {
	last, same := s.Metrics().Sched.Parks, 0
	for polls := 0; same < 3 && polls < 50; polls++ {
		time.Sleep(time.Millisecond)
		if now := s.Metrics().Sched.Parks; now == last {
			same++
		} else {
			last, same = now, 0
		}
	}
}

// until polls cond every 100 µs; the watchdog bounds the wait.
func until(cond func() bool) {
	for !cond() {
		time.Sleep(100 * time.Microsecond)
	}
}

// spinUntil is a handler body that holds its executor slot — in flight
// and not parked on I/O — yielding until released.
func spinUntil(released *atomic.Bool) func(core.Ctx) (int, error) {
	return func(c core.Ctx) (int, error) {
		for !released.Load() {
			c.Yield()
		}
		return 1, nil
	}
}

// must resolves a submission's future, panicking with what failed; the
// case runner turns the panic into a test failure.
func must[T any](f *serve.Future[T], err error) T {
	if err != nil {
		panic(err)
	}
	v, err := f.Wait(context.Background())
	if err != nil {
		panic(err)
	}
	return v
}

// keyOn finds an affinity key the server pins to the wanted shard.
func keyOn(s *serve.Server, shard int) string {
	for i := 0; ; i++ {
		if k := fmt.Sprint("k", i); s.ShardOf(k) == shard {
			return k
		}
	}
}

// serveWakeups is the serving half of the lost-wakeup surface. No
// goroutine polls the shard queues: a queued request is launched by the
// event that frees an executor slot, or by its own producer's re-check
// once it is queued, and a shard's keeper sleeps on its main thread
// until the drain needs it. Every such wake site has its own case, and
// each case sets the scene so that its site is the only way forward:
// delete the wake and the case hangs; the watchdog names it. The spin
// budget is 0 (the caller forces it), so executors park on their second
// empty poll.
func serveWakeups(t *testing.T, backend string) {
	ctx := context.Background()
	cases := []struct {
		name string
		opts serve.Options
		run  func(s *serve.Server)
	}{
		// A producer queues at the cap while the last in-flight unit
		// finishes: a's completion frees the cap and launches — and
		// sheds — the expired q, whose dequeue wakes the producer parked
		// on the full queue. By the time that producer has queued, a's
		// completion is over and nothing else is in flight, so only the
		// producer's own re-check launches b.
		{"push-while-parked-with-work-in-flight", serve.Options{MaxInFlight: 1, QueueDepth: 1}, func(s *serve.Server) {
			sub := s.Submitter()
			var released atomic.Bool
			a, errA := serve.DoULT(sub, ctx, spinUntil(&released), serve.Req{})
			until(func() bool { return s.Metrics().InFlight == 1 })
			q, errQ := serve.Do(sub, ctx, func() (int, error) { return 0, nil },
				serve.Req{NonBlocking: true, Deadline: time.Now().Add(time.Millisecond)})
			if errQ != nil {
				panic(errQ)
			}
			b := make(chan error, 1)
			go func() {
				f, err := serve.Do(sub, ctx, func() (int, error) { return 2, nil }, serve.Req{})
				if err == nil {
					_, err = f.Wait(ctx)
				}
				b <- err
			}()
			time.Sleep(10 * time.Millisecond) // q's deadline passes; b's producer parks
			settle(s)
			released.Store(true)
			if err := <-b; err != nil {
				panic(err)
			}
			if _, err := q.Wait(ctx); !errors.Is(err, serve.ErrExpired) {
				panic(fmt.Sprintf("expired request resolved to %v", err))
			}
			must(a, errA)
		}},
		// A completion frees the cap under a queue. c parks on I/O for
		// the whole case, so the shard is not idle when a completes.
		{"completion-frees-cap-while-parked", serve.Options{MaxInFlight: 1}, func(s *serve.Server) {
			sub := s.Submitter()
			gate := make(chan struct{})
			c, errC := serve.DoULT(sub, ctx, func(c core.Ctx) (int, error) {
				return 3, core.AwaitIO(c, gate)
			}, serve.Req{})
			until(func() bool { return s.Metrics().IOParked == 1 })
			var released atomic.Bool
			a, errA := serve.DoULT(sub, ctx, spinUntil(&released), serve.Req{})
			until(func() bool { return s.Metrics().InFlight == 2 })
			b, errB := serve.Do(sub, ctx, func() (int, error) { return 2, nil }, serve.Req{})
			settle(s) // at the cap with b queued
			released.Store(true)
			must(b, errB)
			must(a, errA)
			close(gate)
			must(c, errC)
		}},
		// An I/O park frees the cap under a queue.
		{"io-park-frees-cap-while-parked", serve.Options{MaxInFlight: 1}, func(s *serve.Server) {
			sub := s.Submitter()
			var step atomic.Bool
			gate := make(chan struct{})
			a, errA := serve.DoULT(sub, ctx, func(c core.Ctx) (int, error) {
				for !step.Load() {
					c.Yield()
				}
				return 1, core.AwaitIO(c, gate)
			}, serve.Req{})
			until(func() bool { return s.Metrics().InFlight == 1 })
			b, errB := serve.Do(sub, ctx, func() (int, error) { return 2, nil }, serve.Req{})
			settle(s) // at the cap with b queued
			step.Store(true)
			// a's I/O park frees the cap; it is the only way b runs
			// before the gate opens.
			must(b, errB)
			close(gate)
			must(a, errA)
		}},
		// Stealing: a backlog is forced onto capped shard 0 while shard
		// 1 is capped too; when shard 1's unit completes, its freed slot
		// must take the backlog, one request per completion, while
		// shard 0 stays held.
		{"steal-wake", serve.Options{Shards: 2, MaxInFlight: 1, Steal: true, Router: fixedRouter(0)}, func(s *serve.Server) {
			sub := s.Submitter()
			var hold0, hold1 atomic.Bool
			a0, err0 := serve.DoULT(sub, ctx, spinUntil(&hold0), serve.Req{Key: keyOn(s, 0)})
			a1, err1 := serve.DoULT(sub, ctx, spinUntil(&hold1), serve.Req{Key: keyOn(s, 1)})
			until(func() bool { return s.Metrics().InFlight == 2 })
			var fs []*serve.Future[int]
			for i := 0; i < 3; i++ {
				f, err := serve.Do(sub, ctx, func() (int, error) { return i, nil }, serve.Req{})
				if err != nil {
					panic(err)
				}
				fs = append(fs, f)
			}
			settle(s) // both shards at the cap, the backlog on shard 0
			hold1.Store(true)
			must(a1, err1)
			for _, f := range fs {
				must(f, nil)
			}
			hold0.Store(true)
			must(a0, err0)
			if st := s.ShardMetrics()[1].Steals; st != 3 {
				panic(fmt.Sprintf("shard 1 stole %d requests, want 3", st))
			}
		}},
		// Close while idle: only Close's own wake reaches the keeper.
		{"close-while-parked", serve.Options{}, func(s *serve.Server) {
			must(serve.Do(s.Submitter(), ctx, func() (int, error) { return 1, nil }, serve.Req{}))
			settle(s)
			s.Close()
		}},
		// The last completion while draining: Close's wake finds a in
		// flight, the keeper parks again, and a's completion must wake
		// it.
		{"last-completion-while-draining", serve.Options{}, func(s *serve.Server) {
			var released atomic.Bool
			a, errA := serve.DoULT(s.Submitter(), ctx, spinUntil(&released), serve.Req{})
			until(func() bool { return s.Metrics().InFlight == 1 })
			settle(s)
			closed := make(chan struct{})
			go func() {
				s.Close()
				close(closed)
			}()
			time.Sleep(10 * time.Millisecond) // the keeper sees a in flight and parks
			released.Store(true)
			must(a, errA)
			<-closed
		}},
		// The drain deadline sweeps a queue: a holds the only slot past
		// the deadline, so b is never launched, and only the deadline's
		// wake lets a keeper resolve it with ErrClosed.
		{"drain-deadline-sweeps-queue", serve.Options{MaxInFlight: 1, DrainTimeout: 20 * time.Millisecond}, func(s *serve.Server) {
			sub := s.Submitter()
			var released atomic.Bool
			a, errA := serve.DoULT(sub, ctx, spinUntil(&released), serve.Req{})
			until(func() bool { return s.Metrics().InFlight == 1 })
			b, errB := serve.Do(sub, ctx, func() (int, error) { return 2, nil }, serve.Req{})
			if errB != nil {
				panic(errB)
			}
			settle(s)
			closed := make(chan struct{})
			go func() {
				s.Close()
				close(closed)
			}()
			if _, err := b.Wait(ctx); !errors.Is(err, serve.ErrClosed) {
				panic(fmt.Sprintf("queued request past the drain deadline resolved to %v", err))
			}
			released.Store(true)
			must(a, errA)
			<-closed
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			opts := c.opts
			opts.Backend, opts.Threads = backend, 2
			if opts.Shards == 0 {
				opts.Shards = 1
			}
			s := serve.MustNew(opts)
			done := make(chan any, 1)
			go func() {
				defer func() { done <- recover() }()
				c.run(s)
				s.Close() // every case ends idle; Close's wake is load-bearing too
			}()
			select {
			case p := <-done:
				if p != nil {
					t.Fatal(p)
				}
			case <-time.After(30 * time.Second):
				// No Close: the server is wedged by construction.
				t.Fatalf("hung — a lost serving wakeup\n%s", allStacks())
			}
			agg := s.Metrics()
			if agg.Submitted != agg.Completed+agg.Rejected+agg.Expired {
				t.Fatalf("drain identity broken: submitted=%d completed=%d rejected=%d expired=%d",
					agg.Submitted, agg.Completed, agg.Rejected, agg.Expired)
			}
		})
	}
}
