package semantics

import (
	"context"
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

// settle waits until the server's pumps have parked and stay parked: the
// summed pump-park count unchanged across three polls 1 ms apart. With
// the spin budget at 0 a pump with nothing to do parks on its first
// empty poll, so a quiet count means every pump is asleep and only a
// kick will move it.
func settle(s *serve.Server) uint64 {
	last, same := s.Metrics().PumpParks, 0
	for same < 3 {
		time.Sleep(time.Millisecond)
		if now := s.Metrics().PumpParks; now == last {
			same++
		} else {
			last, same = now, 0
		}
	}
	return last
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

// pumpWakeups is the pump half of the lost-wakeup surface: every event
// that can give a parked shard pump something to do has its own case,
// and each case waits for the pumps to park before it fires the event,
// so the event's kick is the only way forward. Delete the kick from a
// waker and its case hangs; the watchdog names it. The spin budget is 0
// (the caller forces it), so pumps park on their first empty poll.
func pumpWakeups(t *testing.T, backend string) {
	ctx := context.Background()
	cases := []struct {
		name string
		opts serve.Options
		run  func(s *serve.Server)
	}{
		{"push-while-parked-with-work-in-flight", serve.Options{}, func(s *serve.Server) {
			sub := s.Submitter()
			gate := make(chan struct{})
			a, err := serve.DoULT(sub, ctx, func(c core.Ctx) (int, error) {
				return 1, core.AwaitIO(c, gate)
			}, serve.Req{})
			until(func() bool { return s.Metrics().IOParked == 1 })
			settle(s)
			// The pump is parked with a in flight; only the push's kick
			// launches b.
			must(serve.Do(sub, ctx, func() (int, error) { return 2, nil }, serve.Req{}))
			close(gate)
			must(a, err)
		}},
		{"completion-frees-cap-while-parked", serve.Options{MaxInFlight: 1}, func(s *serve.Server) {
			sub := s.Submitter()
			// c parks on I/O for the whole case, so a's completion is not
			// the last one: the kick it owes is the room-under-a-queue one.
			gate := make(chan struct{})
			c, errC := serve.DoULT(sub, ctx, func(c core.Ctx) (int, error) {
				return 3, core.AwaitIO(c, gate)
			}, serve.Req{})
			until(func() bool { return s.Metrics().IOParked == 1 })
			var released atomic.Bool
			a, errA := serve.DoULT(sub, ctx, spinUntil(&released), serve.Req{})
			until(func() bool { return s.Metrics().InFlight == 2 })
			b, errB := serve.Do(sub, ctx, func() (int, error) { return 2, nil }, serve.Req{})
			settle(s) // parked at the cap with b queued
			released.Store(true)
			must(b, errB)
			must(a, errA)
			close(gate)
			must(c, errC)
		}},
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
			settle(s) // parked at the cap with b queued
			step.Store(true)
			// a's I/O park frees the cap; its kick is the only way b runs
			// before the gate opens.
			must(b, errB)
			close(gate)
			must(a, errA)
		}},
		{"steal-wake", serve.Options{Shards: 2, MaxInFlight: 1, Steal: true, Router: fixedRouter(0)}, func(s *serve.Server) {
			sub := s.Submitter()
			key := ""
			for i := 0; key == ""; i++ {
				if k := fmt.Sprint("k", i); s.ShardOf(k) == 0 {
					key = k
				}
			}
			var released atomic.Bool
			a, errA := serve.DoULT(sub, ctx, spinUntil(&released), serve.Req{Key: key})
			until(func() bool { return s.Metrics().InFlight == 1 })
			settle(s) // shard 0 parked at its cap, shard 1 idle and parked
			// Shard 0 cannot launch these until a finishes; the backlog
			// reaching the steal depth must wake shard 1 to take them.
			var fs []*serve.Future[int]
			for i := 0; i < 3; i++ {
				f, err := serve.Do(sub, ctx, func() (int, error) { return i, nil }, serve.Req{})
				if err != nil {
					panic(err)
				}
				fs = append(fs, f)
			}
			for _, f := range fs {
				must(f, nil)
			}
			released.Store(true)
			must(a, errA)
		}},
		{"close-while-parked", serve.Options{}, func(s *serve.Server) {
			must(serve.Do(s.Submitter(), ctx, func() (int, error) { return 1, nil }, serve.Req{}))
			settle(s)
			s.Close()
		}},
		{"last-completion-while-draining", serve.Options{}, func(s *serve.Server) {
			var released atomic.Bool
			a, errA := serve.DoULT(s.Submitter(), ctx, spinUntil(&released), serve.Req{})
			until(func() bool { return s.Metrics().InFlight == 1 })
			parks := settle(s)
			closed := make(chan struct{})
			go func() {
				s.Close()
				close(closed)
			}()
			// Close's kick moves the pump into the drain, which parks
			// again to wait for a — whose completion, the last one,
			// must kick it.
			until(func() bool { return s.Metrics().PumpParks > parks })
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
				s.Close() // every case ends parked; Close's kick is load-bearing too
			}()
			select {
			case p := <-done:
				if p != nil {
					t.Fatal(p)
				}
			case <-time.After(30 * time.Second):
				// No Close: the server is wedged by construction.
				t.Fatalf("hung — a lost pump wakeup\n%s", allStacks())
			}
			agg := s.Metrics()
			if agg.Submitted != agg.Completed+agg.Rejected+agg.Expired {
				t.Fatalf("drain identity broken: submitted=%d completed=%d rejected=%d expired=%d",
					agg.Submitted, agg.Completed, agg.Rejected, agg.Expired)
			}
		})
	}
}
