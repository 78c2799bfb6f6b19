package integration

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	lwt "repro"
	"repro/internal/core"
	"repro/internal/serve"
)

// TestServeDeadlineEveryBackend runs the deadline/cancellation contract
// on every registered backend: a parked handler wakes early with
// ErrCanceled when its budget runs out (park-wake on AsyncIO backends,
// yield-poll elsewhere — same observable behavior), and a queued
// request whose budget dies before launch is shed as Expired.
func TestServeDeadlineEveryBackend(t *testing.T) {
	for _, backend := range lwt.Backends() {
		t.Run(backend, func(t *testing.T) {
			s, err := serve.New(serve.Options{Backend: backend, Threads: 2, Shards: 1, QueueDepth: 64})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			sub := s.Submitter()

			// Running-handler cancellation: the Sleep must end in
			// ErrCanceled long before its nominal duration.
			f, err := serve.DoULT(sub, context.Background(), func(c core.Ctx) (bool, error) {
				return core.Sleep(c, 30*time.Second) == core.ErrCanceled, nil
			}, serve.Req{Deadline: time.Now().Add(30 * time.Millisecond)})
			if err != nil {
				t.Fatal(err)
			}
			waitCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			if canceled, err := f.Wait(waitCtx); err != nil || !canceled {
				t.Fatalf("cancelable Sleep = (%v, %v), want (true, nil)", canceled, err)
			}

			// Queue shed: trap a request behind a blocked executor pool
			// until its budget is gone.
			s2, err := serve.New(serve.Options{
				Backend: backend, Threads: 2, Shards: 1,
				QueueDepth: 4, MaxInFlight: 1,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer s2.Close()
			sub2 := s2.Submitter()
			started := make(chan struct{})
			release := make(chan struct{})
			if _, err := serve.Do(sub2, context.Background(), func() (int, error) {
				close(started)
				<-release
				return 0, nil
			}, serve.Req{}); err != nil {
				t.Fatal(err)
			}
			<-started
			ef, err := serve.Do(sub2, nil, func() (int, error) { return 1, nil }, serve.Req{Deadline: time.Now().Add(10 * time.Millisecond), NonBlocking: true})
			if err != nil {
				t.Fatal(err)
			}
			time.Sleep(20 * time.Millisecond)
			close(release)
			if _, werr := ef.Wait(context.Background()); !errors.Is(werr, serve.ErrExpired) {
				t.Fatalf("queued expiry = %v, want ErrExpired", werr)
			}
			if got := s2.Metrics().Expired; got != 1 {
				t.Fatalf("Expired = %d, want 1", got)
			}
		})
	}
}

// TestServeDeadlineHammerEveryBackend is the integration variant of the
// abandoned-Wait satellite: on every backend, concurrent producers mix
// plain, deadlined, and cancelled-mid-flight requests, abandon half
// their Waits, and the server must drain to the extended accounting
// identity with every accepted Future resolved.
func TestServeDeadlineHammerEveryBackend(t *testing.T) {
	for _, backend := range lwt.Backends() {
		t.Run(backend, func(t *testing.T) {
			s, err := serve.New(serve.Options{
				Backend: backend, Threads: 2, Shards: 2,
				QueueDepth: 32, MaxInFlight: 4,
			})
			if err != nil {
				t.Fatal(err)
			}
			sub := s.Submitter()

			const producers, per = 4, 16
			var mu sync.Mutex
			var accepted []*serve.Future[int]
			var wg sync.WaitGroup
			for p := 0; p < producers; p++ {
				wg.Add(1)
				go func(p int) {
					defer wg.Done()
					for i := 0; i < per; i++ {
						var f *serve.Future[int]
						var err error
						switch i % 4 {
						case 0:
							// Tight budget a queued request may miss.
							f, err = serve.Do(sub, nil, func() (int, error) { return i, nil }, serve.Req{Deadline: time.Now().Add(time.Duration(i%3) * time.Millisecond), NonBlocking: true})
						case 1:
							// ULT whose budget cancels its park mid-run.
							f, err = serve.DoULT(sub, context.Background(), func(c core.Ctx) (int, error) {
								_ = core.Sleep(c, time.Duration(i%4)*time.Millisecond)
								return i, nil
							}, serve.Req{Deadline: time.Now().Add(5 * time.Millisecond)})
						case 2:
							// Submission context cancelled while in flight.
							ctx, cancel := context.WithCancel(context.Background())
							f, err = serve.Do(sub, ctx, func() (int, error) { return i, nil }, serve.Req{})
							cancel()
						default:
							f, err = serve.Do(sub, context.Background(), func() (int, error) { return i, nil }, serve.Req{})
						}
						if errors.Is(err, serve.ErrSaturated) || errors.Is(err, serve.ErrExpired) {
							continue
						}
						if err != nil {
							t.Errorf("submit: %v", err)
							return
						}
						if i%2 == 0 {
							// Abandon this Wait: cancel the wait context and
							// walk away before the request resolves.
							wctx, wcancel := context.WithCancel(context.Background())
							wcancel()
							_, _ = f.Wait(wctx)
						}
						mu.Lock()
						accepted = append(accepted, f)
						mu.Unlock()
					}
				}(p)
			}
			wg.Wait()
			s.Close()

			ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
			defer cancel()
			for i, f := range accepted {
				if _, err := f.Wait(ctx); err != nil &&
					!errors.Is(err, serve.ErrClosed) && !errors.Is(err, serve.ErrExpired) &&
					!errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded) {
					t.Fatalf("future %d resolved to unexpected error %v", i, err)
				}
				if !f.Ready() {
					t.Fatalf("future %d not resolved after drain", i)
				}
			}
			m := s.Metrics()
			if m.Submitted != m.Completed+m.Rejected+m.Expired {
				t.Fatalf("identity broken: Submitted=%d Completed=%d Rejected=%d Expired=%d",
					m.Submitted, m.Completed, m.Rejected, m.Expired)
			}
			if int(m.Submitted) != len(accepted) {
				t.Fatalf("Submitted = %d, accepted futures = %d", m.Submitted, len(accepted))
			}
		})
	}
}
