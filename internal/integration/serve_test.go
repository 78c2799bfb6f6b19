package integration

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	lwt "repro"
	"repro/internal/core"
	"repro/internal/serve"
)

// TestServeEveryBackend drives the same submit/await workload through
// the serving subsystem on every registered backend: concurrent
// producers, tasklet- and ULT-shaped requests, value/error/panic
// results. This is the end-to-end claim of the serving layer — the
// reduced Table II function set plus an any-goroutine Spawn suffices to serve
// arbitrary-goroutine traffic on every emulated runtime.
func TestServeEveryBackend(t *testing.T) {
	for _, backend := range lwt.Backends() {
		t.Run(backend, func(t *testing.T) {
			s, err := serve.New(serve.Options{Backend: backend, Threads: 2, Shards: 1, QueueDepth: 64})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			sub := s.Submitter()

			const producers, per = 4, 25
			var wg sync.WaitGroup
			var sum atomic.Int64
			for p := 0; p < producers; p++ {
				wg.Add(1)
				go func(p int) {
					defer wg.Done()
					for i := 0; i < per; i++ {
						if i%5 == 0 {
							// ULT-shaped: spawn and join a child on the
							// serving runtime.
							f, err := serve.DoULT(sub, context.Background(), func(c core.Ctx) (int, error) {
								var child int
								h := c.ULTCreate(func(core.Ctx) { child = i })
								c.Join(h)
								return child, nil
							}, serve.Req{})
							if err != nil {
								t.Errorf("SubmitULT: %v", err)
								return
							}
							if v, err := f.Wait(context.Background()); err != nil || v != i {
								t.Errorf("ULT wait = (%v, %v), want (%d, nil)", v, err, i)
								return
							}
						} else {
							f, err := serve.Do(sub, context.Background(), func() (int, error) {
								sum.Add(1)
								return p*per + i, nil
							}, serve.Req{})
							if err != nil {
								t.Errorf("Submit: %v", err)
								return
							}
							if v, err := f.Wait(context.Background()); err != nil || v != p*per+i {
								t.Errorf("wait = (%v, %v), want (%d, nil)", v, err, p*per+i)
								return
							}
						}
					}
				}(p)
			}
			wg.Wait()

			// Panic capture must hold on every backend's executors.
			f, err := serve.Do(sub, context.Background(), func() (int, error) { panic(backend) }, serve.Req{})
			if err != nil {
				t.Fatal(err)
			}
			_, werr := f.Wait(context.Background())
			var pe *serve.PanicError
			if !errors.As(werr, &pe) || pe.Value != backend {
				t.Fatalf("panic result = %v, want PanicError(%q)", werr, backend)
			}

			quiesce(t, s)
			m := s.Metrics()
			wantTasklets := int64(producers * per * 4 / 5)
			if sum.Load() != wantTasklets {
				t.Fatalf("tasklet bodies ran %d times, want %d", sum.Load(), wantTasklets)
			}
			if m.Completed != uint64(producers*per+1) {
				t.Fatalf("Completed = %d, want %d", m.Completed, producers*per+1)
			}
		})
	}
}

// quiesce waits, up to 5 s, until s has nothing queued and nothing in
// flight. A Future resolves before its shard releases the executor slot,
// so InFlight may still count a request right after its Wait returned;
// quiescence is what the server promises once every caller is done.
func quiesce(t *testing.T, s *serve.Server) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		m := s.Metrics()
		if m.InFlight == 0 && m.QueueDepth == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("leftover work: inflight=%d queued=%d", m.InFlight, m.QueueDepth)
		}
		time.Sleep(time.Millisecond)
	}
}

// rotatingRouter deals unkeyed submissions to shards in strict
// rotation, so unkeyed traffic deterministically reaches every shard.
type rotatingRouter struct{ next atomic.Uint64 }

func (r *rotatingRouter) Pick(n int, _ func(int) int) int {
	return int((r.next.Add(1) - 1) % uint64(n))
}

// TestServeShardedEveryBackend runs the shard pool on every registered
// backend: four independent runtimes behind one server, round-robin
// routed unkeyed traffic (deterministically hitting every shard), keyed
// traffic pinned by session, and ULT-shaped requests spawning children
// on whichever shard they land on. Per-shard metrics must account for
// exactly the traffic each shard saw.
func TestServeShardedEveryBackend(t *testing.T) {
	const shards = 4
	for _, backend := range lwt.Backends() {
		t.Run(backend, func(t *testing.T) {
			s, err := serve.New(serve.Options{
				Backend: backend, Threads: 1, Shards: shards,
				Router: &rotatingRouter{}, QueueDepth: 64,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			if s.NumShards() != shards {
				t.Fatalf("NumShards = %d, want %d", s.NumShards(), shards)
			}
			sub := s.Submitter()

			const producers, per = 4, 20
			keyed := make([]uint64, shards)
			var keyedMu sync.Mutex
			var wg sync.WaitGroup
			for p := 0; p < producers; p++ {
				wg.Add(1)
				go func(p int) {
					defer wg.Done()
					key := "session-" + string(rune('a'+p))
					for i := 0; i < per; i++ {
						switch i % 4 {
						case 0:
							// ULT-shaped: spawn and join a child on the
							// shard this request routed to.
							f, err := serve.DoULT(sub, context.Background(), func(c core.Ctx) (int, error) {
								var child int
								h := c.ULTCreate(func(core.Ctx) { child = i })
								c.Join(h)
								return child, nil
							}, serve.Req{})
							if err != nil {
								t.Errorf("SubmitULT: %v", err)
								return
							}
							if v, err := f.Wait(context.Background()); err != nil || v != i {
								t.Errorf("ULT wait = (%v, %v), want (%d, nil)", v, err, i)
								return
							}
						case 1:
							// Keyed: this producer's whole session pins to
							// one shard.
							keyedMu.Lock()
							keyed[s.ShardOf(key)]++
							keyedMu.Unlock()
							f, err := serve.Do(sub, context.Background(), func() (int, error) { return p, nil }, serve.Req{Key: key})
							if err != nil {
								t.Errorf("SubmitKeyed: %v", err)
								return
							}
							if v, err := f.Wait(context.Background()); err != nil || v != p {
								t.Errorf("keyed wait = (%v, %v), want (%d, nil)", v, err, p)
								return
							}
						default:
							f, err := serve.Do(sub, context.Background(), func() (int, error) { return p*per + i, nil }, serve.Req{})
							if err != nil {
								t.Errorf("Submit: %v", err)
								return
							}
							if v, err := f.Wait(context.Background()); err != nil || v != p*per+i {
								t.Errorf("wait = (%v, %v), want (%d, nil)", v, err, p*per+i)
								return
							}
						}
					}
				}(p)
			}
			wg.Wait()

			quiesce(t, s)
			agg := s.Metrics()
			if agg.Completed != producers*per {
				t.Fatalf("Completed = %d, want %d", agg.Completed, producers*per)
			}
			sm := s.ShardMetrics()
			var sum uint64
			hit := 0
			for i, m := range sm {
				sum += m.Completed
				if m.Completed > 0 {
					hit++
				}
				// Every shard saw at least its keyed sessions.
				if m.Submitted < keyed[i] {
					t.Fatalf("shard %d submitted %d < %d keyed requests pinned to it", i, m.Submitted, keyed[i])
				}
			}
			if sum != agg.Completed {
				t.Fatalf("shard completions sum %d != aggregate %d", sum, agg.Completed)
			}
			// Round-robin over 60+ unkeyed requests deterministically
			// touches every shard.
			if hit != shards {
				t.Fatalf("traffic reached only %d of %d shards", hit, shards)
			}
		})
	}
}

// TestServeShardedDrainUnderLoad closes a 4-shard server while
// producers are still submitting on every backend: Close must stop
// admission, run down every shard's queue, and leave no accepted Future
// unresolved — the no-dropped-futures drain contract under live load.
func TestServeShardedDrainUnderLoad(t *testing.T) {
	for _, backend := range lwt.Backends() {
		t.Run(backend, func(t *testing.T) {
			s, err := serve.New(serve.Options{
				Backend: backend, Threads: 1, Shards: 4,
				QueueDepth: 16, MaxInFlight: 8,
			})
			if err != nil {
				t.Fatal(err)
			}
			sub := s.Submitter()
			var mu sync.Mutex
			var accepted []*serve.Future[int]
			var wg sync.WaitGroup
			for p := 0; p < 4; p++ {
				wg.Add(1)
				go func(p int) {
					defer wg.Done()
					for i := 0; ; i++ {
						var f *serve.Future[int]
						var err error
						switch i % 3 {
						case 0:
							f, err = serve.Do(sub, nil, func() (int, error) { return i, nil }, serve.Req{NonBlocking: true})
						case 1:
							f, err = serve.Do(sub, context.Background(), func() (int, error) { return i, nil }, serve.Req{})
						default:
							f, err = serve.Do(sub, context.Background(), func() (int, error) { return i, nil }, serve.Req{Key: "drain-session"})
						}
						if errors.Is(err, serve.ErrClosed) {
							return // the drain shut the door: expected exit
						}
						if errors.Is(err, serve.ErrSaturated) {
							continue
						}
						if err != nil {
							t.Errorf("submit: %v", err)
							return
						}
						mu.Lock()
						accepted = append(accepted, f)
						mu.Unlock()
					}
				}(p)
			}
			// Close while the producers are mid-flight.
			time.Sleep(2 * time.Millisecond)
			s.Close()
			wg.Wait()

			ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
			defer cancel()
			resolved := 0
			for i, f := range accepted {
				if _, err := f.Wait(ctx); err != nil && !errors.Is(err, serve.ErrClosed) {
					t.Fatalf("future %d resolved to %v", i, err)
				}
				if !f.Ready() {
					t.Fatalf("future %d not resolved after drain", i)
				}
				resolved++
			}
			if resolved != len(accepted) {
				t.Fatalf("resolved %d of %d accepted futures", resolved, len(accepted))
			}
			// Drain accounting: every accepted request either ran or was
			// rejected at the door — nothing vanished.
			m := s.Metrics()
			if m.Submitted != m.Completed+m.Rejected {
				t.Fatalf("drain accounting: submitted %d != completed %d + rejected %d",
					m.Submitted, m.Completed, m.Rejected)
			}
			if int(m.Submitted) != len(accepted) {
				t.Fatalf("Submitted = %d, accepted futures = %d", m.Submitted, len(accepted))
			}
		})
	}
}

// TestServeSaturationEveryBackend verifies the admission-control
// contract on every backend: with the single in-flight slot occupied and
// the queue full, TrySubmit fast-rejects with ErrSaturated instead of
// blocking or deadlocking, and a blocking Submit honors context
// cancellation while stuck on the full queue.
func TestServeSaturationEveryBackend(t *testing.T) {
	for _, backend := range lwt.Backends() {
		t.Run(backend, func(t *testing.T) {
			s, err := serve.New(serve.Options{
				Backend: backend, Threads: 2, Shards: 1,
				QueueDepth: 2, MaxInFlight: 1,
			})
			if err != nil {
				t.Fatal(err)
			}
			started := make(chan struct{})
			release := make(chan struct{})
			defer s.Close()
			sub := s.Submitter()
			if _, err := serve.Do(sub, context.Background(), func() (int, error) {
				close(started)
				<-release
				return 0, nil
			}, serve.Req{}); err != nil {
				t.Fatal(err)
			}
			<-started // occupies the only in-flight slot until released
			// Fill the depth-2 queue: one plain request plus one whose
			// context will die while it waits.
			if _, err := serve.Do(sub, nil, func() (int, error) { return 1, nil }, serve.Req{NonBlocking: true}); err != nil {
				t.Fatalf("fill: %v", err)
			}
			qctx, qcancel := context.WithCancel(context.Background())
			f, err := serve.Do(sub, qctx, func() (int, error) { return 9, nil }, serve.Req{})
			if err != nil {
				t.Fatalf("queued-cancel candidate: %v", err)
			}
			// Saturation must fast-reject, not block or deadlock.
			if _, err := serve.Do(sub, nil, func() (int, error) { return 0, nil }, serve.Req{NonBlocking: true}); !errors.Is(err, serve.ErrSaturated) {
				t.Fatalf("TrySubmit on full queue = %v, want ErrSaturated", err)
			}
			// A blocking Submit stuck on the full queue honors its
			// context.
			ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
			defer cancel()
			if _, err := serve.Do(sub, ctx, func() (int, error) { return 0, nil }, serve.Req{}); !errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("blocked Submit = %v, want DeadlineExceeded", err)
			}
			// A queued request whose context dies before launch resolves
			// to its context error once a freed slot reaches it.
			qcancel()
			close(release)
			if _, werr := f.Wait(context.Background()); !errors.Is(werr, context.Canceled) {
				t.Fatalf("queued-cancel wait err = %v, want context.Canceled", werr)
			}
		})
	}
}
