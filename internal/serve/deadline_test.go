package serve

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
)

// TestDeadlineShedsQueuedRequest pins the tentpole's queue-shed path:
// a request whose budget runs out while it waits behind a blocked
// executor resolves ErrExpired without running, counted once in
// Expired.
func TestDeadlineShedsQueuedRequest(t *testing.T) {
	s, sub, started, release := gated(t)
	defer s.Close()
	if _, err := Do(sub, context.Background(), func() (int, error) {
		close(started)
		<-release
		return 0, nil
	}, Req{}); err != nil {
		t.Fatal(err)
	}
	<-started
	var ran atomic.Bool
	f, err := Do(sub, nil, func() (int, error) {
		ran.Store(true)
		return 7, nil
	}, Req{Deadline: time.Now().Add(20 * time.Millisecond), NonBlocking: true})
	if err != nil {
		t.Fatal(err) // queue has room: accepted, but cannot launch yet
	}
	time.Sleep(30 * time.Millisecond)
	close(release) // the freed slot launches it and sees the spent budget
	if _, werr := f.Wait(context.Background()); !errors.Is(werr, ErrExpired) {
		t.Fatalf("expired queued request = %v, want ErrExpired", werr)
	}
	if ran.Load() {
		t.Fatal("expired request body ran anyway")
	}
	if got := s.Metrics().Expired; got != 1 {
		t.Fatalf("Expired = %d, want 1", got)
	}
}

// TestDeadlineFutureStillLaunches pins the complement: a request whose
// budget has room launches normally and Expired stays zero.
func TestDeadlineFutureStillLaunches(t *testing.T) {
	s := MustNew(Options{Backend: "go", Threads: 1, Shards: 1})
	defer s.Close()
	f, err := Do(s.Submitter(), nil, func() (int, error) { return 9, nil }, Req{Deadline: time.Now().Add(time.Minute), NonBlocking: true})
	if err != nil {
		t.Fatal(err)
	}
	if v, err := f.Wait(context.Background()); err != nil || v != 9 {
		t.Fatalf("Wait = (%v, %v), want (9, nil)", v, err)
	}
	if got := s.Metrics().Expired; got != 0 {
		t.Fatalf("Expired = %d, want 0", got)
	}
}

// TestRunningHandlerSleepCancels pins the tentpole's cooperative-
// cancellation path: a launched ULT handler parked in core.Sleep wakes
// early with ErrCanceled when its deadline passes, instead of sleeping
// out a budget nobody is waiting for.
func TestRunningHandlerSleepCancels(t *testing.T) {
	s := MustNew(Options{Backend: "go", Threads: 1, Shards: 1})
	defer s.Close()
	f, err := DoULT(s.Submitter(), context.Background(), func(c core.Ctx) (time.Duration, error) {
		t0 := time.Now()
		if err := core.Sleep(c, 30*time.Second); err != core.ErrCanceled {
			return 0, errors.New("Sleep returned without cancellation")
		}
		return time.Since(t0), nil
	}, Req{Deadline: time.Now().Add(30 * time.Millisecond)})
	if err != nil {
		t.Fatal(err)
	}
	slept, err := f.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if slept > 5*time.Second {
		t.Fatalf("handler slept %v past its 30ms budget", slept)
	}
}

// TestRunningHandlerCtxCancelWakesAwait is the same early wake driven
// by the submission context rather than a deadline, through AwaitIO.
func TestRunningHandlerCtxCancelWakesAwait(t *testing.T) {
	s := MustNew(Options{Backend: "go", Threads: 1, Shards: 1})
	defer s.Close()
	ctx, cancel := context.WithCancel(context.Background())
	started := make(chan struct{})
	never := make(chan struct{})
	f, err := DoULT(s.Submitter(), ctx, func(c core.Ctx) (int, error) {
		close(started)
		if err := core.AwaitIO(c, never); err != core.ErrCanceled {
			return 0, errors.New("AwaitIO returned without cancellation")
		}
		return 1, nil
	}, Req{})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	cancel()
	if v, err := f.Wait(context.Background()); err != nil || v != 1 {
		t.Fatalf("Wait = (%v, %v), want (1, nil)", v, err)
	}
}

// TestCanceledHelperVisible pins the handler-facing select surface:
// core.Canceled(c) returns a live channel that closes when the budget
// is gone.
func TestCanceledHelperVisible(t *testing.T) {
	s := MustNew(Options{Backend: "go", Threads: 1, Shards: 1})
	defer s.Close()
	f, err := DoULT(s.Submitter(), context.Background(), func(c core.Ctx) (bool, error) {
		ch := core.Canceled(c)
		if ch == nil {
			return false, errors.New("Canceled(c) = nil on a deadlined request")
		}
		select {
		case <-ch:
			return true, nil
		case <-time.After(30 * time.Second):
			return false, nil
		}
	}, Req{Deadline: time.Now().Add(20 * time.Millisecond)})
	if err != nil {
		t.Fatal(err)
	}
	if fired, err := f.Wait(context.Background()); err != nil || !fired {
		t.Fatalf("Wait = (%v, %v), want (true, nil)", fired, err)
	}
}

// TestDrainIdentityWithExpiry closes a server holding a mix of
// completed, expired, and never-launched requests, then checks the
// extended drain identity: Submitted == Completed + Rejected + Expired
// — every accepted Future resolved through exactly one of the three.
func TestDrainIdentityWithExpiry(t *testing.T) {
	s, err := New(Options{
		Backend: "go", Threads: 1, Shards: 1,
		QueueDepth: 64, MaxInFlight: 1,
		DrainTimeout: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	sub := s.Submitter()
	started := make(chan struct{})
	release := make(chan struct{})
	if _, err := Do(sub, context.Background(), func() (int, error) {
		close(started)
		<-release
		return 0, nil
	}, Req{}); err != nil {
		t.Fatal(err)
	}
	<-started
	futures := make([]*Future[int], 0, 32)
	for i := 0; i < 32; i++ {
		var f *Future[int]
		var err error
		if i%2 == 0 {
			f, err = Do(sub, nil, func() (int, error) { return i, nil }, Req{Deadline: time.Now().Add(10 * time.Millisecond), NonBlocking: true})
		} else {
			f, err = Do(sub, nil, func() (int, error) { return i, nil }, Req{NonBlocking: true})
		}
		if err != nil {
			t.Fatal(err)
		}
		futures = append(futures, f)
	}
	time.Sleep(20 * time.Millisecond) // even-indexed budgets expire in queue
	close(release)
	s.Close()
	for _, f := range futures {
		if !f.Ready() {
			t.Fatal("drain left a Future unresolved")
		}
	}
	m := s.Metrics()
	if m.Submitted != m.Completed+m.Rejected+m.Expired {
		t.Fatalf("identity broken: Submitted=%d Completed=%d Rejected=%d Expired=%d",
			m.Submitted, m.Completed, m.Rejected, m.Expired)
	}
	if m.Expired == 0 {
		t.Fatal("no request expired; the scenario did not exercise the shed path")
	}
}

// TestAbandonedWaitLateCompletion is the -race satellite: a Future.Wait
// abandoned via context cancellation followed by the request's late
// completion must neither leak nor panic, the Future must stay
// waitable, and the expired/cancelled accounting must move exactly
// once per request. Hammer-shaped so the race detector sees many
// interleavings of abandon vs complete.
func TestAbandonedWaitLateCompletion(t *testing.T) {
	s := MustNew(Options{Backend: "go", Threads: 2, Shards: 2, QueueDepth: 256})
	defer s.Close()
	sub := s.Submitter()
	const n = 200
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			release := make(chan struct{})
			f, err := Do(sub, context.Background(), func() (int, error) {
				<-release
				return i, nil
			}, Req{})
			if err != nil {
				t.Error(err)
				return
			}
			ctx, cancel := context.WithCancel(context.Background())
			abandoned := make(chan struct{})
			go func() {
				defer close(abandoned)
				if _, err := f.Wait(ctx); !errors.Is(err, context.Canceled) {
					t.Errorf("abandoned Wait = %v, want context.Canceled", err)
				}
			}()
			cancel()
			<-abandoned
			close(release) // late completion after the waiter left
			if v, err := f.Wait(context.Background()); err != nil || v != i {
				t.Errorf("re-Wait = (%v, %v), want (%d, nil)", v, err, i)
			}
		}(i)
	}
	wg.Wait()
	m := s.Metrics()
	if m.Submitted != uint64(n) || m.Completed != uint64(n) {
		t.Fatalf("Submitted=%d Completed=%d, want both %d", m.Submitted, m.Completed, n)
	}
	if m.Expired != 0 || m.Canceled != 0 {
		t.Fatalf("Expired=%d Canceled=%d, want 0: abandoning a Wait must not touch request accounting",
			m.Expired, m.Canceled)
	}
}
