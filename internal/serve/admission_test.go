package serve

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// watchdog bounds a test step that hangs on a lost admission wakeup:
// step runs on its own goroutine and the test fails, naming what, if it
// has not returned within 30 s.
func watchdog(t *testing.T, what string, step func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		step()
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatalf("watchdog: %s hung (lost admission wakeup?)", what)
	}
}

// fullShard starts a one-shard server with n queue slots and n
// executor slots (QueueDepth = MaxInFlight = n), all taken by bodies
// parked on the returned gate: the next blocking Do parks on admission.
// Each send on the gate lets one gated body finish; closing it lets all
// of them.
func fullShard(t *testing.T, n int) (*Server, *shard, chan struct{}, func() (int, error)) {
	t.Helper()
	s := MustNew(Options{Backend: "go", Shards: 1, Threads: 1, QueueDepth: n, MaxInFlight: n})
	sh := s.baseShards[0]
	gate := make(chan struct{})
	body := func() (int, error) {
		<-gate
		return 1, nil
	}
	sub := s.Submitter()
	for i := 0; i < n; i++ {
		if _, err := Do(sub, context.Background(), body, Req{}); err != nil {
			t.Fatal(err)
		}
	}
	watchdog(t, "first launches", func() {
		for sh.inflight.Load() != int64(n) {
			time.Sleep(time.Millisecond)
		}
	})
	for i := 0; i < n; i++ {
		if _, err := Do(sub, context.Background(), body, Req{NonBlocking: true}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := Do(sub, context.Background(), body, Req{NonBlocking: true}); !errors.Is(err, ErrSaturated) {
		t.Fatalf("submission past a full shard = %v, want ErrSaturated", err)
	}
	return s, sh, gate, body
}

// awaitWaiters blocks until n producers are parked on sh's admission.
func awaitWaiters(t *testing.T, sh *shard, n int64) {
	t.Helper()
	watchdog(t, fmt.Sprintf("%d producers parking", n), func() {
		for sh.waiters.Load() != n {
			time.Sleep(time.Millisecond)
		}
	})
}

// checkDrain closes s and asserts the drain identity.
func checkDrain(t *testing.T, s *Server) {
	t.Helper()
	watchdog(t, "Close", s.Close)
	m := s.Metrics()
	if m.Submitted != m.Completed+m.Rejected+m.Expired {
		t.Fatalf("drain identity broken: submitted=%d completed=%d rejected=%d expired=%d",
			m.Submitted, m.Completed, m.Rejected, m.Expired)
	}
}

// TestAdmissionWakesAllBlockedProducers parks 32 producers on a full
// shard and opens the gate: every one of them must be admitted and
// resolve, although each pop signals at most one waiter.
func TestAdmissionWakesAllBlockedProducers(t *testing.T) {
	s, sh, gate, body := fullShard(t, 1)
	sub := s.Submitter()
	const producers = 32
	futs := make(chan *Future[int], producers)
	for i := 0; i < producers; i++ {
		go func() {
			f, err := Do(sub, context.Background(), body, Req{})
			if err != nil {
				t.Errorf("blocked Do: %v", err)
			}
			futs <- f
		}()
	}
	awaitWaiters(t, sh, producers)
	close(gate)
	watchdog(t, "32 blocked producers", func() {
		for i := 0; i < producers; i++ {
			if f := <-futs; f != nil {
				if v := f.MustWait(); v != 1 {
					t.Errorf("future = %d, want 1", v)
				}
			}
		}
	})
	if n := sh.waiters.Load(); n != 0 {
		t.Fatalf("waiters = %d after every producer was admitted", n)
	}
	checkDrain(t, s)
}

// TestAdmissionCancelledWaiterPassesOn cancels one of two parked
// producers; the one slot freed afterwards must admit the other.
func TestAdmissionCancelledWaiterPassesOn(t *testing.T) {
	s, sh, gate, body := fullShard(t, 1)
	sub := s.Submitter()
	ctx, cancel := context.WithCancel(context.Background())
	first := make(chan error, 1)
	go func() {
		_, err := Do(sub, ctx, body, Req{})
		first <- err
	}()
	awaitWaiters(t, sh, 1)
	second := make(chan *Future[int], 1)
	go func() {
		f, err := Do(sub, context.Background(), body, Req{})
		if err != nil {
			t.Errorf("second waiter: %v", err)
		}
		second <- f
	}()
	awaitWaiters(t, sh, 2)
	cancel()
	watchdog(t, "cancelled waiter", func() {
		if err := <-first; !errors.Is(err, context.Canceled) {
			t.Errorf("cancelled waiter = %v, want context.Canceled", err)
		}
	})
	gate <- struct{}{} // one body finishes: one slot frees
	var f *Future[int]
	watchdog(t, "second waiter after one freed slot", func() { f = <-second })
	close(gate)
	if f != nil && f.MustWait() != 1 {
		t.Fatal("second waiter's future resolved wrong")
	}
	checkDrain(t, s)
}

// TestAdmissionBurstOfPopsAdmitsEveryWaiter frees two slots back to
// back under two parked producers, the way the pump's batch drain or a
// thief's steal pops, while the executor slot stays taken so nothing
// else pops: both producers must be admitted. A wake sent while a
// producer is blocked on space is handed to it directly; the two wakes
// collapse into the one-slot channel only when the producers are
// between counting in and blocking, and then only the admitted one
// passing the wake on reaches the other.
func TestAdmissionBurstOfPopsAdmitsEveryWaiter(t *testing.T) {
	s := MustNew(Options{Backend: "go", Shards: 1, Threads: 1, QueueDepth: 2, MaxInFlight: 1})
	sh := s.baseShards[0]
	sub := s.Submitter()
	gate := make(chan struct{})
	body := func() (int, error) {
		<-gate
		return 1, nil
	}
	if _, err := Do(sub, context.Background(), body, Req{}); err != nil {
		t.Fatal(err)
	}
	watchdog(t, "first launch", func() {
		for sh.inflight.Load() != 1 {
			time.Sleep(time.Millisecond)
		}
	})
	for i := 0; i < 2; i++ {
		if _, err := Do(sub, context.Background(), body, Req{NonBlocking: true}); err != nil {
			t.Fatal(err)
		}
	}
	const producers = 2
	futs := make(chan *Future[int], producers)
	for i := 0; i < producers; i++ {
		go func() {
			f, err := Do(sub, context.Background(), body, Req{})
			if err != nil {
				t.Errorf("blocked Do: %v", err)
			}
			futs <- f
		}()
	}
	awaitWaiters(t, sh, producers)
	// Take both queued requests off the shard in one burst and shed
	// them as a drain past its deadline would.
	for _, r := range []*request{<-sh.unkeyed, <-sh.unkeyed} {
		sh.pop()
		sh.m.rejected.Add(1)
		r.w.fail(ErrClosed)
	}
	var fs []*Future[int]
	watchdog(t, "second producer after two back-to-back pops", func() {
		for i := 0; i < producers; i++ {
			fs = append(fs, <-futs)
		}
	})
	close(gate)
	for _, f := range fs {
		if f != nil && f.MustWait() != 1 {
			t.Fatal("admitted producer's future resolved wrong")
		}
	}
	checkDrain(t, s)
}

// TestAdmissionCloseRejectsBlockedProducers closes the server under
// parked producers: every one returns ErrClosed.
func TestAdmissionCloseRejectsBlockedProducers(t *testing.T) {
	s, sh, gate, body := fullShard(t, 1)
	sub := s.Submitter()
	const producers = 8
	errs := make(chan error, producers)
	for i := 0; i < producers; i++ {
		go func() {
			_, err := Do(sub, context.Background(), body, Req{})
			errs <- err
		}()
	}
	awaitWaiters(t, sh, producers)
	closed := make(chan struct{})
	go func() {
		defer close(closed)
		s.Close()
	}()
	watchdog(t, "blocked producers at Close", func() {
		for i := 0; i < producers; i++ {
			if err := <-errs; !errors.Is(err, ErrClosed) {
				t.Errorf("blocked producer at Close = %v, want ErrClosed", err)
			}
		}
	})
	close(gate)
	watchdog(t, "Close", func() { <-closed })
	checkDrain(t, s)
}

// TestSnapshotQueueDepthInBounds samples Snapshot every millisecond
// under mixed keyed and unkeyed load with stealing on: the per-shard
// QueueDepth gauge must stay in [0, Options.QueueDepth] on every
// sample, and the drain identity must hold at Close.
func TestSnapshotQueueDepthInBounds(t *testing.T) {
	const depth = 8
	s := MustNew(Options{
		Backend: "go", Shards: 3, Threads: 1,
		QueueDepth: depth, MaxInFlight: 2, Steal: true,
	})
	sub := s.Submitter()
	var stop atomic.Bool
	sampled := make(chan int)
	go func() {
		n := 0
		for !stop.Load() {
			_, per := s.Snapshot()
			for _, m := range per {
				if m.QueueDepth < 0 || m.QueueDepth > depth {
					t.Errorf("shard %d QueueDepth = %d, want in [0, %d]", m.Shard, m.QueueDepth, depth)
				}
			}
			n++
			time.Sleep(time.Millisecond)
		}
		sampled <- n
	}()
	var wg sync.WaitGroup
	for p := 0; p < 4; p++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 1500; i++ {
				req := Req{NonBlocking: i%3 == 0}
				if i%2 == 0 {
					req.Key = fmt.Sprintf("k%d", rng.Intn(16))
				}
				d := time.Duration(rng.Intn(50)) * time.Microsecond
				_, err := Do(sub, context.Background(), func() (int, error) {
					time.Sleep(d)
					return i, nil
				}, req)
				if err != nil && !errors.Is(err, ErrSaturated) {
					t.Errorf("Do: %v", err)
					return
				}
			}
		}(int64(p))
	}
	watchdog(t, "producers", wg.Wait)
	stop.Store(true)
	if n := <-sampled; n == 0 {
		t.Fatal("no snapshot taken")
	}
	checkDrain(t, s)
}
