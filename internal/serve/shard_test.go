package serve

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"
)

// fixedRouter always picks one shard — the deterministic stand-in for
// re-route and spread tests.
type fixedRouter int

func (fixedRouter) Name() string                  { return "fixed" }
func (f fixedRouter) Pick(int, func(int) int) int { return int(f) }

func TestShardedServerSpreadsRoundRobin(t *testing.T) {
	s := MustNew(Options{
		Backend: "go", Threads: 1, Shards: 2,
		Router: &RoundRobin{}, QueueDepth: 256,
	})
	defer s.Close()
	sub := s.Submitter()
	const n = 100
	futs := make([]*Future[int], 0, n)
	for i := 0; i < n; i++ {
		f, err := Do(sub, context.Background(), func() (int, error) { return i, nil }, Req{})
		if err != nil {
			t.Fatal(err)
		}
		futs = append(futs, f)
	}
	for i, f := range futs {
		if v, err := f.Wait(context.Background()); err != nil || v != i {
			t.Fatalf("future %d = (%v, %v)", i, v, err)
		}
	}
	sm := s.ShardMetrics()
	if len(sm) != 2 {
		t.Fatalf("ShardMetrics len = %d, want 2", len(sm))
	}
	// Round-robin with never-full queues is an exact 50/50 split.
	if sm[0].Submitted != n/2 || sm[1].Submitted != n/2 {
		t.Fatalf("round-robin split = %d/%d, want %d/%d",
			sm[0].Submitted, sm[1].Submitted, n/2, n/2)
	}
	for i, m := range sm {
		if m.Shard != i || m.Shards != 2 || m.Router != "roundrobin" {
			t.Fatalf("shard %d metrics labels = %+v", i, m)
		}
	}
	agg := s.Metrics()
	if agg.Shard != -1 || agg.Submitted != n || agg.Completed != n {
		t.Fatalf("aggregate = shard %d, submitted %d, completed %d", agg.Shard, agg.Submitted, agg.Completed)
	}
}

// TestAggregateSumsShards pins Metrics() == sum over ShardMetrics() for
// every counter.
func TestAggregateSumsShards(t *testing.T) {
	s := MustNew(Options{
		Backend: "go", Threads: 1, Shards: 4,
		Router: &RoundRobin{}, QueueDepth: 64,
	})
	defer s.Close()
	sub := s.Submitter()
	boom := errors.New("boom")
	for i := 0; i < 40; i++ {
		var f *Future[int]
		var err error
		switch i % 3 {
		case 0:
			f, err = Do(sub, context.Background(), func() (int, error) { return i, nil }, Req{})
		case 1:
			f, err = Do(sub, context.Background(), func() (int, error) { return 0, boom }, Req{})
		default:
			f, err = Do(sub, context.Background(), func() (int, error) { panic("pow") }, Req{})
		}
		if err != nil {
			t.Fatal(err)
		}
		f.Wait(context.Background())
	}
	agg := s.Metrics()
	var sub2, comp, fail, pan uint64
	for _, m := range s.ShardMetrics() {
		sub2 += m.Submitted
		comp += m.Completed
		fail += m.Failed
		pan += m.Panicked
	}
	if agg.Submitted != sub2 || agg.Completed != comp || agg.Failed != fail || agg.Panicked != pan {
		t.Fatalf("aggregate %+v != shard sums (%d, %d, %d, %d)", agg, sub2, comp, fail, pan)
	}
	if agg.Submitted != 40 || agg.Failed != 13 || agg.Panicked != 13 {
		t.Fatalf("counters = %d submitted, %d failed, %d panicked", agg.Submitted, agg.Failed, agg.Panicked)
	}
}

// TestKeyedAffinityStable hammers SubmitKeyed with 10k requests over a
// handful of keys and verifies every one of them landed on the shard
// the key hashes to — per-shard submitted counters must match the
// per-key totals exactly.
func TestKeyedAffinityStable(t *testing.T) {
	const shards = 4
	s := MustNew(Options{
		Backend: "go", Threads: 1, Shards: shards, QueueDepth: 1024,
	})
	defer s.Close()
	sub := s.Submitter()
	keys := []string{"alice", "bob", "carol", "dave", "erin", "frank", "grace", "heidi"}
	want := make([]uint64, shards)
	const total = 10_000
	futs := make([]*Future[int], 0, total)
	for i := 0; i < total; i++ {
		key := keys[i%len(keys)]
		want[s.ShardOf(key)]++
		f, err := Do(sub, context.Background(), func() (int, error) { return i, nil }, Req{Key: key})
		if err != nil {
			t.Fatal(err)
		}
		futs = append(futs, f)
	}
	for i, f := range futs {
		if v, err := f.Wait(context.Background()); err != nil || v != i {
			t.Fatalf("keyed future %d = (%v, %v)", i, v, err)
		}
	}
	for i, m := range s.ShardMetrics() {
		if m.Submitted != want[i] {
			t.Fatalf("shard %d saw %d keyed submissions, want %d", i, m.Submitted, want[i])
		}
	}
}

// TestReRouteOnSaturation is the two-level admission contract: when the
// router's pick is full, one unkeyed TrySubmit re-routes to the
// least-loaded shard before ErrSaturated surfaces — and a keyed
// TrySubmit never does.
func TestReRouteOnSaturation(t *testing.T) {
	// The router always targets shard 0; shard 1 stays empty.
	s := MustNew(Options{
		Backend: "go", Threads: 1, Shards: 2,
		Router: fixedRouter(0), QueueDepth: 1, MaxInFlight: 1,
	})
	sub := s.Submitter()
	started := make(chan struct{})
	release := make(chan struct{})
	defer func() { s.Close() }()
	// Occupy shard 0's in-flight slot, then its single queue slot.
	if _, err := Do(sub, context.Background(), func() (int, error) {
		close(started)
		<-release
		return 0, nil
	}, Req{}); err != nil {
		t.Fatal(err)
	}
	<-started
	if _, err := Do(sub, nil, func() (int, error) { return 0, nil }, Req{NonBlocking: true}); err != nil {
		t.Fatalf("fill shard 0 queue: %v", err)
	}
	// Shard 0 is saturated; the re-route must land this one on shard 1.
	f, err := Do(sub, nil, func() (int, error) { return 42, nil }, Req{NonBlocking: true})
	if err != nil {
		t.Fatalf("TrySubmit with shard 0 full = %v, want re-route to shard 1", err)
	}
	if v := f.MustWait(); v != 42 {
		t.Fatalf("re-routed result = %d", v)
	}
	if sm := s.ShardMetrics(); sm[1].Submitted == 0 {
		t.Fatal("re-routed request did not land on shard 1")
	}
	// A keyed submission pinned to the saturated shard must NOT
	// re-route: affinity is the contract.
	pinned := ""
	for _, k := range []string{"a", "b", "c", "d", "e", "f", "g", "h"} {
		if s.ShardOf(k) == 0 {
			pinned = k
			break
		}
	}
	if pinned == "" {
		t.Fatal("no test key hashes to shard 0")
	}
	if _, err := Do(sub, nil, func() (int, error) { return 0, nil }, Req{Key: pinned, NonBlocking: true}); !errors.Is(err, ErrSaturated) {
		t.Fatalf("keyed TrySubmit on full pinned shard = %v, want ErrSaturated", err)
	}
	// Saturate shard 1 as well: now the re-route is exhausted too.
	occupied := make(chan struct{})
	release2 := make(chan struct{})
	defer close(release2)
	if _, err := Do(sub, nil, func() (int, error) {
		close(occupied)
		<-release2
		return 0, nil
	}, Req{NonBlocking: true}); err != nil {
		t.Fatalf("occupy shard 1: %v", err)
	}
	<-occupied
	if _, err := Do(sub, nil, func() (int, error) { return 0, nil }, Req{NonBlocking: true}); err != nil {
		t.Fatalf("fill shard 1 queue: %v", err)
	}
	if _, err := Do(sub, nil, func() (int, error) { return 0, nil }, Req{NonBlocking: true}); !errors.Is(err, ErrSaturated) {
		t.Fatalf("TrySubmit with every shard full = %v, want ErrSaturated", err)
	}
	if s.Metrics().Saturated == 0 {
		t.Fatal("Saturated counter not bumped")
	}
	close(release)
}

// TestCloseVsSubmitRace is the regression for the drain rewrite: Close
// racing concurrent blocking and non-blocking submits must leave no
// accepted Future unresolved and no producer blocked — every submission
// either errors at the call or resolves. Run under -race in CI.
func TestCloseVsSubmitRace(t *testing.T) {
	for round := 0; round < 25; round++ {
		s := MustNew(Options{
			Backend: "go", Threads: 1, Shards: 2,
			QueueDepth: 8, MaxInFlight: 4,
		})
		sub := s.Submitter()
		var mu sync.Mutex
		var accepted []*Future[int]
		var wg sync.WaitGroup
		stop := make(chan struct{})
		for p := 0; p < 4; p++ {
			wg.Add(1)
			go func(p int) {
				defer wg.Done()
				for i := 0; ; i++ {
					select {
					case <-stop:
						return
					default:
					}
					var f *Future[int]
					var err error
					switch i % 3 {
					case 0:
						f, err = Do(sub, nil, func() (int, error) { return i, nil }, Req{NonBlocking: true})
					case 1:
						f, err = Do(sub, context.Background(), func() (int, error) { return i, nil }, Req{})
					default:
						f, err = Do(sub, context.Background(), func() (int, error) { return i, nil }, Req{Key: "key"})
					}
					if err != nil {
						if errors.Is(err, ErrClosed) {
							return // server closed mid-race: the expected exit
						}
						if errors.Is(err, ErrSaturated) {
							continue
						}
						t.Errorf("submit: %v", err)
						return
					}
					mu.Lock()
					accepted = append(accepted, f)
					mu.Unlock()
				}
			}(p)
		}
		// Let the producers get going, then slam the door.
		time.Sleep(time.Duration(round%5) * 100 * time.Microsecond)
		s.Close()
		close(stop)
		wg.Wait()
		// Every accepted Future must resolve — to a value or ErrClosed —
		// without hanging.
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		for i, f := range accepted {
			if _, err := f.Wait(ctx); err != nil && !errors.Is(err, ErrClosed) {
				t.Fatalf("round %d: future %d resolved to %v", round, i, err)
			}
			if !f.Ready() {
				t.Fatalf("round %d: future %d not resolved after Close", round, i)
			}
		}
		cancel()
	}
}

// TestDrainTimeout: past the deadline, queued-but-unlaunched requests
// resolve to ErrClosed instead of running, while launched work still
// completes.
func TestDrainTimeout(t *testing.T) {
	s := MustNew(Options{
		Backend: "go", Threads: 1, Shards: 1,
		QueueDepth: 16, MaxInFlight: 1,
		DrainTimeout: 30 * time.Millisecond,
	})
	sub := s.Submitter()
	started := make(chan struct{})
	release := make(chan struct{})
	running, err := Do(sub, context.Background(), func() (int, error) {
		close(started)
		<-release
		return 7, nil
	}, Req{})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	// These five sit in the queue behind the blocked in-flight slot.
	queued := make([]*Future[int], 5)
	for i := range queued {
		f, err := Do(sub, nil, func() (int, error) { return i, nil }, Req{NonBlocking: true})
		if err != nil {
			t.Fatal(err)
		}
		queued[i] = f
	}
	closed := make(chan struct{})
	go func() { s.Close(); close(closed) }()
	// The drain deadline passes while the gate is held: the queued
	// requests must resolve to ErrClosed without running.
	for i, f := range queued {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		_, werr := f.Wait(ctx)
		cancel()
		if !errors.Is(werr, ErrClosed) {
			t.Fatalf("queued future %d past drain deadline = %v, want ErrClosed", i, werr)
		}
	}
	// The in-flight request always runs to completion.
	close(release)
	if v := running.MustWait(); v != 7 {
		t.Fatalf("in-flight result = %d", v)
	}
	<-closed
	if m := s.Metrics(); m.Rejected != 5 || m.Completed != 1 {
		t.Fatalf("rejected=%d completed=%d, want 5/1", m.Rejected, m.Completed)
	}
}

// TestKeyedBlockingParksOnPinnedShard: a blocking keyed submit waits on
// its pinned shard rather than escaping to an emptier one, and
// completes once the shard frees up.
func TestKeyedBlockingParksOnPinnedShard(t *testing.T) {
	s := MustNew(Options{
		Backend: "go", Threads: 1, Shards: 2,
		Router: fixedRouter(0), QueueDepth: 1, MaxInFlight: 1,
	})
	defer s.Close()
	sub := s.Submitter()
	key := ""
	for _, k := range []string{"a", "b", "c", "d", "e", "f"} {
		if s.ShardOf(k) == 0 {
			key = k
			break
		}
	}
	if key == "" {
		t.Fatal("no test key hashes to shard 0")
	}
	started := make(chan struct{})
	release := make(chan struct{})
	if _, err := Do(sub, context.Background(), func() (int, error) {
		close(started)
		<-release
		return 0, nil
	}, Req{Key: key}); err != nil {
		t.Fatal(err)
	}
	<-started
	if _, err := Do(sub, nil, func() (int, error) { return 0, nil }, Req{Key: key, NonBlocking: true}); err != nil {
		t.Fatalf("fill pinned queue: %v", err)
	}
	// Blocking keyed submit must park (shard 1 is empty and must not be
	// used) until the pinned shard drains.
	done := make(chan *Future[int], 1)
	go func() {
		f, err := Do(sub, context.Background(), func() (int, error) { return 5, nil }, Req{Key: key})
		if err != nil {
			t.Errorf("blocking keyed submit: %v", err)
			done <- nil
			return
		}
		done <- f
	}()
	select {
	case <-done:
		t.Fatal("blocking keyed submit returned while pinned shard was full")
	case <-time.After(20 * time.Millisecond):
	}
	close(release)
	f := <-done
	if f == nil {
		t.FailNow()
	}
	if v := f.MustWait(); v != 5 {
		t.Fatalf("parked keyed result = %d", v)
	}
	if sm := s.ShardMetrics(); sm[1].Submitted != 0 {
		t.Fatalf("keyed traffic leaked to shard 1: %d submissions", sm[1].Submitted)
	}
}
