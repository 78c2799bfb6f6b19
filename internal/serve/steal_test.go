package serve

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"
)

// keyFor finds an affinity key that ShardOf pins to the wanted shard.
func keyFor(t *testing.T, s *Server, shard int) string {
	t.Helper()
	for i := 0; i < 1<<16; i++ {
		k := fmt.Sprintf("key-%d", i)
		if s.ShardOf(k) == shard {
			return k
		}
	}
	t.Fatalf("no key hashes to shard %d", shard)
	return ""
}

// TestStealRescuesUnkeyedBacklog is the steal contract, deterministically:
// shard 0's single executor is blocked by a keyed gate request, unkeyed
// requests forced onto shard 0 pile up behind it, and the idle shard 1
// must steal and complete that backlog — while the keyed requests queued
// behind the same gate provably never move: they cannot complete until
// the gate releases shard 0's executor, because no other shard may touch
// them.
func TestStealRescuesUnkeyedBacklog(t *testing.T) {
	s := MustNew(Options{
		Backend: "go", Threads: 1, Shards: 2,
		Router: fixedRouter(0), QueueDepth: 64, MaxInFlight: 1,
		Steal: true,
	})
	sub := s.Submitter()
	key := keyFor(t, s, 0)

	started := make(chan struct{})
	release := make(chan struct{})
	gate, err := Do(sub, context.Background(), func() (int, error) {
		close(started)
		<-release
		return -1, nil
	}, Req{Key: key}) // keyed: unstealable, so it pins shard 0's executor
	if err != nil {
		t.Fatal(err)
	}
	<-started // shard 0's only in-flight slot is now occupied

	// Keyed requests behind the gate: same key, same shard, and only
	// shard 0's pump may launch them.
	var keyed []*Future[int]
	for i := 0; i < 3; i++ {
		f, err := Do(sub, nil, func() (int, error) { return i, nil },
			Req{Key: key, NonBlocking: true})
		if err != nil {
			t.Fatalf("keyed %d: %v", i, err)
		}
		keyed = append(keyed, f)
	}
	// Unkeyed backlog, all routed onto the blocked shard 0.
	const backlog = 8
	var unkeyed []*Future[int]
	for i := 0; i < backlog; i++ {
		f, err := Do(sub, nil, func() (int, error) { return i, nil },
			Req{NonBlocking: true})
		if err != nil {
			t.Fatalf("unkeyed %d: %v", i, err)
		}
		unkeyed = append(unkeyed, f)
	}

	// With shard 0 blocked, only stealing can complete the unkeyed
	// backlog.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for i, f := range unkeyed {
		if _, err := f.Wait(ctx); err != nil {
			t.Fatalf("unkeyed %d not rescued by steal: %v", i, err)
		}
	}
	// The keyed requests must still be waiting: the gate still holds
	// shard 0's executor, and no thief may drain a keyed queue.
	for i, f := range keyed {
		if f.Ready() {
			t.Fatalf("keyed request %d completed while its shard was blocked — affinity violated", i)
		}
	}
	for _, m := range s.ShardMetrics() {
		if m.Shard == 1 && m.Steals == 0 {
			t.Fatal("shard 1 reports zero steals after rescuing the backlog")
		}
	}

	close(release)
	if v, err := gate.Wait(ctx); err != nil || v != -1 {
		t.Fatalf("gate = %v, %v", v, err)
	}
	for i, f := range keyed {
		if _, err := f.Wait(ctx); err != nil {
			t.Fatalf("keyed %d after release: %v", i, err)
		}
	}
	s.Close()

	agg, per := s.Snapshot()
	// Stolen requests count Submitted at the accepting shard and
	// Completed at the thief, so shard 1 — which accepted nothing — must
	// show exactly its steals as completions.
	for _, m := range per {
		if m.Shard != 1 {
			continue
		}
		if m.Submitted != 0 {
			t.Fatalf("shard 1 Submitted = %d, want 0 (fixed router + keyed pin)", m.Submitted)
		}
		if m.Steals != backlog {
			t.Fatalf("shard 1 Steals = %d, want %d", m.Steals, backlog)
		}
		if m.Completed != m.Steals {
			t.Fatalf("shard 1 Completed = %d, want its %d steals", m.Completed, m.Steals)
		}
	}
	if agg.Steals != backlog {
		t.Fatalf("aggregate Steals = %d, want %d", agg.Steals, backlog)
	}
	if agg.Submitted != agg.Completed+agg.Rejected+agg.Expired {
		t.Fatalf("drain identity broken under stealing: submitted=%d completed=%d rejected=%d expired=%d",
			agg.Submitted, agg.Completed, agg.Rejected, agg.Expired)
	}
}

// TestStealZipfSkewDrainIdentity hammers a stealing pool with the
// skewed open-loop shape the adaptive runtime exists for — zipf-keyed
// session traffic concentrating on a few hot shards, unkeyed traffic
// forced onto shard 0 — from concurrent producers, and checks that the
// drain identity holds exactly across the whole pool afterwards. Run
// under -race this is the steal path's memory-model test.
func TestStealZipfSkewDrainIdentity(t *testing.T) {
	s := MustNew(Options{
		Backend: "go", Threads: 1, Shards: 4,
		Router: fixedRouter(0), QueueDepth: 128, MaxInFlight: 2,
		Steal: true,
	})
	sub := s.Submitter()

	const producers = 4
	const perProducer = 250
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			zipf := rand.NewZipf(rng, 1.5, 1, 63)
			for i := 0; i < perProducer; i++ {
				req := Req{}
				if i%2 == 0 {
					req.Key = fmt.Sprintf("sess-%d", zipf.Uint64())
				}
				f, err := Do(sub, context.Background(), func() (int, error) {
					time.Sleep(50 * time.Microsecond)
					return i, nil
				}, req)
				if err != nil {
					t.Errorf("submit: %v", err)
					return
				}
				if i%16 == 0 { // occasionally close the loop
					f.MustWait()
				}
			}
		}(int64(p))
	}
	wg.Wait()
	s.Close()

	agg, _ := s.Snapshot()
	if want := uint64(producers * perProducer); agg.Submitted != want {
		t.Fatalf("Submitted = %d, want %d", agg.Submitted, want)
	}
	if agg.Submitted != agg.Completed+agg.Rejected+agg.Expired {
		t.Fatalf("drain identity broken: submitted=%d completed=%d rejected=%d expired=%d",
			agg.Submitted, agg.Completed, agg.Rejected, agg.Expired)
	}
	// All unkeyed traffic targets shard 0 while its executor sleeps, so
	// the other shards had both the reason and the idle time to steal.
	if agg.Steals == 0 {
		t.Fatal("no steals under maximally skewed unkeyed load")
	}
}
