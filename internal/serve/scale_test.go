package serve

import (
	"context"
	"sync"
	"testing"
	"time"
)

// TestGrowShrinkRevive exercises the scaling mechanics directly: grow to
// the ceiling, serve through the widened set, shrink to the base floor,
// and grow again — which must revive the warm-parked shard rather than
// start another runtime. Drain accounting must balance across every
// shard ever started.
func TestGrowShrinkRevive(t *testing.T) {
	s := MustNew(Options{
		Backend: "go", Threads: 1, Shards: 2, QueueDepth: 64,
		// Interval is an hour: the controller exists but never acts, the
		// test drives grow/shrink itself.
		Scale: AutoScale{MaxShards: 4, Interval: time.Hour},
	})
	sub := s.Submitter()
	serve := func(n int) {
		var futs []*Future[int]
		for i := 0; i < n; i++ {
			f, err := Do(sub, context.Background(), func() (int, error) { return i, nil }, Req{})
			if err != nil {
				t.Fatal(err)
			}
			futs = append(futs, f)
		}
		for _, f := range futs {
			f.MustWait()
		}
	}

	if got := s.NumShards(); got != 2 {
		t.Fatalf("base NumShards = %d, want 2", got)
	}
	if !s.grow() || !s.grow() {
		t.Fatal("grow to ceiling failed")
	}
	if s.grow() {
		t.Fatal("grow past MaxShards succeeded")
	}
	if got := s.NumShards(); got != 4 {
		t.Fatalf("NumShards after grow = %d, want 4", got)
	}
	serve(200) // traffic lands on dynamic shards too

	if !s.shrink() || !s.shrink() {
		t.Fatal("shrink to base failed")
	}
	if s.shrink() {
		t.Fatal("shrink below base succeeded — base shards are the keyed domain")
	}
	if got := s.NumShards(); got != 2 {
		t.Fatalf("NumShards after shrink = %d, want 2", got)
	}
	serve(100) // scaled-down shards must not strand anything

	if !s.grow() {
		t.Fatal("regrow failed")
	}
	if started := len(s.all); started != 4 {
		t.Fatalf("%d shards ever started, want 4 — regrow must revive, not respawn", started)
	}
	serve(100)
	s.Close()

	agg, per := s.Snapshot()
	if agg.ScaleUps != 3 || agg.ScaleDowns != 2 {
		t.Fatalf("ScaleUps/Downs = %d/%d, want 3/2", agg.ScaleUps, agg.ScaleDowns)
	}
	if len(per) != 4 {
		t.Fatalf("per-shard metrics cover %d shards, want all 4 ever started", len(per))
	}
	if agg.Submitted != 400 {
		t.Fatalf("Submitted = %d, want 400", agg.Submitted)
	}
	if agg.Submitted != agg.Completed+agg.Rejected+agg.Expired {
		t.Fatalf("drain identity broken across scale cycle: submitted=%d completed=%d rejected=%d expired=%d",
			agg.Submitted, agg.Completed, agg.Rejected, agg.Expired)
	}
}

// TestHeadroomShardsStartParked pins the fixed shard array: New starts
// every shard up to Scale.MaxShards, and the headroom ones outside the
// routing set park once and then cost nothing — neither their pumps nor
// their executors poll while the server sits idle.
func TestHeadroomShardsStartParked(t *testing.T) {
	s := MustNew(Options{
		Backend: "go", Threads: 1, Shards: 1,
		Scale: AutoScale{MaxShards: 4, Interval: time.Hour},
	})
	defer s.Close()
	if got := len(s.ShardMetrics()); got != 4 {
		t.Fatalf("ShardMetrics has %d entries after New, want 4", got)
	}
	if got := s.NumShards(); got != 1 {
		t.Fatalf("NumShards = %d, want the base 1", got)
	}
	// Each fresh pump parks at once; wait for that, and for the
	// executors' first spin to end, before the idle window starts.
	deadline := time.Now().Add(10 * time.Second)
	for _, m := range s.ShardMetrics()[1:] {
		for m.PumpParks == 0 {
			if time.Now().After(deadline) {
				t.Fatalf("headroom shard %d never parked its pump", m.Shard)
			}
			time.Sleep(time.Millisecond)
			m = s.ShardMetrics()[m.Shard]
		}
	}
	time.Sleep(20 * time.Millisecond)
	before := s.ShardMetrics()
	time.Sleep(200 * time.Millisecond)
	after := s.ShardMetrics()
	for i := 1; i < 4; i++ {
		if before[i].PumpParks != after[i].PumpParks || before[i].Sched.EmptyPops != after[i].Sched.EmptyPops {
			t.Fatalf("idle headroom shard %d moved: PumpParks %d -> %d, EmptyPops %d -> %d", i,
				before[i].PumpParks, after[i].PumpParks, before[i].Sched.EmptyPops, after[i].Sched.EmptyPops)
		}
	}
}

// TestGrowWakesHeadroomShardToSteal pins the grow kick: a headroom shard
// joining the routing set wakes and steals the backlog queued behind a
// busy base shard, with no new traffic to wake it.
func TestGrowWakesHeadroomShardToSteal(t *testing.T) {
	s := MustNew(Options{
		Backend: "go", Threads: 1, Shards: 1, QueueDepth: 8, MaxInFlight: 1, Steal: true,
		Scale: AutoScale{MaxShards: 2, Interval: time.Hour},
	})
	sub := s.Submitter()
	gate := make(chan struct{})
	held, err := Do(sub, context.Background(), func() (int, error) { <-gate; return 0, nil }, Req{})
	if err != nil {
		t.Fatal(err)
	}
	for s.Metrics().InFlight == 0 {
		time.Sleep(time.Millisecond)
	}
	var backlog []*Future[int]
	for i := 0; i < 4; i++ {
		f, err := Do(sub, context.Background(), func() (int, error) { return 1, nil }, Req{})
		if err != nil {
			t.Fatal(err)
		}
		backlog = append(backlog, f)
	}
	if !s.grow() {
		t.Fatal("grow failed")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for i, f := range backlog {
		if _, err := f.Wait(ctx); err != nil {
			t.Fatalf("backlog request %d behind the held shard: %v — the grown shard never stole it", i, err)
		}
	}
	if got := s.ShardMetrics()[1].Steals; got != 4 {
		t.Fatalf("grown shard stole %d requests, want all 4", got)
	}
	close(gate)
	held.MustWait()
	s.Close()
	if m := s.Metrics(); m.Submitted != m.Completed+m.Rejected+m.Expired {
		t.Fatalf("drain identity broken: %+v", m)
	}
}

// TestAutoscaleGrowShrinkCycle is the controller end to end: sustained
// saturation of a one-shard pool must widen the routing set, and the
// load falling away must return it to the base — with the drain
// identity intact through the whole cycle. Run under -race this is the
// autoscaler's memory-model test.
func TestAutoscaleGrowShrinkCycle(t *testing.T) {
	s := MustNew(Options{
		Backend: "go", Threads: 1, Shards: 1,
		QueueDepth: 8, MaxInFlight: 1,
		Steal: true,
		Scale: AutoScale{MaxShards: 3, Interval: 5 * time.Millisecond},
	})
	sub := s.Submitter()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for p := 0; p < 2; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				_, err := Do(sub, context.Background(), func() (int, error) {
					time.Sleep(time.Millisecond)
					return 0, nil
				}, Req{})
				if err != nil {
					return
				}
			}
		}()
	}

	waitFor := func(what string, timeout time.Duration, ok func() bool) {
		t.Helper()
		deadline := time.Now().Add(timeout)
		for !ok() {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s (NumShards=%d)", what, s.NumShards())
			}
			time.Sleep(time.Millisecond)
		}
	}
	waitFor("autoscaler to grow", 30*time.Second, func() bool { return s.NumShards() > 1 })
	close(stop)
	wg.Wait()
	waitFor("autoscaler to shrink back", 30*time.Second, func() bool { return s.NumShards() == 1 })
	s.Close()

	agg, _ := s.Snapshot()
	if agg.ScaleUps == 0 || agg.ScaleDowns == 0 {
		t.Fatalf("ScaleUps/Downs = %d/%d, want both > 0", agg.ScaleUps, agg.ScaleDowns)
	}
	if agg.Submitted != agg.Completed+agg.Rejected+agg.Expired {
		t.Fatalf("drain identity broken across autoscale cycle: submitted=%d completed=%d rejected=%d expired=%d",
			agg.Submitted, agg.Completed, agg.Rejected, agg.Expired)
	}
}
