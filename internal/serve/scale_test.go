package serve

import (
	"context"
	"sync"
	"testing"
	"time"

	"repro/internal/topo"
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
	s.scaleMu.Lock()
	started := len(s.all)
	s.scaleMu.Unlock()
	if started != 4 {
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

// TestAutoscaleGrowShrinkCycle is the controller end to end: sustained
// saturation of a one-shard pool must widen the routing set, and the
// load falling away must return it to the base — with the drain
// identity intact through the whole cycle. Run under -race this is the
// autoscaler's memory-model test.
func TestAutoscaleGrowShrinkCycle(t *testing.T) {
	s := MustNew(Options{
		Backend: "go", Threads: 1, Shards: 1,
		QueueDepth: 8, MaxInFlight: 1, Batch: 1,
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

// TestTopoLayoutDerivesPoolShape pins the topology-to-pool mapping: one
// shard per physical core, one executor per hardware thread, with
// explicit Options winning over the derivation.
func TestTopoLayoutDerivesPoolShape(t *testing.T) {
	tp := topo.Topology{Sockets: 2, CoresPerSocket: 3, PUsPerCore: 2}
	if sh, th := TopoLayout(tp); sh != 6 || th != 2 {
		t.Fatalf("TopoLayout = %d shards x %d threads, want 6 x 2", sh, th)
	}

	s := MustNew(Options{Backend: "go", Topo: &tp, QueueDepth: 8})
	if got := s.NumShards(); got != 6 {
		t.Fatalf("NumShards = %d, want 6 from topology", got)
	}
	if lay := s.Layout(); lay == "" {
		t.Fatal("Layout() empty with Topo set")
	}
	s.Close()

	// Explicit fields override the derivation per field.
	s = MustNew(Options{Backend: "go", Topo: &tp, Shards: 2, QueueDepth: 8})
	defer s.Close()
	if got := s.NumShards(); got != 2 {
		t.Fatalf("NumShards = %d, want explicit 2 over topology's 6", got)
	}
}
