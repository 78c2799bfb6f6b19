package serve

import (
	"context"
	"testing"
	"time"

	"repro/internal/core"
)

// TestIOParkedDiscountsAdmission is the serving half of the async-I/O
// contract: with MaxInFlight=1, eight handlers that each park for 50ms
// must overlap — the gate meters executor occupancy, and a parked
// handler occupies none — rather than serialize into ~400ms. The
// mid-flight snapshot also pins the IOParked metric.
func TestIOParkedDiscountsAdmission(t *testing.T) {
	s := MustNew(Options{
		Backend: "go", Threads: 2, Shards: 1,
		QueueDepth: 64, MaxInFlight: 1,
	})
	defer s.Close()
	sub := s.Submitter()
	const n = 8
	const wait = 50 * time.Millisecond
	start := time.Now()
	futs := make([]*Future[int], n)
	for i := range futs {
		f, err := DoULT(sub, context.Background(), func(c core.Ctx) (int, error) {
			core.Sleep(c, wait)
			return 1, nil
		}, Req{})
		if err != nil {
			t.Fatal(err)
		}
		futs[i] = f
	}
	sawParked := false
	for time.Since(start) < 2*wait && !sawParked {
		m := s.Metrics()
		if m.IOParked > 1 {
			sawParked = true
		}
		time.Sleep(time.Millisecond)
	}
	for _, f := range futs {
		if _, err := f.Wait(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	elapsed := time.Since(start)
	if !sawParked {
		t.Errorf("never observed IOParked > 1 with %d parked handlers in flight", n)
	}
	// Serialized execution would take n*wait = 400ms; allow generous
	// slack for slow CI while still ruling out serialization.
	if elapsed > 6*wait {
		t.Fatalf("8 parked 50ms waits took %v — handlers serialized on the in-flight gate", elapsed)
	}
}

// TestDrainWaitsForParkedHandlers: Close must not finalize a shard
// while a handler is parked on the reactor — the drain loop watches
// total inflight, parked included.
func TestDrainWaitsForParkedHandlers(t *testing.T) {
	s := MustNew(Options{
		Backend: "go", Threads: 2, Shards: 1,
		QueueDepth: 8, MaxInFlight: 4,
	})
	sub := s.Submitter()
	f, err := DoULT(sub, context.Background(), func(c core.Ctx) (int, error) {
		core.Sleep(c, 50*time.Millisecond)
		return 7, nil
	}, Req{})
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(10 * time.Millisecond) // let it launch and park
	s.Close()
	v, err := f.Wait(context.Background())
	if err != nil || v != 7 {
		t.Fatalf("parked handler resolved (%v, %v) across drain, want (7, nil)", v, err)
	}
}
