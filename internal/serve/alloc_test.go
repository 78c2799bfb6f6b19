package serve

import (
	"context"
	"testing"

	"repro/internal/core"
)

// BenchmarkDoPipelined drives the submit -> launch -> complete path the
// way the in-process rig does: one producer keeps a ring of futures
// outstanding against a two-shard argobots server with stealing on,
// waiting for the oldest before submitting its replacement. allocs/op
// and B/op are per request, body closure included.
//
//	go test -run XXX -bench DoPipelined -benchmem ./internal/serve
func BenchmarkDoPipelined(b *testing.B) {
	s := MustNew(Options{Backend: "argobots", Shards: 2, Threads: 1, Steal: true})
	defer s.Close()
	sub := s.Submitter()
	ctx := context.Background()
	var ring [16]*Future[int]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		slot := &ring[i%len(ring)]
		if *slot != nil {
			if _, err := (*slot).Wait(ctx); err != nil {
				b.Fatal(err)
			}
		}
		want := i
		f, err := Do(sub, ctx, func() (int, error) { return want, nil }, Req{})
		if err != nil {
			b.Fatal(err)
		}
		*slot = f
	}
	for _, f := range ring {
		if f != nil {
			f.MustWait()
		}
	}
}

// roundTripAllocs measures one submit -> Wait round trip on a fresh
// argobots server, averaged by testing.AllocsPerRun. The body is built
// by the caller, outside the measured loop.
func roundTripAllocs(t *testing.T, do func(*Submitter) (*Future[int], error)) float64 {
	t.Helper()
	s := MustNew(Options{Backend: "argobots", Shards: 2, Threads: 1})
	defer s.Close()
	sub := s.Submitter()
	ctx := context.Background()
	return testing.AllocsPerRun(2000, func() {
		f, err := do(sub)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Wait(ctx); err != nil {
			t.Fatal(err)
		}
	})
}

// TestDoAllocBudget pins the tasklet path's allocation budget: the call
// record, plus the Future's channel when Wait has to block.
func TestDoAllocBudget(t *testing.T) {
	body := func() (int, error) { return 1, nil }
	got := roundTripAllocs(t, func(sub *Submitter) (*Future[int], error) {
		return Do(sub, context.Background(), body, Req{})
	})
	t.Logf("Do -> Wait: %.2f allocs", got)
	if got > 2 {
		t.Fatalf("Do -> Wait = %.2f allocs per round trip, budget 2", got)
	}
}

// TestDoULTAllocBudget pins the ULT path's budget: DoULT's call record
// and Future channel plus the detached ULT's body state and backend
// context.
func TestDoULTAllocBudget(t *testing.T) {
	body := func(core.Ctx) (int, error) { return 1, nil }
	got := roundTripAllocs(t, func(sub *Submitter) (*Future[int], error) {
		return DoULT(sub, context.Background(), body, Req{})
	})
	t.Logf("DoULT -> Wait: %.2f allocs", got)
	if got > 4 {
		t.Fatalf("DoULT -> Wait = %.2f allocs per round trip, budget 4", got)
	}
}
