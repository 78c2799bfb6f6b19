package integration

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	lwt "repro"
)

// settledGoroutines lets in-flight terminal hand-backs land, then reports
// the goroutine count.
func settledGoroutines() int {
	runtime.GC()
	for i := 0; i < 10; i++ {
		runtime.Gosched()
	}
	return runtime.NumGoroutine()
}

// TestNoGoroutineLeakAcrossCreateJoinCycles is the spawn-free regression
// gate: with descriptor and coroutine reuse, a steady-state create/join
// cycle must not spawn (ULTs reuse a pooled coroutine) and must not leak
// (coroutines beyond the idle cap are stopped; watcher goroutines are
// gone from the join paths). The count may wobble by the
// few descriptors whose terminal release lags a beat behind the join,
// but it must stay flat across 10k cycles on every backend.
func TestNoGoroutineLeakAcrossCreateJoinCycles(t *testing.T) {
	const cycles = 10_000
	for _, backend := range lwt.Backends() {
		t.Run(backend, func(t *testing.T) {
			r, err := lwt.Open(lwt.Config{Backend: backend, Executors: 2})
			if err != nil {
				t.Fatalf("Open: %v", err)
			}
			defer r.Finalize()

			cycle := func(i int) {
				if i%2 == 0 {
					r.Join(r.TaskletCreate(func() {}))
				} else {
					r.Join(r.ULTCreate(func(lwt.Ctx) {}))
				}
			}
			// Warm the descriptor pools to their steady state.
			for i := 0; i < 200; i++ {
				cycle(i)
			}
			base := settledGoroutines()
			for i := 0; i < cycles; i++ {
				cycle(i)
			}
			// The last few terminal hand-backs may still be in flight;
			// give them a bounded moment to settle before judging.
			deadline := time.Now().Add(2 * time.Second)
			after := settledGoroutines()
			for after > base+50 && time.Now().Before(deadline) {
				time.Sleep(10 * time.Millisecond)
				after = settledGoroutines()
			}
			if after > base+50 {
				t.Fatalf("goroutines grew from %d to %d across %d create/join cycles",
					base, after, cycles)
			}
		})
	}
}

// TestBulkCreateMatchesSingleCreate exercises the unified bulk-creation
// API on every backend: every body runs exactly once, handles are
// joinable, and the batch behaves like the equivalent create loop.
func TestBulkCreateMatchesSingleCreate(t *testing.T) {
	const n = 300
	for _, backend := range lwt.Backends() {
		for _, kind := range []string{"tasklet", "ult"} {
			t.Run(fmt.Sprintf("%s/%s", backend, kind), func(t *testing.T) {
				r, err := lwt.Open(lwt.Config{Backend: backend, Executors: 3})
				if err != nil {
					t.Fatalf("Open: %v", err)
				}
				defer r.Finalize()

				hits := make([]int32, n)
				var hs []lwt.Handle
				if kind == "tasklet" {
					fns := make([]func(), n)
					for i := range fns {
						i := i
						fns[i] = func() { hits[i]++ }
					}
					hs = r.TaskletCreateBulk(fns)
				} else {
					fns := make([]func(lwt.Ctx), n)
					for i := range fns {
						i := i
						fns[i] = func(lwt.Ctx) { hits[i]++ }
					}
					hs = r.ULTCreateBulk(fns)
				}
				if len(hs) != n {
					t.Fatalf("got %d handles, want %d", len(hs), n)
				}
				r.JoinAll(hs)
				for i, h := range hs {
					if !h.Done() {
						t.Fatalf("handle %d not done after join", i)
					}
					if hits[i] != 1 {
						t.Fatalf("body %d ran %d times, want 1", i, hits[i])
					}
				}
			})
		}
	}
}
