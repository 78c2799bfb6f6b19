package omplwt

import (
	"sync/atomic"
	"testing"
	"testing/quick"

	"repro/internal/core"
)

// lwtBackends are the backends the directive layer is exercised on.
func lwtBackends() []string {
	return []string{"argobots", "qthreads", "massivethreads", "go"}
}

func TestNewUnknownBackend(t *testing.T) {
	if _, err := Open(Config{Backend: "bogus", Executors: 2}); err == nil {
		t.Fatal("Open accepted an unknown backend")
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustOpen did not panic")
		}
	}()
	MustOpen(Config{Backend: "bogus", Executors: 2})
}

func TestParallelForStaticCovers(t *testing.T) {
	for _, b := range lwtBackends() {
		b := b
		t.Run(b, func(t *testing.T) {
			rt := MustOpen(Config{Backend: b, Executors: 4})
			defer rt.Close()
			const n = 500
			hits := make([]atomic.Int32, n)
			rt.ParallelFor(n, Static, 0, func(i int) { hits[i].Add(1) })
			for i := range hits {
				if got := hits[i].Load(); got != 1 {
					t.Fatalf("iteration %d ran %d times", i, got)
				}
			}
		})
	}
}

func TestParallelForDynamicAndGuided(t *testing.T) {
	for _, sched := range []Schedule{Dynamic, Guided} {
		sched := sched
		t.Run(sched.String(), func(t *testing.T) {
			rt := MustOpen(Config{Backend: "argobots", Executors: 4})
			defer rt.Close()
			const n = 1000
			hits := make([]atomic.Int32, n)
			rt.ParallelFor(n, sched, 16, func(i int) { hits[i].Add(1) })
			for i := range hits {
				if got := hits[i].Load(); got != 1 {
					t.Fatalf("%v: iteration %d ran %d times", sched, i, got)
				}
			}
		})
	}
}

func TestParallelForEmptyAndTiny(t *testing.T) {
	rt := MustOpen(Config{Backend: "argobots", Executors: 4})
	defer rt.Close()
	rt.ParallelFor(0, Static, 0, func(i int) { t.Error("body ran for n=0") })
	var count atomic.Int32
	rt.ParallelFor(2, Static, 0, func(i int) { count.Add(1) }) // fewer iters than threads
	if count.Load() != 2 {
		t.Fatalf("ran %d iterations, want 2", count.Load())
	}
}

func TestParallelTeamAndSingle(t *testing.T) {
	rt := MustOpen(Config{Backend: "qthreads", Executors: 3})
	defer rt.Close()
	var members atomic.Int32
	var singles atomic.Int32
	rt.Parallel(func(rg *Region, tid int) {
		members.Add(1)
		rg.Single(tid, func() { singles.Add(1) })
	})
	if members.Load() != 3 {
		t.Fatalf("members = %d, want 3", members.Load())
	}
	if singles.Load() != 1 {
		t.Fatalf("single ran %d times, want 1", singles.Load())
	}
}

func TestTasksInSingleRegion(t *testing.T) {
	for _, b := range lwtBackends() {
		b := b
		t.Run(b, func(t *testing.T) {
			rt := MustOpen(Config{Backend: b, Executors: 4})
			defer rt.Close()
			const n = 200
			var ran atomic.Int64
			rt.Parallel(func(rg *Region, tid int) {
				rg.Single(tid, func() {
					for i := 0; i < n; i++ {
						rg.Task(func() { ran.Add(1) })
					}
				})
			})
			// The region's implicit barrier drains all tasks.
			if ran.Load() != n {
				t.Fatalf("ran = %d, want %d", ran.Load(), n)
			}
		})
	}
}

func TestTaskWaitInsideRegion(t *testing.T) {
	rt := MustOpen(Config{Backend: "argobots", Executors: 4})
	defer rt.Close()
	var before atomic.Int64
	var waitedOK atomic.Bool
	rt.Parallel(func(rg *Region, tid int) {
		if tid != 0 {
			return
		}
		for i := 0; i < 50; i++ {
			rg.Task(func() { before.Add(1) })
		}
		rg.TaskWait()
		waitedOK.Store(before.Load() == 50)
	})
	if !waitedOK.Load() {
		t.Fatal("TaskWait returned before all tasks completed")
	}
}

func TestNestedTasksViaTaskULT(t *testing.T) {
	rt := MustOpen(Config{Backend: "argobots", Executors: 4})
	defer rt.Close()
	const parents, children = 10, 4
	var leaves atomic.Int64
	rt.Parallel(func(rg *Region, tid int) {
		rg.Single(tid, func() {
			for p := 0; p < parents; p++ {
				rg.TaskULT(func(child *Region) {
					for c := 0; c < children; c++ {
						child.Task(func() { leaves.Add(1) })
					}
				})
			}
		})
	})
	if got := leaves.Load(); got != parents*children {
		t.Fatalf("leaves = %d, want %d", got, parents*children)
	}
}

func TestNestedParallelFor(t *testing.T) {
	// Listing 3 on an LWT substrate: work units, not thread teams.
	rt := MustOpen(Config{Backend: "argobots", Executors: 4})
	defer rt.Close()
	const outer, inner = 10, 20
	hits := make([]atomic.Int32, outer*inner)
	rt.Parallel(func(rg *Region, tid int) {
		lo, hi := staticChunk(outer, rt.NumThreads(), tid)
		for i := lo; i < hi; i++ {
			i := i
			rg.ParallelFor(inner, Static, 0, func(j int) {
				hits[i*inner+j].Add(1)
			})
		}
	})
	for idx := range hits {
		if got := hits[idx].Load(); got != 1 {
			t.Fatalf("cell %d ran %d times", idx, got)
		}
	}
}

func TestCriticalMutualExclusion(t *testing.T) {
	rt := MustOpen(Config{Backend: "massivethreads", Executors: 4})
	defer rt.Close()
	counter := 0 // protected only by Critical
	rt.ParallelFor(400, Dynamic, 8, func(i int) {
		rg := &Region{rt: rt}
		rg.Critical(func() { counter++ })
	})
	if counter != 400 {
		t.Fatalf("counter = %d, want 400 (lost updates)", counter)
	}
}

func TestReduceSum(t *testing.T) {
	for _, sched := range []Schedule{Static, Dynamic, Guided} {
		rt := MustOpen(Config{Backend: "argobots", Executors: 4})
		const n = 1000
		got := rt.ReduceFloat64(n, sched, 32,
			func(a, b float64) float64 { return a + b }, 0,
			func(i int) float64 { return float64(i) })
		rt.Close()
		want := float64(n*(n-1)) / 2
		if got != want {
			t.Fatalf("%v: sum = %v, want %v", sched, got, want)
		}
	}
}

func TestReduceMax(t *testing.T) {
	rt := MustOpen(Config{Backend: "go", Executors: 3})
	defer rt.Close()
	got := rt.ReduceFloat64(257, Static, 0,
		func(a, b float64) float64 {
			if a > b {
				return a
			}
			return b
		}, -1,
		func(i int) float64 { return float64((i * 37) % 257) })
	if got != 256 {
		t.Fatalf("max = %v, want 256", got)
	}
}

func TestReduceEmpty(t *testing.T) {
	rt := MustOpen(Config{Backend: "argobots", Executors: 2})
	defer rt.Close()
	got := rt.ReduceFloat64(0, Static, 0,
		func(a, b float64) float64 { return a + b }, 0,
		func(i int) float64 { return 1 })
	if got != 0 {
		t.Fatalf("empty reduce = %v, want the identity", got)
	}
}

func TestTaskLoopCoversRange(t *testing.T) {
	rt := MustOpen(Config{Backend: "argobots", Executors: 4})
	defer rt.Close()
	const n = 333
	hits := make([]atomic.Int32, n)
	rt.Parallel(func(rg *Region, tid int) {
		rg.Single(tid, func() {
			rg.TaskLoop(n, 16, func(i int) { hits[i].Add(1) })
		})
	})
	for i := range hits {
		if got := hits[i].Load(); got != 1 {
			t.Fatalf("iteration %d ran %d times", i, got)
		}
	}
}

func TestTaskLoopGrainsizeFloor(t *testing.T) {
	rt := MustOpen(Config{Backend: "go", Executors: 2})
	defer rt.Close()
	var count atomic.Int32
	rt.Parallel(func(rg *Region, tid int) {
		rg.Single(tid, func() {
			rg.TaskLoop(10, 0, func(i int) { count.Add(1) }) // grainsize clamps to 1
		})
	})
	if count.Load() != 10 {
		t.Fatalf("ran %d iterations, want 10", count.Load())
	}
}

func TestScheduleStrings(t *testing.T) {
	if Static.String() != "static" || Dynamic.String() != "dynamic" || Guided.String() != "guided" {
		t.Fatal("schedule strings wrong")
	}
}

func TestBackendNameExposed(t *testing.T) {
	rt := MustOpen(Config{Backend: "qthreads", Executors: 2})
	defer rt.Close()
	if rt.Backend() != "qthreads" {
		t.Fatalf("Backend = %q", rt.Backend())
	}
	if rt.NumThreads() != 2 {
		t.Fatalf("NumThreads = %d", rt.NumThreads())
	}
}

// Property: for any n, threads and schedule, every iteration executes
// exactly once (the fundamental parallel-for contract).
func TestParallelForExactlyOnceProperty(t *testing.T) {
	rt := MustOpen(Config{Backend: "argobots", Executors: 3})
	defer rt.Close()
	f := func(n16 uint16, sched8, chunk8 uint8) bool {
		n := int(n16 % 300)
		sched := Schedule(sched8 % 3)
		chunk := int(chunk8%16) + 1
		hits := make([]atomic.Int32, n)
		rt.ParallelFor(n, sched, chunk, func(i int) { hits[i].Add(1) })
		for i := range hits {
			if hits[i].Load() != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// The directive layer and the Pthreads-style runtime agree on results:
// a cross-check that omplwt is a faithful OpenMP model.
func TestAgreesWithCore(t *testing.T) {
	rt := MustOpen(Config{Backend: "argobots", Executors: 4})
	defer rt.Close()
	r := core.MustOpen(core.Config{Backend: "qthreads", Executors: 4})
	defer r.Finalize()

	const n = 300
	a := make([]float64, n)
	rt.ParallelFor(n, Guided, 4, func(i int) { a[i] = float64(i) * 2 })

	b := make([]float64, n)
	hs := make([]core.Handle, 0, 4)
	for t2 := 0; t2 < 4; t2++ {
		lo, hi := staticChunk(n, 4, t2)
		hs = append(hs, r.ULTCreate(func(core.Ctx) {
			for i := lo; i < hi; i++ {
				b[i] = float64(i) * 2
			}
		}))
	}
	for _, h := range hs {
		r.Join(h)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("disagreement at %d: %v vs %v", i, a[i], b[i])
		}
	}
}
