package openmp

import (
	"runtime"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"
)

func flavors() []Config {
	return []Config{
		{Flavor: GCC, NumThreads: 4, WaitPolicy: Passive},
		{Flavor: GCC, NumThreads: 4, WaitPolicy: Active},
		{Flavor: ICC, NumThreads: 4, WaitPolicy: Passive},
		{Flavor: ICC, NumThreads: 4, WaitPolicy: Active},
	}
}

func TestNewPanicsOnZeroThreads(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(0 threads) did not panic")
		}
	}()
	New(Config{Flavor: GCC})
}

func TestParallelForCoversRange(t *testing.T) {
	for _, cfg := range flavors() {
		cfg := cfg
		t.Run(cfg.Flavor.String()+"/"+cfg.WaitPolicy.String(), func(t *testing.T) {
			rt := New(cfg)
			defer rt.Close()
			const n = 1000
			hits := make([]atomic.Int32, n)
			rt.ParallelFor(n, func(i int) { hits[i].Add(1) })
			for i := range hits {
				if got := hits[i].Load(); got != 1 {
					t.Fatalf("iteration %d executed %d times", i, got)
				}
			}
		})
	}
}

func TestParallelForFewerIterationsThanThreads(t *testing.T) {
	rt := New(Config{Flavor: GCC, NumThreads: 8, WaitPolicy: Passive})
	var count atomic.Int32
	rt.ParallelFor(3, func(i int) { count.Add(1) })
	if count.Load() != 3 {
		t.Fatalf("executed %d iterations, want 3", count.Load())
	}
}

func TestChunkRangePartitions(t *testing.T) {
	f := func(n16 uint16, k8 uint8) bool {
		n := int(n16 % 2000)
		k := int(k8%32) + 1
		covered := 0
		prevHi := 0
		for tid := 0; tid < k; tid++ {
			lo, hi := ChunkRange(n, k, tid)
			if lo != prevHi || hi < lo {
				return false
			}
			covered += hi - lo
			prevHi = hi
		}
		return covered == n && prevHi == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestTeamCtxBasics(t *testing.T) {
	rt := New(Config{Flavor: ICC, NumThreads: 3, WaitPolicy: Passive})
	defer rt.Close()
	var seen [3]atomic.Int32
	rt.Parallel(func(tc *TeamCtx) {
		if tc.NumThreads() != 3 {
			t.Errorf("NumThreads = %d", tc.NumThreads())
		}
		if tc.Runtime() != rt {
			t.Error("Runtime() mismatch")
		}
		seen[tc.TID()].Add(1)
	})
	for tid := range seen {
		if got := seen[tid].Load(); got != 1 {
			t.Fatalf("tid %d ran body %d times", tid, got)
		}
	}
}

func TestSingleRunsOnce(t *testing.T) {
	for _, cfg := range flavors() {
		rt := New(cfg)
		var count atomic.Int32
		rt.Parallel(func(tc *TeamCtx) {
			tc.Single(func() { count.Add(1) })
		})
		rt.Close()
		if count.Load() != 1 {
			t.Fatalf("%v: single body ran %d times", cfg.Flavor, count.Load())
		}
	}
}

func TestTasksSingleRegionAllExecute(t *testing.T) {
	for _, cfg := range flavors() {
		cfg := cfg
		t.Run(cfg.Flavor.String()+"/"+cfg.WaitPolicy.String(), func(t *testing.T) {
			rt := New(cfg)
			defer rt.Close()
			const n = 500
			var ran atomic.Int64
			rt.Parallel(func(tc *TeamCtx) {
				tc.Single(func() {
					for i := 0; i < n; i++ {
						tc.Task(func() { ran.Add(1) })
					}
				})
			})
			if ran.Load() != n {
				t.Fatalf("ran = %d, want %d", ran.Load(), n)
			}
		})
	}
}

func TestTasksParallelRegionAllExecute(t *testing.T) {
	for _, cfg := range flavors() {
		cfg := cfg
		t.Run(cfg.Flavor.String(), func(t *testing.T) {
			rt := New(cfg)
			defer rt.Close()
			const perThread = 100
			var ran atomic.Int64
			rt.Parallel(func(tc *TeamCtx) {
				for i := 0; i < perThread; i++ {
					tc.Task(func() { ran.Add(1) })
				}
			})
			want := int64(perThread * cfg.NumThreads)
			if ran.Load() != want {
				t.Fatalf("ran = %d, want %d", ran.Load(), want)
			}
		})
	}
}

func TestGCCCutoffTriggers(t *testing.T) {
	rt := New(Config{Flavor: GCC, NumThreads: 2, WaitPolicy: Passive})
	defer rt.Close()
	// 2 threads → cutoff at 128 outstanding. Creating many tasks from a
	// single region with slow consumers must inline some; every task
	// waits for the first inline run, so the consumers are slow by
	// construction rather than by luck.
	const n = 2000
	var ran atomic.Int64
	rt.Parallel(func(tc *TeamCtx) {
		tc.Single(func() {
			for i := 0; i < n; i++ {
				tc.Task(func() {
					for rt.TasksInlined() == 0 {
						runtime.Gosched()
					}
					ran.Add(1)
				})
			}
		})
	})
	if ran.Load() != n {
		t.Fatalf("ran = %d, want %d", ran.Load(), n)
	}
	if rt.TasksInlined() == 0 {
		t.Fatal("gcc cutoff never triggered with 2000 tasks on 2 threads")
	}
}

func TestICCCutoffTriggers(t *testing.T) {
	rt := New(Config{Flavor: ICC, NumThreads: 2, WaitPolicy: Passive})
	defer rt.Close()
	const n = 2000
	var ran atomic.Int64
	rt.Parallel(func(tc *TeamCtx) {
		tc.Single(func() {
			for i := 0; i < n; i++ {
				tc.Task(func() {
					// A thief that drained the creator's queue as fast as
					// it fills would keep it under the cutoff; hold every
					// task until the cutoff has run one inline.
					for rt.TasksInlined() == 0 {
						runtime.Gosched()
					}
					ran.Add(1)
				})
			}
		})
	})
	if ran.Load() != n {
		t.Fatalf("ran = %d, want %d", ran.Load(), n)
	}
	if rt.TasksInlined() == 0 {
		t.Fatal("icc cutoff never triggered with 2000 tasks in one queue")
	}
}

func TestDisableCutoffQueuesEverything(t *testing.T) {
	rt := New(Config{Flavor: GCC, NumThreads: 2, WaitPolicy: Passive, DisableCutoff: true})
	defer rt.Close()
	const n = 1000
	var ran atomic.Int64
	rt.Parallel(func(tc *TeamCtx) {
		tc.Single(func() {
			for i := 0; i < n; i++ {
				tc.Task(func() { ran.Add(1) })
			}
		})
	})
	if ran.Load() != n {
		t.Fatalf("ran = %d, want %d", ran.Load(), n)
	}
	if rt.TasksInlined() != 0 {
		t.Fatalf("cutoff inlined %d tasks while disabled", rt.TasksInlined())
	}
	if rt.TasksQueued() != n {
		t.Fatalf("queued = %d, want %d", rt.TasksQueued(), n)
	}
}

func TestICCStealsFromSingleCreator(t *testing.T) {
	rt := New(Config{Flavor: ICC, NumThreads: 4, WaitPolicy: Passive})
	defer rt.Close()
	const n = 400
	var ran atomic.Int64
	var stolenWhileHeld bool
	rt.Parallel(func(tc *TeamCtx) {
		if tc.TID() != 0 {
			// Workers fall through to the region-end task barrier, where
			// they poll the deques for work to steal and then park.
			return
		}
		tc.Single(func() {
			// Hold production until every thief has spent its spin
			// budget and parked in the region-end barrier: nothing but
			// the push wake can release them before the creator
			// arrives.
			for rt.Parks() < 3 {
				runtime.Gosched()
			}
			// Then hold it until a thief is actually polling: the
			// creator pushes one task and does not pop it, so only a
			// steal can take it. A thief's first poll after its wake may
			// be milliseconds away when the OS thread that would run it
			// is descheduled (two shared CPUs under -race), and a
			// 400-task region otherwise finishes inside that window.
			// The deadline turns a runtime that never steals, or never
			// wakes a parked thief on a push, into a failure below
			// rather than a hang.
			body := func() { runtime.Gosched(); ran.Add(1) }
			tc.Task(body)
			for deadline := time.Now().Add(10 * time.Second); rt.Steals() == 0 && time.Now().Before(deadline); {
				runtime.Gosched()
			}
			stolenWhileHeld = rt.Steals() > 0
			for i := 1; i < n; i++ {
				// The body yields so that on a single-P machine
				// (GOMAXPROCS=1) the polling thieves are guaranteed a
				// scheduling slot while the creator's deque is non-empty;
				// without it the master would pop its whole deque in one
				// unpreempted burst and the thieves could never win.
				tc.Task(body)
			}
		})
	})
	if ran.Load() != n {
		t.Fatalf("ran = %d, want %d", ran.Load(), n)
	}
	// All tasks land in thread 0's deque; others can only steal.
	if rt.Steals() == 0 {
		t.Fatal("no steals in icc single-region pattern")
	}
	if !stolenWhileHeld {
		t.Fatal("no thief took the held task: a push did not wake the parked thieves")
	}
}

func TestNestedParallelGCCSpawnsFreshTeams(t *testing.T) {
	rt := New(Config{Flavor: GCC, NumThreads: 3, WaitPolicy: Passive})
	defer rt.Close()
	var inner atomic.Int64
	rt.Parallel(func(tc *TeamCtx) {
		// Nested pragma: a fresh team per encountering thread.
		tc.ParallelFor(3, func(i int) { inner.Add(1) })
	})
	if got := inner.Load(); got != 9 {
		t.Fatalf("inner iterations = %d, want 9", got)
	}
	// Outer region: 2 workers (fresh pool). Each of 3 threads spawns a
	// nested team with 2 more fresh workers: 2 + 3*2 = 8, no nested
	// reuse.
	if got := rt.ThreadsCreated(); got != 8 {
		t.Fatalf("gcc ThreadsCreated = %d, want 8 (no nested reuse)", got)
	}
}

func TestNestedParallelGCCThreadCountGrowsPerRegion(t *testing.T) {
	rt := New(Config{Flavor: GCC, NumThreads: 2, WaitPolicy: Passive})
	defer rt.Close()
	// Each round's nested pragmas spawn fresh threads even though idle
	// ones exist — the §IX-C explosion (35,036 threads at 36 threads).
	for round := 0; round < 5; round++ {
		rt.Parallel(func(tc *TeamCtx) {
			tc.ParallelFor(2, func(i int) {})
		})
	}
	// Top-level workers are reused (1 created in round 1); nested teams
	// create 2 fresh threads per round: >= 1 + 5*2.
	if got := rt.ThreadsCreated(); got < 11 {
		t.Fatalf("gcc ThreadsCreated = %d, want >= 11", got)
	}
}

func TestNestedParallelICCReusesThreads(t *testing.T) {
	rt := New(Config{Flavor: ICC, NumThreads: 2, WaitPolicy: Passive})
	defer rt.Close()
	var inner atomic.Int64
	// Run the same nested structure several times: the pool bounds
	// thread creation, unlike gcc.
	for round := 0; round < 5; round++ {
		rt.Parallel(func(tc *TeamCtx) {
			tc.ParallelFor(2, func(i int) { inner.Add(1) })
		})
	}
	if got := inner.Load(); got != 20 {
		t.Fatalf("inner iterations = %d, want 20", got)
	}
	// Without reuse 5 rounds × (1 + 2×1) = 15 threads; the pool must
	// keep the count strictly lower.
	if got := rt.ThreadsCreated(); got >= 15 {
		t.Fatalf("icc ThreadsCreated = %d, want < 15 (pool reuse)", got)
	}
}

func TestParallelTimedPhases(t *testing.T) {
	rt := New(Config{Flavor: GCC, NumThreads: 3, WaitPolicy: Passive})
	defer rt.Close()
	var ran atomic.Int64
	create, join := rt.ParallelTimed(func(tc *TeamCtx) { ran.Add(1) })
	if ran.Load() != 3 {
		t.Fatalf("body ran %d times, want 3", ran.Load())
	}
	if create < 0 || join < 0 {
		t.Fatalf("negative phase times: create=%v join=%v", create, join)
	}
}

func TestTaskWaitDrains(t *testing.T) {
	rt := New(Config{Flavor: ICC, NumThreads: 2, WaitPolicy: Passive})
	defer rt.Close()
	var before atomic.Int64
	var orderOK atomic.Bool
	rt.Parallel(func(tc *TeamCtx) {
		tc.Single(func() {
			for i := 0; i < 50; i++ {
				tc.Task(func() { before.Add(1) })
			}
			tc.TaskWait()
			orderOK.Store(before.Load() == 50)
		})
	})
	if !orderOK.Load() {
		t.Fatal("TaskWait returned before all tasks ran")
	}
}

func TestHeavyModeRuns(t *testing.T) {
	rt := New(Config{Flavor: GCC, NumThreads: 2, WaitPolicy: Passive, Heavy: true})
	defer rt.Close()
	var n atomic.Int64
	rt.ParallelFor(10, func(i int) { n.Add(1) })
	if n.Load() != 10 {
		t.Fatalf("heavy-mode ran %d iterations, want 10", n.Load())
	}
}

func TestCloseIdempotent(t *testing.T) {
	rt := New(Config{Flavor: ICC, NumThreads: 2})
	rt.ParallelFor(4, func(i int) {})
	rt.Close()
	rt.Close()
}

func TestFlavorAndPolicyStrings(t *testing.T) {
	if GCC.String() != "gcc" || ICC.String() != "icc" {
		t.Fatal("flavor strings wrong")
	}
	if Active.String() != "active" || Passive.String() != "passive" {
		t.Fatal("policy strings wrong")
	}
}

func TestNestedTaskPattern(t *testing.T) {
	// §VII-D: a single thread creates parent tasks; each parent creates
	// child tasks.
	for _, f := range []Flavor{GCC, ICC} {
		rt := New(Config{Flavor: f, NumThreads: 4, WaitPolicy: Passive})
		const parents, children = 20, 4
		var leaves atomic.Int64
		rt.Parallel(func(tc *TeamCtx) {
			tc.Single(func() {
				for p := 0; p < parents; p++ {
					tc.Task(func() {
						for c := 0; c < children; c++ {
							tc.Task(func() { leaves.Add(1) })
						}
					})
				}
			})
		})
		rt.Close()
		if got := leaves.Load(); got != parents*children {
			t.Fatalf("%v: leaves = %d, want %d", f, got, parents*children)
		}
	}
}
