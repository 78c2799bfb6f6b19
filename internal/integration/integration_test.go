// Package integration holds cross-module scenario tests: each one drives
// several subsystems together (unified API + emulation + substrate +
// kernels) and asserts a mechanism the paper's evaluation relies on,
// using deterministic counters rather than wall-clock comparisons.
package integration

import (
	"sync/atomic"
	"testing"

	"repro/internal/argobots"
	"repro/internal/converse"
	"repro/internal/core"
	"repro/internal/massivethreads"
	"repro/internal/microbench"
	"repro/internal/omplwt"
	"repro/internal/openmp"
	"repro/internal/trace"
)

// TestNestedThreadExplosionGCCvsICC reproduces §IX-C's mechanism with
// counters instead of time: running the Listing 3 nested loop, the gcc
// flavor must create a fresh team per nested pragma while icc's pool
// bounds creation — the cause of the paper's 35,036-thread count.
func TestNestedThreadExplosionGCCvsICC(t *testing.T) {
	const threads, outer = 4, 24
	run := func(flavor openmp.Flavor) uint64 {
		rt := openmp.New(openmp.Config{Flavor: flavor, NumThreads: threads, WaitPolicy: openmp.Passive})
		defer rt.Close()
		rt.Parallel(func(tc *openmp.TeamCtx) {
			lo, hi := openmp.ChunkRange(outer, tc.NumThreads(), tc.TID())
			for i := lo; i < hi; i++ {
				tc.ParallelFor(4, func(j int) {})
			}
		})
		return rt.ThreadsCreated()
	}
	gcc := run(openmp.GCC)
	icc := run(openmp.ICC)
	// gcc: 3 top-level workers + 3 fresh workers per nested region × 24
	// regions = 75. icc reuses pooled threads across regions.
	if gcc < 24*3 {
		t.Fatalf("gcc created %d threads, want >= 72 (one fresh team per pragma)", gcc)
	}
	if icc*4 > gcc {
		t.Fatalf("icc created %d threads vs gcc %d; pool reuse should be at least 4x better", icc, gcc)
	}
}

// TestWorkFirstExecutesEagerly distinguishes the creation policies with
// counters: under work-first a batch of creations from the main flow is
// mostly executed by creation time; under help-first nothing has run
// until the creator yields.
func TestWorkFirstExecutesEagerly(t *testing.T) {
	const n = 50
	countStarted := func(policy massivethreads.Policy) int64 {
		rt := massivethreads.Init(1, policy) // one worker: no thieves
		defer rt.Finalize()
		var started atomic.Int64
		ths := make([]*massivethreads.Thread, n)
		for i := range ths {
			ths[i] = rt.Create(func(c *massivethreads.Context) { started.Add(1) })
		}
		atCreation := started.Load()
		for _, th := range ths {
			rt.Join(th)
		}
		return atCreation
	}
	if got := countStarted(massivethreads.WorkFirst); got != n {
		t.Fatalf("work-first had started %d of %d at creation time, want all", got, n)
	}
	if got := countStarted(massivethreads.HelpFirst); got != 0 {
		t.Fatalf("help-first had started %d at creation time, want 0", got)
	}
}

// TestTaskletVsULTCostOrdering asserts §VI's mechanism without timing:
// a tasklet creation performs no goroutine spawn, so creating many
// tasklets must allocate far fewer goroutine stacks than ULTs. Proxy:
// both kinds complete the same workload, and the Argobots runtime's
// executor counters attribute them correctly.
func TestTaskletVsULTCostOrdering(t *testing.T) {
	rec := trace.NewRecorder(1 << 16)
	rt := argobots.Init(argobots.Config{XStreams: 2, Tracer: rec})
	const n = 100
	tks := make([]*argobots.Task, n)
	for i := range tks {
		tks[i] = rt.TaskCreate(func() {})
	}
	for _, tk := range tks {
		rt.TaskFree(tk)
	}
	ths := make([]*argobots.Thread, n)
	for i := range ths {
		ths[i] = rt.ThreadCreate(func(*argobots.Context) {})
	}
	for _, th := range ths {
		rt.ThreadFree(th)
	}
	rt.Finalize()
	sum := trace.Summarize(rec.Events())
	// Executor lanes batch dispatch events (trace.Batcher), so unit
	// counts live in the summed Unit fields, not the event count.
	if sum.Units[trace.KindTasklet] != n {
		t.Fatalf("tasklet executions = %d, want %d", sum.Units[trace.KindTasklet], n)
	}
	if sum.Units[trace.KindDispatch] < n {
		t.Fatalf("ULT dispatches = %d, want >= %d", sum.Units[trace.KindDispatch], n)
	}
}

// TestDirectiveLayerAgreesAcrossBackends runs the same reduction through
// the directive layer on every LWT backend and checks all results agree.
func TestDirectiveLayerAgreesAcrossBackends(t *testing.T) {
	const n = 5000
	want := float64(n*(n-1)) / 2
	for _, backend := range core.Backends() {
		rt := omplwt.MustOpen(omplwt.Config{Backend: backend, Executors: 3})
		got := rt.ReduceFloat64(n, omplwt.Dynamic, 64,
			func(a, b float64) float64 { return a + b }, 0,
			func(i int) float64 { return float64(i) })
		rt.Close()
		if got != want {
			t.Fatalf("%s: reduction = %v, want %v", backend, got, want)
		}
	}
}

// TestMicrobenchAllFiguresProduceSaneSeries sweeps every figure pattern
// at tiny scale over two systems and sanity-checks the series structure
// (the full harness behind cmd/lwtbench).
func TestMicrobenchAllFiguresProduceSaneSeries(t *testing.T) {
	prm := microbench.Params{
		ForIters: 50, Tasks: 30, NestedOuter: 4, NestedInner: 6,
		Parents: 4, Children: 3, Reps: 2,
	}
	specs := []string{"Argobots Tasklet", "gcc"}
	for _, p := range []microbench.Pattern{2, 3, 4, 5, 6, 7, 8} {
		for _, name := range specs {
			spec, ok := microbench.FindSpec(name)
			if !ok {
				t.Fatalf("spec %q missing", name)
			}
			se := microbench.Sweep(spec, p, []int{1, 2}, prm)
			if len(se.Points) != 2 {
				t.Fatalf("%v/%s: %d points", p, name, len(se.Points))
			}
			for _, pt := range se.Points {
				if pt.S.Mean < 0 || pt.S.Reps != prm.Reps {
					t.Fatalf("%v/%s: bad stats %+v", p, name, pt.S)
				}
			}
		}
	}
}

// TestConverseSyncShareObservable ties the trace module to the Converse
// runtime: after a barrier-joined workload, the recorded barrier+yield
// share must be the dominant component of the master's recorded spans —
// §IX-D's claim expressed through the tracer.
func TestConverseSyncShareObservable(t *testing.T) {
	rec := trace.NewRecorder(1 << 16)
	rt := converse.Init(4)
	rt.SetTracer(rec)
	defer rt.Finalize()
	for i := 0; i < 200; i++ {
		rt.SyncSend(i%4, func(*converse.Proc) {})
	}
	rt.Barrier()
	sum := trace.Summarize(rec.Events())
	if frac := sum.Fraction(trace.KindBarrier, trace.KindYield); frac < 0.99 {
		// The master's only recorded spans here are sync spans.
		t.Fatalf("sync share = %v, want ~1.0 for a pure barrier join", frac)
	}
}
