// Benchmarks regenerating every table and figure of the paper's
// evaluation. One family per figure:
//
//	BenchmarkFig1Top500        — Figure 1 data pipeline
//	BenchmarkFig2Create        — create one work unit per thread
//	BenchmarkFig3Join          — join one work unit per thread
//	BenchmarkFig4ForLoop       — 1,000-iteration parallel for
//	BenchmarkFig5TaskSingle    — tasks created in a single region
//	BenchmarkFig6TaskParallel  — tasks created in a parallel region
//	BenchmarkFig7NestedFor     — nested parallel for
//	BenchmarkFig8NestedTask    — nested task parallelism
//	BenchmarkTableRendering    — Tables I and II
//
// plus the ablation families for the design decisions DESIGN.md calls
// out (pool configuration, creation policy, shepherd layout, task
// cutoff, work-unit kind, and the raw-goroutine comparison).
//
// Figure-quality sweeps (full thread axis, paper-sized workloads, RSD
// reporting) are produced by cmd/lwtbench; these benchmarks use reduced
// sizes so the whole suite runs in minutes.
package lwt_test

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"sync"
	"testing"
	"time"

	lwt "repro"
	"repro/internal/argobots"
	"repro/internal/blas"
	"repro/internal/microbench"
	"repro/internal/omplwt"
	"repro/internal/openmp"
	"repro/internal/queue"
	"repro/internal/semantics"
	"repro/internal/top500"
	"repro/internal/ult"
)

// benchParams are reduced workload sizes preserving the paper's ratios.
func benchParams() microbench.Params {
	return microbench.Params{
		ForIters: 1000, Tasks: 500,
		NestedOuter: 20, NestedInner: 20,
		Parents: 50, Children: 4,
		Reps: 1,
	}
}

// benchThreads is the reduced thread axis for the per-figure benchmarks.
func benchThreads() []int {
	n := runtime.NumCPU()
	if n > 8 {
		n = 8
	}
	if n < 2 {
		return []int{1}
	}
	return []int{2, n}
}

// benchPattern runs one figure's pattern across systems and thread
// counts as sub-benchmarks.
func benchPattern(b *testing.B, run func(sys microbench.System, prm microbench.Params)) {
	prm := benchParams()
	for _, spec := range microbench.PaperSystems() {
		for _, n := range benchThreads() {
			b.Run(fmt.Sprintf("%s/threads=%d", spec.Name, n), func(b *testing.B) {
				sys := spec.Make()
				sys.Setup(n)
				defer sys.Teardown()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					run(sys, prm)
				}
			})
		}
	}
}

func BenchmarkFig1Top500(b *testing.B) {
	d := top500.Historical()
	for i := 0; i < b.N; i++ {
		if out := top500.Render(d); len(out) == 0 {
			b.Fatal("empty figure")
		}
	}
}

func BenchmarkFig2Create(b *testing.B) {
	benchPattern(b, func(sys microbench.System, prm microbench.Params) {
		create, _ := sys.CreateJoin()
		_ = create
	})
}

func BenchmarkFig3Join(b *testing.B) {
	benchPattern(b, func(sys microbench.System, prm microbench.Params) {
		_, join := sys.CreateJoin()
		_ = join
	})
}

func BenchmarkFig4ForLoop(b *testing.B) {
	benchPattern(b, func(sys microbench.System, prm microbench.Params) {
		sys.ForLoop(prm.ForIters)
	})
}

func BenchmarkFig5TaskSingle(b *testing.B) {
	benchPattern(b, func(sys microbench.System, prm microbench.Params) {
		sys.TaskSingle(prm.Tasks)
	})
}

func BenchmarkFig6TaskParallel(b *testing.B) {
	benchPattern(b, func(sys microbench.System, prm microbench.Params) {
		sys.TaskParallel(prm.Tasks)
	})
}

func BenchmarkFig7NestedFor(b *testing.B) {
	benchPattern(b, func(sys microbench.System, prm microbench.Params) {
		sys.NestedFor(prm.NestedOuter, prm.NestedInner)
	})
}

func BenchmarkFig8NestedTask(b *testing.B) {
	benchPattern(b, func(sys microbench.System, prm microbench.Params) {
		sys.NestedTask(prm.Parents, prm.Children)
	})
}

func BenchmarkTableRendering(b *testing.B) {
	b.Run("TableI", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if len(semantics.RenderTableI()) == 0 {
				b.Fatal("empty table")
			}
		}
	})
	b.Run("TableII", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if len(semantics.RenderTableII()) == 0 {
				b.Fatal("empty table")
			}
		}
	})
}

// --- Ablations (design decisions of DESIGN.md §5) ---

// benchOne benchmarks a single system on one pattern at one thread count.
func benchOne(b *testing.B, sys microbench.System, n int, run func(sys microbench.System)) {
	sys.Setup(n)
	defer sys.Teardown()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run(sys)
	}
}

// BenchmarkAblationArgobotsPools compares Argobots private pools (the
// paper's pick) against a single shared pool on the task-single pattern.
func BenchmarkAblationArgobotsPools(b *testing.B) {
	prm := benchParams()
	for _, cfg := range []struct{ name, backend string }{
		{"private", "argobots"},
		{"shared", "argobots-shared"},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			benchOne(b, microbench.NewLWT(cfg.backend, true, cfg.name), 4,
				func(sys microbench.System) { sys.TaskSingle(prm.Tasks) })
		})
	}
}

// BenchmarkAblationTaskletVsULT quantifies the stackless-vs-stackful gap
// the paper reports as roughly 2x (§IX-B).
func BenchmarkAblationTaskletVsULT(b *testing.B) {
	prm := benchParams()
	for _, cfg := range []struct {
		name     string
		tasklets bool
	}{
		{"tasklet", true},
		{"ult", false},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			benchOne(b, microbench.NewLWT("argobots", cfg.tasklets, cfg.name), 4,
				func(sys microbench.System) { sys.TaskSingle(prm.Tasks) })
		})
	}
}

// BenchmarkAblationMassiveThreadsPolicy compares work-first and
// help-first creation (§VIII-B2) on the recursion-shaped nested tasks.
func BenchmarkAblationMassiveThreadsPolicy(b *testing.B) {
	prm := benchParams()
	for _, cfg := range []struct{ name, backend string }{
		{"work-first", "massivethreads"},
		{"help-first", "massivethreads-helpfirst"},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			benchOne(b, microbench.NewLWT(cfg.backend, false, cfg.name), 4,
				func(sys microbench.System) { sys.NestedTask(prm.Parents, prm.Children) })
		})
	}
}

// BenchmarkAblationQthreadsConfig compares the shepherd layouts of
// §VIII-B3: one shepherd per CPU vs one per node.
func BenchmarkAblationQthreadsConfig(b *testing.B) {
	prm := benchParams()
	for _, cfg := range []struct{ name, backend string }{
		{"per-cpu", "qthreads"},
		{"per-node", "qthreads-pernode"},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			benchOne(b, microbench.NewLWT(cfg.backend, false, cfg.name), 4,
				func(sys microbench.System) { sys.TaskSingle(prm.Tasks) })
		})
	}
}

// BenchmarkAblationOpenMPCutoff isolates the task cutoff of §VII-B by
// running the gcc single-region pattern with the cutoff on and off.
func BenchmarkAblationOpenMPCutoff(b *testing.B) {
	const tasks = 2000
	for _, cfg := range []struct {
		name    string
		disable bool
	}{
		{"cutoff-on", false},
		{"cutoff-off", true},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			rt := openmp.New(openmp.Config{
				Flavor: openmp.GCC, NumThreads: 4,
				WaitPolicy: openmp.Passive, DisableCutoff: cfg.disable,
			})
			defer rt.Close()
			rt.Parallel(func(tc *openmp.TeamCtx) {}) // warm the pool
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rt.Parallel(func(tc *openmp.TeamCtx) {
					tc.Single(func() {
						for j := 0; j < tasks; j++ {
							tc.Task(func() {})
						}
					})
				})
			}
		})
	}
}

// BenchmarkDirectivesOnLWT is the paper's conclusion measured (§X): the
// same OpenMP-shaped program run on the Pthreads-style runtimes (gcc,
// icc emulations) versus the directive layer over LWT backends. The LWT
// substrate should win the task-parallel and nested patterns, as the
// paper predicts for OpenMP-over-LWT.
func BenchmarkDirectivesOnLWT(b *testing.B) {
	const tasks = 500
	const outer, inner = 10, 50
	type variant struct {
		name string
		mkT  func(b *testing.B) func() // task-single pattern runner
		mkN  func(b *testing.B) func() // nested-for pattern runner
	}
	ompVariant := func(flavor openmp.Flavor) variant {
		return variant{
			name: "pthreads-" + flavor.String(),
			mkT: func(b *testing.B) func() {
				rt := openmp.New(openmp.Config{Flavor: flavor, NumThreads: 4, WaitPolicy: openmp.Passive})
				b.Cleanup(rt.Close)
				rt.Parallel(func(tc *openmp.TeamCtx) {})
				return func() {
					rt.Parallel(func(tc *openmp.TeamCtx) {
						tc.Single(func() {
							for i := 0; i < tasks; i++ {
								tc.Task(func() {})
							}
						})
					})
				}
			},
			mkN: func(b *testing.B) func() {
				rt := openmp.New(openmp.Config{Flavor: flavor, NumThreads: 4, WaitPolicy: openmp.Passive})
				b.Cleanup(rt.Close)
				rt.Parallel(func(tc *openmp.TeamCtx) {})
				return func() {
					rt.Parallel(func(tc *openmp.TeamCtx) {
						lo, hi := openmp.ChunkRange(outer, tc.NumThreads(), tc.TID())
						for i := lo; i < hi; i++ {
							tc.ParallelFor(inner, func(j int) {})
						}
					})
				}
			},
		}
	}
	lwtVariant := func(backend string) variant {
		return variant{
			name: "lwt-" + backend,
			mkT: func(b *testing.B) func() {
				rt := omplwt.MustOpen(omplwt.Config{Backend: backend, Executors: 4})
				b.Cleanup(rt.Close)
				return func() {
					rt.Parallel(func(rg *omplwt.Region, tid int) {
						rg.Single(tid, func() {
							for i := 0; i < tasks; i++ {
								rg.Task(func() {})
							}
						})
					})
				}
			},
			mkN: func(b *testing.B) func() {
				rt := omplwt.MustOpen(omplwt.Config{Backend: backend, Executors: 4})
				b.Cleanup(rt.Close)
				return func() {
					rt.Parallel(func(rg *omplwt.Region, tid int) {
						lo, hi := 0, 0
						base, rem := outer/4, outer%4
						lo = tid*base + min(tid, rem)
						hi = lo + base
						if tid < rem {
							hi++
						}
						for i := lo; i < hi; i++ {
							rg.ParallelFor(inner, omplwt.Static, 0, func(j int) {})
						}
					})
				}
			},
		}
	}
	variants := []variant{
		ompVariant(openmp.GCC),
		ompVariant(openmp.ICC),
		lwtVariant("argobots"),
		lwtVariant("qthreads"),
	}
	for _, v := range variants {
		b.Run("task-single/"+v.name, func(b *testing.B) {
			run := v.mkT(b)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				run()
			}
		})
	}
	for _, v := range variants {
		b.Run("nested-for/"+v.name, func(b *testing.B) {
			run := v.mkN(b)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				run()
			}
		})
	}
}

// BenchmarkAblationDequeLocking compares the mutex-protected deque the
// paper describes for MassiveThreads (§III-C: steals "require mutex
// protection") against the Chase-Lev lock-free deque the runtimes now
// schedule on, under an owner plus three thieves.
func BenchmarkAblationDequeLocking(b *testing.B) {
	type dq interface {
		PushBottom(ult.Unit)
		PopBottom() ult.Unit
		StealTop() ult.Unit
	}
	run := func(b *testing.B, d dq) {
		const batch = 256
		stop := make(chan struct{})
		var wg sync.WaitGroup
		for i := 0; i < 3; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					select {
					case <-stop:
						return
					default:
						d.StealTop()
					}
				}
			}()
		}
		unit := ult.NewTasklet(func() {})
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for j := 0; j < batch; j++ {
				d.PushBottom(unit)
			}
			for j := 0; j < batch; j++ {
				if d.PopBottom() == nil {
					break // thieves got there first
				}
			}
		}
		b.StopTimer()
		close(stop)
		wg.Wait()
	}
	b.Run("mutex", func(b *testing.B) { run(b, queue.NewMutexDeque(256)) })
	b.Run("lock-free", func(b *testing.B) { run(b, queue.NewDeque(256)) })
}

// BenchmarkULTCreateJoin measures the paper's own metric — the cost of
// creating and joining one work unit — on the Argobots emulation, where
// the join-and-free discipline recycles descriptors through the ult
// package's pools. Both variants run the steady-state recycled cycle:
// the ULT path reuses a pooled coroutine for the pooled descriptor
// (0 spawns) and its single allocation is the public handle,
// which doubles as the body argument; the join parks the primary in the
// unit's waiter slot after one cooperative poll.
func BenchmarkULTCreateJoin(b *testing.B) {
	for _, cfg := range []struct {
		name string
		xs   int
	}{
		{"tasklet/streams-1", 1},
		{"tasklet/streams-4", 4},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			rt := argobots.Init(argobots.Config{XStreams: cfg.xs})
			defer rt.Finalize()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tk := rt.TaskCreate(func() {})
				if err := rt.TaskFree(tk); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	b.Run("ult/streams-1", func(b *testing.B) {
		rt := argobots.Init(argobots.Config{XStreams: 1})
		defer rt.Finalize()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			th := rt.ThreadCreate(func(*argobots.Context) {})
			if err := rt.ThreadFree(th); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkServeThroughput measures the request-serving subsystem on
// every registered backend under open-loop load: a fixed producer group
// submits all b.N requests without waiting for completions (arrival is
// decoupled from service, as in real traffic), then awaits every Future.
// The shards axis compares the single-shard engine against a 4-shard
// pool at a constant total executor budget (GOMAXPROCS executors split
// across shards), so the measured delta is the dispatcher bottleneck,
// not added parallelism. Besides ns/op it reports requests/second and
// the serving layer's own P50/P99 request latency, making the backends'
// serving behaviour directly comparable.
func BenchmarkServeThroughput(b *testing.B) {
	const producers = 4
	work := func() (float32, error) {
		v := make([]float32, 256)
		blas.Iota(v)
		blas.Sscal(v, 1.5) // Listing 5's kernel as the request body
		return v[len(v)-1], nil
	}
	for _, backend := range lwt.Backends() {
		for _, shards := range []int{1, 4} {
			b.Run(fmt.Sprintf("%s/shards=%d", backend, shards), func(b *testing.B) {
				threads := runtime.GOMAXPROCS(0) / shards
				if threads < 1 {
					threads = 1
				}
				srv, err := lwt.NewServer(lwt.ServeOptions{
					Backend: backend, Threads: threads, Shards: shards,
					QueueDepth: 256,
				})
				if err != nil {
					b.Fatal(err)
				}
				defer srv.Close()
				sub := srv.Submitter()
				futs := make([][]*lwt.Future[float32], producers)
				b.ResetTimer()
				var wg sync.WaitGroup
				for p := 0; p < producers; p++ {
					share := b.N / producers
					if p < b.N%producers {
						share++
					}
					wg.Add(1)
					go func(p, share int) {
						defer wg.Done()
						fs := make([]*lwt.Future[float32], 0, share)
						for i := 0; i < share; i++ {
							f, err := lwt.Do(sub, context.Background(), work, lwt.Req{})
							if err != nil {
								b.Errorf("submit: %v", err)
								break
							}
							fs = append(fs, f)
						}
						futs[p] = fs
					}(p, share)
				}
				wg.Wait()
				for _, fs := range futs {
					for _, f := range fs {
						if _, err := f.Wait(context.Background()); err != nil {
							b.Fatalf("wait: %v", err)
						}
					}
				}
				b.StopTimer()
				if secs := b.Elapsed().Seconds(); secs > 0 {
					b.ReportMetric(float64(b.N)/secs, "req/s")
				}
				if m := srv.Metrics(); m.Latency.Total() > 0 {
					b.ReportMetric(float64(m.Latency.Quantile(0.5))/1e3, "p50-µs")
					b.ReportMetric(float64(m.Latency.Quantile(0.99))/1e3, "p99-µs")
				}
			})
		}
	}
}

// BenchmarkServeDeadlineThroughput measures what carrying an
// end-to-end deadline costs the serving hot path: the same open-loop
// producer group as BenchmarkServeThroughput, but every request is
// submitted through SubmitDeadline with a budget that never fires
// (30s), so the measured delta against the plain mode is pure deadline
// bookkeeping — the per-request expiry check at launch and the
// deadline plumbing through the queue — not any shedding. The modes
// share one process so the comparison is same-machine, same-state;
// the robustness acceptance gate is deadline/plain < 2% on the go
// backend at shards=4.
func BenchmarkServeDeadlineThroughput(b *testing.B) {
	const producers = 4
	work := func() (float32, error) {
		v := make([]float32, 256)
		blas.Iota(v)
		blas.Sscal(v, 1.5)
		return v[len(v)-1], nil
	}
	for _, backend := range lwt.Backends() {
		for _, mode := range []string{"plain", "deadline"} {
			mode := mode
			b.Run(fmt.Sprintf("%s/%s", backend, mode), func(b *testing.B) {
				const shards = 4
				threads := runtime.GOMAXPROCS(0) / shards
				if threads < 1 {
					threads = 1
				}
				srv, err := lwt.NewServer(lwt.ServeOptions{
					Backend: backend, Threads: threads, Shards: shards,
					QueueDepth: 256,
				})
				if err != nil {
					b.Fatal(err)
				}
				defer srv.Close()
				sub := srv.Submitter()
				futs := make([][]*lwt.Future[float32], producers)
				b.ResetTimer()
				var wg sync.WaitGroup
				for p := 0; p < producers; p++ {
					share := b.N / producers
					if p < b.N%producers {
						share++
					}
					wg.Add(1)
					go func(p, share int) {
						defer wg.Done()
						fs := make([]*lwt.Future[float32], 0, share)
						for i := 0; i < share; i++ {
							var f *lwt.Future[float32]
							var err error
							if mode == "deadline" {
								f, err = lwt.Do(sub, context.Background(), work, lwt.Req{Deadline: time.Now().Add(30 * time.Second)})
							} else {
								f, err = lwt.Do(sub, context.Background(), work, lwt.Req{})
							}
							if err != nil {
								b.Errorf("submit: %v", err)
								break
							}
							fs = append(fs, f)
						}
						futs[p] = fs
					}(p, share)
				}
				wg.Wait()
				for _, fs := range futs {
					for _, f := range fs {
						if _, err := f.Wait(context.Background()); err != nil {
							b.Fatalf("wait: %v", err)
						}
					}
				}
				b.StopTimer()
				if secs := b.Elapsed().Seconds(); secs > 0 {
					b.ReportMetric(float64(b.N)/secs, "req/s")
				}
			})
		}
	}
}

// BenchmarkServeIOThroughput measures what the async-I/O reactor buys
// the serving layer: every request simulates a 10ms downstream call,
// either blocking its executor for the duration (time.Sleep in the
// handler — the pre-reactor behaviour) or parking on the reactor
// (lwt.Sleep — the handler holds no executor while it waits). The
// executor budget is fixed at 4 split across the shard axis, so
// blocking throughput is capped near executors/10ms = 400 req/s while
// reactor throughput is capped by MaxInFlight — the measured gap is the
// executor occupancy the reactor reclaims, not added parallelism.
//
// With LWT_BENCH_IO_JSON set, the best (minimum ns/op) cell per
// backend/mode/shards lands in BENCH_fig-io.json for cmd/benchgate —
// series "backend/mode" over the shards axis, figure number 10 (the
// paper's figures end at 8; 10 is this repo's serving extension). The
// emission is opt-in so a -benchtime=1x smoke run cannot overwrite a
// properly measured baseline cell with a single-shot sample.
func BenchmarkServeIOThroughput(b *testing.B) {
	const ioWait = 10 * time.Millisecond
	const producers = 32
	const totalExecutors = 4
	modes := []string{"blocking", "reactor"}
	shardAxis := []int{1, 4}
	type ioCell struct {
		system string
		shards int
	}
	best := map[ioCell]int64{}
	for _, backend := range lwt.Backends() {
		for _, mode := range modes {
			for _, shards := range shardAxis {
				mode := mode
				b.Run(fmt.Sprintf("%s/%s/shards=%d", backend, mode, shards), func(b *testing.B) {
					threads := totalExecutors / shards
					if threads < 1 {
						threads = 1
					}
					srv, err := lwt.NewServer(lwt.ServeOptions{
						Backend: backend, Threads: threads, Shards: shards,
						QueueDepth: 256,
					})
					if err != nil {
						b.Fatal(err)
					}
					defer srv.Close()
					sub := srv.Submitter()
					body := func(c lwt.Ctx) (float64, error) {
						if mode == "blocking" {
							time.Sleep(ioWait)
						} else {
							lwt.Sleep(c, ioWait)
						}
						return 1, nil
					}
					futs := make([][]*lwt.Future[float64], producers)
					b.ResetTimer()
					var wg sync.WaitGroup
					for p := 0; p < producers; p++ {
						share := b.N / producers
						if p < b.N%producers {
							share++
						}
						wg.Add(1)
						go func(p, share int) {
							defer wg.Done()
							fs := make([]*lwt.Future[float64], 0, share)
							for i := 0; i < share; i++ {
								f, err := lwt.DoULT(sub, context.Background(), body, lwt.Req{})
								if err != nil {
									b.Errorf("submit: %v", err)
									break
								}
								fs = append(fs, f)
							}
							futs[p] = fs
						}(p, share)
					}
					wg.Wait()
					for _, fs := range futs {
						for _, f := range fs {
							if _, err := f.Wait(context.Background()); err != nil {
								b.Fatalf("wait: %v", err)
							}
						}
					}
					b.StopTimer()
					if secs := b.Elapsed().Seconds(); secs > 0 {
						b.ReportMetric(float64(b.N)/secs, "req/s")
					}
					nsop := b.Elapsed().Nanoseconds() / int64(b.N)
					key := ioCell{system: backend + "/" + mode, shards: shards}
					if prev, ok := best[key]; !ok || nsop < prev {
						best[key] = nsop
					}
				})
			}
		}
	}
	if os.Getenv("LWT_BENCH_IO_JSON") == "" {
		return
	}
	fig := microbench.FigureJSON{
		Figure:  10,
		Pattern: "fig-io",
		Title:   "Serve throughput under 10ms simulated I/O: blocking vs reactor handlers",
		Env: microbench.EnvJSON{
			GoVersion: runtime.Version(),
			GOOS:      runtime.GOOS,
			GOARCH:    runtime.GOARCH,
			NumCPU:    runtime.NumCPU(),
		},
	}
	for _, backend := range lwt.Backends() {
		for _, mode := range modes {
			s := microbench.SeriesJSON{System: backend + "/" + mode}
			for _, shards := range shardAxis {
				nsop, ok := best[ioCell{system: s.System, shards: shards}]
				if !ok {
					continue
				}
				s.Points = append(s.Points, microbench.PointJSON{
					Threads: shards, MeanNs: nsop, MinNs: nsop, MaxNs: nsop, Reps: 1,
				})
			}
			if len(s.Points) > 0 {
				fig.Series = append(fig.Series, s)
			}
		}
	}
	if len(fig.Series) > 0 {
		if err := microbench.WriteFigureJSON("BENCH_fig-io.json", fig); err != nil {
			b.Fatalf("write BENCH_fig-io.json: %v", err)
		}
	}
}

// BenchmarkServeAdaptive measures what idle-shard work stealing buys
// under skewed session traffic. Sixteen producers drive a
// zipf-keyed/unkeyed mix of 2ms blocking handlers into a 4-shard pool,
// once static and once with stealing on (mode "adaptive"). The handlers
// sleep, so executors — not the CPU — are the scarce resource, and
// stealing lets an idle shard drain the unkeyed backlog skew piles onto
// hot shards. Both throughput (req/s) and the serving layer's own
// end-to-end P99 (p99-ms, submission call to completion, backpressure
// included) are reported.
//
// With LWT_BENCH_ADAPTIVE_JSON set, the best (minimum ns/op) cell per
// backend/mode lands in BENCH_fig-adaptive.json for cmd/benchgate —
// series "backend/mode" at the shard count, figure number 11
// (this repo's serving extension, after fig-io's 10), with the P99 of
// the best rep in p99_ns. Opt-in so a -benchtime=1x smoke run cannot
// overwrite a properly measured baseline cell.
func BenchmarkServeAdaptive(b *testing.B) {
	const (
		shards    = 4
		producers = 16
		workMs    = 2 * time.Millisecond
		hotKeys   = 64
	)
	backends := []string{"go", "argobots"}
	modes := []string{"static", "adaptive"}
	type cell struct{ system string }
	type sample struct {
		nsop int64
		p99  time.Duration
	}
	best := map[cell]sample{}
	for _, backend := range backends {
		for _, mode := range modes {
			mode := mode
			b.Run(fmt.Sprintf("%s/%s", backend, mode), func(b *testing.B) {
				opts := lwt.ServeOptions{
					Backend: backend, Threads: 1, Shards: shards,
					QueueDepth: 64, MaxInFlight: 2,
					Steal: mode == "adaptive",
				}
				srv, err := lwt.NewServer(opts)
				if err != nil {
					b.Fatal(err)
				}
				defer srv.Close()
				sub := srv.Submitter()
				body := func() (float64, error) {
					time.Sleep(workMs)
					return 1, nil
				}
				futs := make([][]*lwt.Future[float64], producers)
				b.ResetTimer()
				var wg sync.WaitGroup
				for p := 0; p < producers; p++ {
					share := b.N / producers
					if p < b.N%producers {
						share++
					}
					wg.Add(1)
					go func(p, share int) {
						defer wg.Done()
						rng := rand.New(rand.NewSource(int64(p) + 1))
						zipf := rand.NewZipf(rng, 1.4, 1, hotKeys-1)
						fs := make([]*lwt.Future[float64], 0, share)
						for i := 0; i < share; i++ {
							req := lwt.Req{}
							if i%2 == 0 {
								// Session-keyed half: zipf-skewed, so a
								// few hot keys concentrate on few shards.
								req.Key = fmt.Sprintf("sess-%d", zipf.Uint64())
							}
							f, err := lwt.Do(sub, context.Background(), body, req)
							if err != nil {
								b.Errorf("submit: %v", err)
								break
							}
							fs = append(fs, f)
						}
						futs[p] = fs
					}(p, share)
				}
				wg.Wait()
				for _, fs := range futs {
					for _, f := range fs {
						if _, err := f.Wait(context.Background()); err != nil {
							b.Fatalf("wait: %v", err)
						}
					}
				}
				b.StopTimer()
				m := srv.Metrics()
				if secs := b.Elapsed().Seconds(); secs > 0 {
					b.ReportMetric(float64(b.N)/secs, "req/s")
				}
				b.ReportMetric(float64(m.Latency.Quantile(0.99))/1e6, "p99-ms")
				if mode == "adaptive" {
					b.ReportMetric(float64(m.Steals), "steals")
				}
				nsop := b.Elapsed().Nanoseconds() / int64(b.N)
				key := cell{system: backend + "/" + mode}
				if prev, ok := best[key]; !ok || nsop < prev.nsop {
					best[key] = sample{nsop: nsop, p99: m.Latency.Quantile(0.99)}
				}
			})
		}
	}
	if os.Getenv("LWT_BENCH_ADAPTIVE_JSON") == "" {
		return
	}
	fig := microbench.FigureJSON{
		Figure:  11,
		Pattern: "fig-adaptive",
		Title:   "Shard pool under zipf-skewed load: static vs steal",
		Env: microbench.EnvJSON{
			GoVersion: runtime.Version(),
			GOOS:      runtime.GOOS,
			GOARCH:    runtime.GOARCH,
			NumCPU:    runtime.NumCPU(),
		},
	}
	for _, backend := range backends {
		for _, mode := range modes {
			sm, ok := best[cell{system: backend + "/" + mode}]
			if !ok {
				continue
			}
			fig.Series = append(fig.Series, microbench.SeriesJSON{
				System: backend + "/" + mode,
				Points: []microbench.PointJSON{{
					Threads: shards,
					MeanNs:  sm.nsop, MinNs: sm.nsop, MaxNs: sm.nsop,
					P99Ns: sm.p99.Nanoseconds(), Reps: 1,
				}},
			})
		}
	}
	if len(fig.Series) > 0 {
		if err := microbench.WriteFigureJSON("BENCH_fig-adaptive.json", fig); err != nil {
			b.Fatalf("write BENCH_fig-adaptive.json: %v", err)
		}
	}
}

// BenchmarkAblationRawGoroutines compares the 2016 global-queue Go model
// against the real Go scheduler on the same pattern, quantifying what the
// single shared queue costs.
func BenchmarkAblationRawGoroutines(b *testing.B) {
	prm := benchParams()
	for _, cfg := range []struct {
		name string
		mk   func() microbench.System
	}{
		{"global-queue-model", func() microbench.System { return microbench.NewLWT("go", false, "model") }},
		{"native-goroutines", microbench.NewNativeGo},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			benchOne(b, cfg.mk(), 4,
				func(sys microbench.System) { sys.TaskSingle(prm.Tasks) })
		})
	}
}
