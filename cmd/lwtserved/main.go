// Lwtserved is the serving subsystem end to end: an HTTP server that
// answers compute requests by submitting work into LWT backends through
// the serve layer's shard pool. Every registered backend serves
// concurrently; the ?backend= query parameter selects which runtime
// executes a request, -shards runs that many independent runtimes per
// backend, and -router picks how unkeyed requests spread across them.
//
// Endpoints:
//
//	/fib?n=28&cutoff=12&backend=argobots   recursive task parallelism (ULT per branch)
//	/dgemm?n=96&chunks=4&backend=qthreads  BLAS-3 GEMM decomposed across ULTs
//	/parfor?n=1048576&backend=go           parallel for over a vector via the omp layer
//	/io?ms=10&backend=go                   simulated I/O: the handler parks on the
//	                                       async-I/O reactor for ms milliseconds, holding
//	                                       no executor while it waits
//	/fibio?n=24&fan=4&ms=10&backend=go     fib compute overlapped with a fan of parked
//	                                       I/O waits (downstream-call shape)
//	/metrics                               Prometheus text exposition: per-shard queue depth,
//	                                       in-flight, I/O-parked, latency histograms, and
//	                                       scheduler steal/contention counters
//	/metrics.json                          per-backend aggregate + per-shard serve.Metrics as JSON
//	/debug/trace                           flight-recorder dump; ?format=json (default) for the
//	                                       raw dump, chrome for chrome://tracing / Perfetto,
//	                                       breakdown for the paper-style percentage table
//	/backends                              registered backend names
//	/healthz                               liveness (200 while the process serves)
//	/readyz                                readiness (503 from the moment SIGTERM arrives)
//
// Tracing is always on: every backend executor and serve shard records
// into bounded per-executor ring buffers (a flight recorder — newest
// events win). Besides the /debug/trace endpoint, SIGUSR2 writes a dump
// file into -trace-dir, and the serving layer's anomaly watchdog writes
// one automatically when it sees a P99 latency spike or sustained
// saturation — while the recorder's window still holds the anomaly.
// Set LWT_TRACE_OFF=1 to disable recording entirely.
//
// Flags:
//
//	-shards N          backend runtime shards per backend (0: one per CPU)
//	-router NAME       unkeyed routing policy: p2c (default), roundrobin, random
//	-drain D           graceful-drain budget at shutdown (0: unbounded)
//	-threads N         executors per shard
//	-queue N           submission queue depth per shard
//	-inflight N        max in-flight work units per shard (0: queue depth)
//	-scheduler S       ready-pool policy per backend runtime
//	-steal             idle shards steal unkeyed backlog from loaded ones
//	                   (default on; keyed requests never move)
//	-autoscale-max N   shard-pool ceiling per backend, all started with the
//	                   backend (those past -shards parked); sustained
//	                   saturation grows the routing set toward it,
//	                   sustained idleness shrinks back to -shards
//	                   (0: autoscaling off)
//	-scale-interval D  autoscaler sample period
//
// Admission control maps to HTTP: a saturated backend answers 503 with
// Retry-After (after one re-route to the least-loaded shard); pass
// wait=1 to block (with the request's context) instead of fast-failing.
// Pass key=SESSION to pin the request to one shard by key hash — every
// request with the same key hits the same runtime, so its backend-local
// state stays warm. An X-LWT-Deadline-Ms header (what lwtgate forwards)
// or ?deadline_ms= parameter bounds the request end to end: still
// queued when the budget runs out, it is shed without running; already
// launched, the handler's parked waits wake early with a cancellation
// error. Either way the response is 504 Gateway Timeout. Request latency percentiles come from the serving
// layer's own latency histogram. On SIGINT/SIGTERM the daemon flips
// /readyz to 503 first (so a cluster router stops sending work), then
// stops admission, drains every shard (each accepted request resolves),
// and exits 0.
//
// -addr accepts :0 for an ephemeral port; the daemon prints the actual
// bound address as a parseable "listening on <addr>" line before
// serving, so lwtgate and CI can boot N workers without port races.
//
//	go run ./cmd/lwtserved -addr :8080 -shards 4
//	curl 'localhost:8080/fib?n=30&backend=massivethreads&key=sess-7'
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	lwt "repro"
	"repro/internal/blas"
	"repro/internal/cluster"
	"repro/internal/prom"
	"repro/internal/serve"
	"repro/internal/trace"
	"repro/omp"
)

var (
	addr      = flag.String("addr", ":8080", "listen address (:0 binds an ephemeral port, announced via the 'listening on' log line)")
	threads   = flag.Int("threads", 4, "executors per backend runtime shard")
	scheduler = flag.String("scheduler", "", "ready-pool policy per backend (fifo|lifo|priority|random; empty: backend default)")
	shards    = flag.Int("shards", 0, "backend runtime shards per backend (0: one per CPU)")
	router    = flag.String("router", "p2c", "unkeyed shard routing policy (p2c|roundrobin|random)")
	queue     = flag.Int("queue", 1024, "submission queue depth per shard")
	inflight  = flag.Int("inflight", 0, "max in-flight work units per shard (0: queue depth)")
	drain     = flag.Duration("drain", 30*time.Second, "graceful-drain budget at shutdown (0: unbounded)")
	notReady  = flag.Duration("notready-grace", 250*time.Millisecond, "window between /readyz flipping 503 and the listener closing, so health probes observe the flip")
	traceDir  = flag.String("trace-dir", ".", "directory for flight-recorder dump files (SIGUSR2 and anomaly dumps)")
	anomEvery = flag.Duration("anomaly-interval", serve.DefaultAnomalyInterval, "anomaly watchdog sample period")
	steal     = flag.Bool("steal", true, "idle shards steal unkeyed queued requests from the most-loaded shard (keyed work never moves)")
	scaleMax  = flag.Int("autoscale-max", 0, "autoscaler shard ceiling per backend (0 or <= -shards: autoscaling off)")
	scaleTick = flag.Duration("scale-interval", serve.DefaultScaleInterval, "autoscaler sample period")
)

// dumpTrace snapshots the process-global flight recorder and writes it
// to a timestamped file in -trace-dir. Used by the SIGUSR2 handler and
// the serve anomaly watchdog; /debug/trace streams instead.
func dumpTrace(reason string) {
	d := trace.Default().Snapshot(reason)
	tag := reason
	if i := strings.IndexAny(tag, ": "); i >= 0 {
		tag = tag[:i]
	}
	name := filepath.Join(*traceDir,
		fmt.Sprintf("lwt-trace-%s-%s.json", tag, time.Now().Format("20060102-150405.000")))
	f, err := os.Create(name)
	if err != nil {
		log.Printf("lwtserved: trace dump: %v", err)
		return
	}
	defer f.Close()
	if _, err := d.WriteTo(f); err != nil {
		log.Printf("lwtserved: trace dump: %v", err)
		return
	}
	log.Printf("lwtserved: trace dump (%s): %d events -> %s", reason, len(d.Events), name)
}

// registry lazily creates one serving engine and one omp worker per
// backend, on first use.
type registry struct {
	mu      sync.Mutex
	servers map[string]*lwt.Server
	omps    map[string]*ompWorker
}

func (g *registry) server(backend string) (*lwt.Server, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if s, ok := g.servers[backend]; ok {
		return s, nil
	}
	// Each server gets its own router instance so round-robin cursors
	// and the like are never shared across backends.
	rt, err := lwt.RouterByName(*router)
	if err != nil {
		return nil, err
	}
	s, err := lwt.NewServer(lwt.ServeOptions{
		Backend: backend, Threads: *threads, Scheduler: *scheduler,
		Shards: *shards, Router: rt,
		QueueDepth: *queue, MaxInFlight: *inflight,
		DrainTimeout: *drain,
		Steal:        *steal,
		Scale:        lwt.AutoScale{MaxShards: *scaleMax, Interval: *scaleTick},
		// Anomaly-triggered flight-recorder dump: the watchdog fires
		// while the trace window still holds the spike it detected.
		AnomalyInterval: *anomEvery,
		OnAnomaly: func(reason string, m serve.Metrics) {
			log.Printf("lwtserved: anomaly on %s: %s", backend, reason)
			dumpTrace("anomaly-" + backend)
		},
	})
	if err != nil {
		return nil, err
	}
	g.servers[backend] = s
	return s, nil
}

func (g *registry) omp(backend string) (*ompWorker, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if w, ok := g.omps[backend]; ok {
		return w, nil
	}
	w, err := newOmpWorker(backend, *threads)
	if err != nil {
		return nil, err
	}
	g.omps[backend] = w
	return w, nil
}

func (g *registry) closeAll() {
	g.mu.Lock()
	defer g.mu.Unlock()
	for _, s := range g.servers {
		s.Close()
	}
	for _, w := range g.omps {
		w.close()
	}
}

// ompWorker confines one omp.Runtime to a dedicated master goroutine:
// the directive layer (like the C libraries it models) is driven from
// the thread that initialized it, so HTTP handlers hand their loops to
// the worker instead of calling the runtime directly.
type ompWorker struct {
	jobs chan func(*omp.Runtime)
	done chan struct{}
}

func newOmpWorker(backend string, threads int) (*ompWorker, error) {
	w := &ompWorker{jobs: make(chan func(*omp.Runtime), 64), done: make(chan struct{})}
	ready := make(chan error)
	go func() {
		rt, err := omp.Open(omp.Config{Backend: backend, Executors: threads, Scheduler: *scheduler})
		ready <- err
		if err != nil {
			close(w.done)
			return
		}
		defer close(w.done)
		defer rt.Close()
		for job := range w.jobs {
			job(rt)
		}
	}()
	if err := <-ready; err != nil {
		return nil, err
	}
	return w, nil
}

// run executes job on the worker's master goroutine and waits for it.
func (w *ompWorker) run(job func(*omp.Runtime)) {
	wait := make(chan struct{})
	w.jobs <- func(rt *omp.Runtime) {
		defer close(wait)
		job(rt)
	}
	<-wait
}

func (w *ompWorker) close() {
	close(w.jobs)
	<-w.done
}

// qint parses an integer query parameter with a default and bounds.
func qint(r *http.Request, name string, def, lo, hi int) int {
	v := r.URL.Query().Get(name)
	if v == "" {
		return def
	}
	n, err := strconv.Atoi(v)
	if err != nil || n < lo {
		return def
	}
	if n > hi {
		return hi
	}
	return n
}

// backendOf validates the ?backend= selector.
func backendOf(r *http.Request) (string, error) {
	b := r.URL.Query().Get("backend")
	if b == "" {
		return "go", nil
	}
	for _, name := range lwt.Backends() {
		if name == b {
			return b, nil
		}
	}
	return "", fmt.Errorf("unknown backend %q (have %v)", b, lwt.Backends())
}

// reply writes a JSON response.
func reply(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// submitErr maps submission errors to HTTP statuses.
func submitErr(w http.ResponseWriter, err error) {
	switch {
	case err == lwt.ErrSaturated:
		w.Header().Set("Retry-After", "1")
		reply(w, http.StatusServiceUnavailable, map[string]string{"error": err.Error()})
	case err == lwt.ErrServerClosed:
		reply(w, http.StatusServiceUnavailable, map[string]string{"error": err.Error()})
	default:
		reply(w, http.StatusInternalServerError, map[string]string{"error": err.Error()})
	}
}

// waitErr maps a Future resolution error to HTTP: a request that died
// because its end-to-end budget ran out — shed from the queue
// (ErrExpired), cancelled mid-run (ErrCanceled), or the deadline-
// carrying context gave out — answers 504 Gateway Timeout so the
// caller can tell "out of time" from "handler failed" (500).
func waitErr(w http.ResponseWriter, err error) {
	status := http.StatusInternalServerError
	if errors.Is(err, lwt.ErrExpired) || errors.Is(err, lwt.ErrCanceled) ||
		errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
		status = http.StatusGatewayTimeout
	}
	reply(w, status, map[string]string{"error": err.Error()})
}

// result is the common response envelope.
type result struct {
	Backend string  `json:"backend"`
	N       int     `json:"n"`
	Value   float64 `json:"value"`
	Micros  int64   `json:"micros"`
}

// handle wires one compute endpoint: resolve the backend's server,
// submit (blocking when wait=1), await the Future with the request's
// context, and render.
func handle(g *registry, compute func(r *http.Request, sub *lwt.Submitter, n int) (*lwt.Future[float64], error), defN, maxN int) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		backend, err := backendOf(r)
		if err != nil {
			reply(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
			return
		}
		srv, err := g.server(backend)
		if err != nil {
			reply(w, http.StatusInternalServerError, map[string]string{"error": err.Error()})
			return
		}
		n := qint(r, "n", defN, 1, maxN)
		t0 := time.Now()
		f, err := compute(r, srv.Submitter(), n)
		if err != nil {
			submitErr(w, err)
			return
		}
		// The deadline bounds the Wait too: a body that never observes
		// the cooperative cancel signal still must not hold the reply
		// past the budget — the caller gets 504 while the work unit
		// runs to completion in the background.
		wctx := r.Context()
		if dl := cluster.RequestDeadline(r); !dl.IsZero() {
			var cancel context.CancelFunc
			wctx, cancel = context.WithDeadline(wctx, dl)
			defer cancel()
		}
		v, err := f.Wait(wctx)
		if err != nil {
			waitErr(w, err)
			return
		}
		reply(w, http.StatusOK, result{Backend: backend, N: n, Value: v, Micros: time.Since(t0).Microseconds()})
	}
}

// submitULT routes one ULT-shaped request: ?key= pins it to a shard by
// affinity hash, ?wait=1 blocks on a full queue instead of fast-failing
// with 503, and a deadline (header or ?deadline_ms=) bounds the whole
// stay — queued past the budget sheds with ErrExpired, launched
// handlers see the cooperative cancellation signal.
func submitULT(r *http.Request, sub *lwt.Submitter, body func(lwt.Ctx) (float64, error)) (*lwt.Future[float64], error) {
	q := r.URL.Query()
	req := lwt.Req{Key: q.Get("key"), Deadline: cluster.RequestDeadline(r), NonBlocking: q.Get("wait") != "1"}
	ctx := r.Context()
	if req.NonBlocking {
		ctx = nil
	}
	return lwt.DoULT(sub, ctx, body, req)
}

// fib computes fib(n) with a ULT per left branch below the cutoff.
func fib(c lwt.Ctx, n, cutoff int) uint64 {
	if n < 2 {
		return uint64(n)
	}
	if n < cutoff {
		return fib(c, n-1, cutoff) + fib(c, n-2, cutoff)
	}
	var left uint64
	h := c.ULTCreate(func(cc lwt.Ctx) { left = fib(cc, n-1, cutoff) })
	right := fib(c, n-2, cutoff)
	c.Join(h)
	return left + right
}

func main() {
	flag.Parse()
	if _, err := lwt.RouterByName(*router); err != nil {
		log.Fatalf("lwtserved: %v", err)
	}
	g := &registry{servers: map[string]*lwt.Server{}, omps: map[string]*ompWorker{}}

	mux := http.NewServeMux()

	// Task parallelism: a ULT tree on the serving runtime.
	mux.HandleFunc("/fib", handle(g, func(r *http.Request, sub *lwt.Submitter, n int) (*lwt.Future[float64], error) {
		cutoff := qint(r, "cutoff", 12, 2, 64)
		// Bound the spawn tree: the ULT count grows like fib(n-cutoff),
		// so an adversarial n=45&cutoff=2 would create ~10^8 work units
		// from one request. Cap the spawning depth at 20 levels
		// (≲ 20k ULTs); the remainder runs sequentially.
		if cutoff < n-20 {
			cutoff = n - 20
		}
		body := func(c lwt.Ctx) (float64, error) { return float64(fib(c, n, cutoff)), nil }
		return submitULT(r, sub, body)
	}, 28, 45))

	// BLAS-3: C ← A·B + C decomposed into row-range ULTs.
	mux.HandleFunc("/dgemm", handle(g, func(r *http.Request, sub *lwt.Submitter, n int) (*lwt.Future[float64], error) {
		chunks := qint(r, "chunks", *threads, 1, 64)
		body := func(c lwt.Ctx) (float64, error) {
			a := make([]float64, n*n)
			b := make([]float64, n*n)
			cm := make([]float64, n*n)
			for i := range a {
				a[i] = float64(i%7) * 0.5
				b[i] = float64(i%5) * 0.25
			}
			hs := make([]lwt.Handle, 0, chunks)
			for k := 0; k < chunks; k++ {
				lo, hi := k*n/chunks, (k+1)*n/chunks
				if lo == hi {
					continue
				}
				hs = append(hs, c.ULTCreate(func(lwt.Ctx) {
					blas.DgemmRows(n, a, b, cm, lo, hi)
				}))
			}
			for _, h := range hs {
				c.Join(h)
			}
			var sum float64
			for _, x := range cm {
				sum += x
			}
			return sum, nil
		}
		return submitULT(r, sub, body)
	}, 96, 512))

	// Simulated I/O: the handler parks on the async-I/O reactor for
	// ?ms= milliseconds. On AsyncIO backends the wait holds no executor
	// — the serving layer discounts parked handlers from its in-flight
	// gate — so a burst of these does not serialize on executor count
	// the way a blocking sleep would. Returns the measured wait in
	// milliseconds.
	mux.HandleFunc("/io", handle(g, func(r *http.Request, sub *lwt.Submitter, n int) (*lwt.Future[float64], error) {
		// The documented knob is ?ms= (README, serve-smoke); ?n= keeps
		// working as the handle()-provided fallback.
		ms := qint(r, "ms", n, 1, 10_000)
		body := func(c lwt.Ctx) (float64, error) {
			t0 := time.Now()
			if err := lwt.Sleep(c, time.Duration(ms)*time.Millisecond); err != nil {
				return 0, err // budget ran out mid-park: surface as 504
			}
			return float64(time.Since(t0).Microseconds()) / 1e3, nil
		}
		return submitULT(r, sub, body)
	}, 10, 10_000))

	// Compute overlapped with I/O: fan out ?fan= parked waits of ?ms=
	// milliseconds (the shape of a request issuing downstream calls),
	// run the fib tree while they sleep, then join the fan. Ideal
	// latency is max(compute, ms), not compute + fan*ms.
	mux.HandleFunc("/fibio", handle(g, func(r *http.Request, sub *lwt.Submitter, n int) (*lwt.Future[float64], error) {
		cutoff := qint(r, "cutoff", 12, 2, 64)
		if cutoff < n-20 {
			cutoff = n - 20
		}
		fan := qint(r, "fan", 4, 1, 64)
		ms := qint(r, "ms", 10, 0, 10_000)
		body := func(c lwt.Ctx) (float64, error) {
			hs := make([]lwt.Handle, fan)
			for i := range hs {
				hs[i] = c.ULTCreate(func(cc lwt.Ctx) {
					lwt.Sleep(cc, time.Duration(ms)*time.Millisecond)
				})
			}
			v := fib(c, n, cutoff)
			for _, h := range hs {
				c.Join(h)
			}
			return float64(v), nil
		}
		return submitULT(r, sub, body)
	}, 24, 45))

	// Loop parallelism through the omp directive layer, on its own
	// master goroutine per backend.
	mux.HandleFunc("/parfor", func(w http.ResponseWriter, r *http.Request) {
		backend, err := backendOf(r)
		if err != nil {
			reply(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
			return
		}
		worker, err := g.omp(backend)
		if err != nil {
			reply(w, http.StatusInternalServerError, map[string]string{"error": err.Error()})
			return
		}
		n := qint(r, "n", 1<<20, 1, 1<<24)
		t0 := time.Now()
		v := make([]float32, n)
		blas.Fill(v, 2)
		worker.run(func(rt *omp.Runtime) {
			rt.ParallelFor(n, omp.Static, 0, func(i int) { v[i] *= 1.5 })
		})
		reply(w, http.StatusOK, result{Backend: backend, N: n, Value: float64(blas.Sasum(v)), Micros: time.Since(t0).Microseconds()})
	})

	// backendMetrics is one backend's /metrics row: the cross-shard
	// aggregate plus one row per shard.
	type backendMetrics struct {
		Aggregate serve.Metrics   `json:"aggregate"`
		Shards    []serve.Metrics `json:"shards"`
	}
	// snapshotAll reads every live server once, in stable backend order.
	snapshotAll := func() []backendMetrics {
		g.mu.Lock()
		names := make([]string, 0, len(g.servers))
		for name := range g.servers {
			names = append(names, name)
		}
		sort.Strings(names)
		out := make([]backendMetrics, 0, len(names))
		for _, name := range names {
			agg, shards := g.servers[name].Snapshot()
			out = append(out, backendMetrics{Aggregate: agg, Shards: shards})
		}
		g.mu.Unlock()
		return out
	}

	// Prometheus text exposition (the scrape target); the previous JSON
	// view moved to /metrics.json.
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		views := make([]serve.View, 0, 8)
		for _, bm := range snapshotAll() {
			views = append(views, serve.View{Aggregate: bm.Aggregate, Shards: bm.Shards})
		}
		w.Header().Set("Content-Type", prom.ContentType)
		_, _ = serve.WriteProm(w, views...)
	})
	mux.HandleFunc("/metrics.json", func(w http.ResponseWriter, r *http.Request) {
		reply(w, http.StatusOK, snapshotAll())
	})

	// Flight-recorder dump on demand. The snapshot is non-destructive:
	// the rings keep recording while (and after) it is taken.
	mux.HandleFunc("/debug/trace", func(w http.ResponseWriter, r *http.Request) {
		d := trace.Default().Snapshot("http")
		switch f := r.URL.Query().Get("format"); f {
		case "", "json":
			w.Header().Set("Content-Type", "application/json")
			_, _ = d.WriteTo(w)
		case "chrome":
			w.Header().Set("Content-Type", "application/json")
			w.Header().Set("Content-Disposition", `attachment; filename="lwt-trace-chrome.json"`)
			_ = trace.WriteChromeTrace(w, d.Events)
		case "breakdown":
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			sum := trace.Summarize(d.Events)
			_, _ = io.WriteString(w, sum.Render())
		default:
			reply(w, http.StatusBadRequest, map[string]string{
				"error": fmt.Sprintf("unknown format %q (json|chrome|breakdown)", f)})
		}
	})

	mux.HandleFunc("/backends", func(w http.ResponseWriter, r *http.Request) {
		reply(w, http.StatusOK, lwt.Backends())
	})

	// Liveness vs readiness: /healthz answers 200 for the process's
	// whole life (a router's health checker probes it), while /readyz
	// flips to 503 the moment a shutdown signal arrives — *before* the
	// drain starts — so a cluster router stops routing new work to a
	// draining worker while its in-flight requests finish.
	var ready atomic.Bool
	ready.Store(true)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		reply(w, http.StatusOK, map[string]bool{"ok": true})
	})
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, r *http.Request) {
		if !ready.Load() {
			w.Header().Set("Retry-After", "1")
			reply(w, http.StatusServiceUnavailable, map[string]bool{"ready": false})
			return
		}
		reply(w, http.StatusOK, map[string]bool{"ready": true})
	})

	// Listen before announcing: -addr :0 binds an ephemeral port, and
	// the "listening on <addr>" line below carries the real address in
	// a parseable form for lwtgate/CI supervisors scraping the log.
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatalf("lwtserved: %v", err)
	}
	hs := &http.Server{Handler: mux}
	// SIGUSR2: dump the flight recorder to -trace-dir without disturbing
	// service — the operator's "what just happened" trigger.
	go func() {
		usr2 := make(chan os.Signal, 1)
		signal.Notify(usr2, syscall.SIGUSR2)
		for range usr2 {
			dumpTrace("sigusr2")
		}
	}()
	go func() {
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		<-sig
		ready.Store(false)
		log.Println("lwtserved: readiness off, shutting down")
		// Keep the listener open briefly after the readiness flip:
		// Shutdown closes listeners immediately, and a router probing
		// /readyz should see the 503 (stop sending) rather than a
		// connection refusal racing the in-flight work it already sent.
		time.Sleep(*notReady)
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = hs.Shutdown(ctx)
	}()
	log.Printf("lwtserved: listening on %s (shards=%d router=%s backends=%v)",
		ln.Addr(), *shards, *router, lwt.Backends())
	if err := hs.Serve(ln); err != nil && err != http.ErrServerClosed {
		log.Fatal(err)
	}
	// Graceful drain: every backend's shards run their accepted requests
	// to completion (bounded by -drain) before the runtimes finalize.
	// Any request a shard could not run inside the budget still resolves
	// its future — with ErrClosed — and is counted here.
	g.closeAll()
	g.mu.Lock()
	var completed, rejected uint64
	for _, s := range g.servers {
		m := s.Metrics()
		completed += m.Completed
		rejected += m.Rejected
	}
	g.mu.Unlock()
	log.Printf("lwtserved: drained cleanly (completed=%d, rejected-at-deadline=%d)", completed, rejected)
}
