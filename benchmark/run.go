package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"syscall"
	"time"

	lwt "repro"
)

const (
	// A run boots its topology this many times and reports the median:
	// set-up is some ten milliseconds of process start and lazy runtime
	// boot over HTTP, and some hundred microseconds in process, both too
	// short to repeat from one sample.
	setupRepsHTTP   = 9
	setupRepsInproc = 41
	// warmUp is the closed-loop time before anything is recorded: long
	// enough for connections, the backend's pools and the Go runtimes'
	// heaps to reach their steady size.
	warmUp = 2 * time.Second

	ms = float64(time.Millisecond)
	us = float64(time.Microsecond)
)

// runConfig is one invocation's inputs.
type runConfig struct {
	w       workload
	nproc   int
	seed    int64
	seconds time.Duration
	trace   bool
	binDir  string  // lwtserved and lwtgate
	scratch string  // this run's private directory
	outDir  string  // trace files
	buildS  float64 // what building the daemons took
}

// report collects what a run measured and checked.
type report struct {
	values    map[string]float64
	attempted int
	failed    int
	problems  []string // failed checks, in order
}

func (r *report) set(name string, v float64) { r.values[name] = v }

// count folds a load phase's tallies into the run's and prints them.
func (r *report) count(phase string, res *loadResult) {
	r.attempted += res.attempted
	r.failed += res.failed
	fmt.Printf("  phase %-9s attempted %8d  correct %8d  failed %d\n", phase, res.attempted, res.attempted-res.failed, res.failed)
	if res.firstErr != nil {
		r.problems = append(r.problems, fmt.Sprintf("%s: %d failed, first: %v", phase, res.failed, res.firstErr))
	}
}

// check records one checked operation; a failed check is a failed
// operation.
func (r *report) check(what string, err error) {
	r.attempted++
	if err != nil {
		r.failed++
		r.problems = append(r.problems, what+": "+err.Error())
	}
}

// serveCounters is the part of a worker's /metrics.json aggregate (or
// of Server.Metrics in process) that the benchmark reads.
type serveCounters struct {
	Submitted, Completed, Saturated, Expired, Rejected, Steals uint64
	QueueDepth, IOParked                                       int
	Sched                                                      struct {
		Pushes    uint64 `json:"pushes"`
		Pops      uint64 `json:"pops"`
		Contended uint64 `json:"contended"`
		EmptyPops uint64 `json:"empty_pops"`
	}
}

func (a *serveCounters) add(b serveCounters) {
	a.Submitted += b.Submitted
	a.Completed += b.Completed
	a.Saturated += b.Saturated
	a.Expired += b.Expired
	a.Rejected += b.Rejected
	a.Steals += b.Steals
	a.QueueDepth += b.QueueDepth
	a.IOParked += b.IOParked
	a.Sched.Pushes += b.Sched.Pushes
	a.Sched.Pops += b.Sched.Pops
	a.Sched.Contended += b.Sched.Contended
	a.Sched.EmptyPops += b.Sched.EmptyPops
}

// drained checks the drain identity: every accepted request is
// accounted for as completed, rejected at shutdown, or expired.
func (c serveCounters) drained() error {
	if c.Submitted != c.Completed+c.Rejected+c.Expired {
		return fmt.Errorf("Submitted %d != Completed %d + Rejected %d + Expired %d", c.Submitted, c.Completed, c.Rejected, c.Expired)
	}
	return nil
}

// scrapeWorkers sums the serve counters of every backend of every
// worker.
func scrapeWorkers(c *caller, workers []*daemon) (serveCounters, error) {
	var sum serveCounters
	for _, d := range workers {
		var rows []struct {
			Aggregate serveCounters `json:"aggregate"`
		}
		if err := c.getJSON("http://"+d.addr+"/metrics.json", &rows); err != nil {
			return sum, err
		}
		for _, row := range rows {
			sum.add(row.Aggregate)
		}
	}
	return sum, nil
}

// countersOf reads an in-process server's counters.
func countersOf(srv *lwt.Server) serveCounters {
	m := srv.Metrics()
	c := serveCounters{Submitted: m.Submitted, Completed: m.Completed, Saturated: m.Saturated, Expired: m.Expired,
		Rejected: m.Rejected, Steals: m.Steals, QueueDepth: m.QueueDepth, IOParked: m.IOParked}
	c.Sched.Pushes, c.Sched.Pops = m.Sched.Pushes, m.Sched.Pops
	c.Sched.Contended, c.Sched.EmptyPops = m.Sched.Contended, m.Sched.EmptyPops
	return c
}

// gateCounters is the part of lwtgate's /cluster/metrics the benchmark
// reads.
type gateCounters struct {
	Proxied, Retried, Failed, Hedges uint64
	Workers                          []struct{ Requests uint64 }
}

func (g gateCounters) attempts() (n uint64) {
	for _, w := range g.Workers {
		n += w.Requests
	}
	return n
}

func cpuOf(ds []*daemon) (time.Duration, error) {
	var sum time.Duration
	for _, d := range ds {
		c, err := pidCPU(d.pid())
		if err != nil {
			return 0, err
		}
		sum += c
	}
	return sum, nil
}

func peakRSSOf(ds []*daemon) (float64, error) {
	var sum uint64
	for _, d := range ds {
		b, err := pidPeakRSS(d.pid())
		if err != nil {
			return 0, err
		}
		sum += b
	}
	return float64(sum) / (1 << 20), nil
}

// selfCPU is this process's user+system CPU time.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // EFAULT or EINVAL: neither can come from these arguments
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// setEndToEnd reduces a measured closed-loop phase to the end-to-end
// metrics and prints the sample counts they rest on. scale is replies
// per recorded sample.
func (r *report) setEndToEnd(res *loadResult, dur time.Duration, scale float64, cpu time.Duration, rssMB float64, setups []float64) {
	win := dur / numWindows
	ws := cutWindows(res.samples, win, numWindows)
	st := reduceWindows(ws, scale)
	for i, w := range ws {
		p50, _ := quantile(w.lats, 0.5)
		p99, _ := quantile(w.lats, 0.99)
		fmt.Printf("  window %d: %9.1f 1/s  p50 %8.4f ms  p99 %8.4f ms  samples %d\n", i, w.rate()*scale, p50/ms, p99/ms, len(w.lats))
	}
	fmt.Printf("  %d windows of %.2fs; timed samples %d, fewest in a window %d; p99 reported at quantile %.4f; %d set-ups\n",
		numWindows, win.Seconds(), st.samples, st.minN, st.p99Q, len(setups))
	r.set("throughput_rps", st.rate)
	r.set("lat_p50_ms", st.p50/ms)
	r.set("lat_p99_ms", st.p99/ms)
	r.set("cpu_ms_per_req", float64(cpu)/ms/float64(res.attempted-res.failed))
	r.set("peak_rss_mb", rssMB)
	r.set("setup_s", median(setups))
}

// setServeCounters reports the serve and sched counter deltas across
// the traced phase, which held n correct replies over dur.
func (r *report) setServeCounters(a, b serveCounters, n float64, dur time.Duration, depthMax, parkedMax int) {
	completed := float64(b.Completed - a.Completed)
	steals := float64(b.Steals - a.Steals)
	r.set("serve.submitted", float64(b.Submitted-a.Submitted))
	r.set("serve.completed", completed)
	r.set("serve.saturated", float64(b.Saturated-a.Saturated))
	r.set("serve.expired", float64(b.Expired-a.Expired))
	r.set("serve.steals", steals)
	r.set("serve.steal_share", ratio(steals, completed))
	r.set("serve.queue_depth_max", float64(depthMax))
	r.set("serve.ioparked_max", float64(parkedMax))
	pops := float64(b.Sched.Pops - a.Sched.Pops)
	empty := float64(b.Sched.EmptyPops - a.Sched.EmptyPops)
	r.set("sched.pushes_per_req", float64(b.Sched.Pushes-a.Sched.Pushes)/n)
	r.set("sched.pops_per_req", pops/n)
	r.set("sched.contended_per_req", float64(b.Sched.Contended-a.Sched.Contended)/n)
	r.set("sched.empty_pops_per_s", empty/dur.Seconds())
	r.set("sched.useful_pop_share", ratio(pops, pops+empty))
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// setLoadgen reports the generator's own numbers: the open-loop phase,
// the machine calibration and what tracing cost.
func (r *report) setLoadgen(open *loadResult, tracedRate, untracedRate, cal, buildS float64) {
	lat := open.latencies()
	r.set("loadgen.open_p50_ms", pct(lat, 0.5)/ms)
	r.set("loadgen.open_p99_ms", pct(lat, 0.99)/ms)
	r.set("loadgen.late_p99_ms", pct(open.late, 0.99)/ms)
	r.set("loadgen.cal_mops", cal)
	r.set("loadgen.trace_overhead_share", 1-tracedRate/untracedRate)
	r.set("loadgen.build_s", buildS)
}

// sampleDepths calls read at 10 Hz until the returned function is
// called, which reports the largest queue depth and parked count seen.
func sampleDepths(read func() (serveCounters, error)) (stop func() (depthMax, parkedMax int)) {
	quit := make(chan struct{})
	done := make(chan struct{})
	var depth, parked int
	go func() {
		defer close(done)
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-quit:
				return
			case <-tick.C:
				if m, err := read(); err == nil {
					depth, parked = max(depth, m.QueueDepth), max(parked, m.IOParked)
				}
			}
		}
	}()
	return func() (int, int) {
		close(quit)
		<-done
		return depth, parked
	}
}

// stopStack reads every worker's final counters at quiescence and
// checks the drain identity, then drains the topology gate first, as
// an operator would, and checks each process's exit.
func stopStack(rep *report, st *stack) {
	c := newCaller()
	final, err := scrapeWorkers(c, st.workers)
	c.close()
	if err == nil {
		err = final.drained()
	}
	rep.check("drain identity", err)
	for _, d := range st.daemons() {
		rep.check("stop "+d.name, d.stop())
	}
}

func runHTTP(cfg runConfig) (*report, error) {
	rep := &report{values: map[string]float64{}}
	w := cfg.w

	// The last boot stays up; the earlier ones served one request and
	// are killed outright, which takes no drain grace.
	var st *stack
	setups := make([]float64, 0, setupRepsHTTP)
	for i := 0; i < setupRepsHTTP; i++ {
		if st != nil {
			st.kill()
		}
		var err error
		if st, err = startStack(w, cfg.binDir, cfg.scratch); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		rep.attempted++ // the first request of each boot
		setups = append(setups, st.setup.Seconds())
	}
	defer st.kill() // harmless once stopped; covers every early return
	workers := addrsOf(st.workers)

	load := httpLoad{w: w, targets: []string{st.entry()}, callers: cfg.nproc, seed: cfg.seed, owner: ringOwner(workers)}
	// closed runs one closed-loop phase and returns the CPU the
	// topology's processes spent over it.
	closed := func(phase string, dur time.Duration, tr *tracer) (*loadResult, time.Duration, error) {
		l := load
		l.dur, l.tr, l.phase = dur, tr, phase
		c0, err := cpuOf(st.daemons())
		if err != nil {
			return nil, 0, err
		}
		res := l.run()
		c1, err := cpuOf(st.daemons())
		rep.count(phase, res)
		return res, c1 - c0, err
	}
	if _, _, err := closed("warm-up", warmUp, nil); err != nil {
		return nil, err
	}

	if !cfg.trace {
		res, cpu, err := closed("measure", cfg.seconds, nil)
		if err != nil {
			return nil, err
		}
		rss, err := peakRSSOf(st.daemons())
		if err != nil {
			return nil, err
		}
		rep.setEndToEnd(res, cfg.seconds, 1, cpu, rss, setups)
		stopStack(rep, st)
		return rep, nil
	}

	// Traced run: four phases of a quarter of the time each. The
	// untraced quarter is the base the tracing overhead is taken
	// against; the last quarter isolates single layers.
	quarter := cfg.seconds / 4
	tr := newTracer()
	scraper := newCaller()
	defer scraper.close()
	scrape := func() (serveCounters, error) { return scrapeWorkers(scraper, st.workers) }
	var gate [2]gateCounters
	var gateCPU [2]time.Duration
	scrapeGate := func(i int) (err error) {
		if st.gate == nil {
			return nil
		}
		if gateCPU[i], err = pidCPU(st.gate.pid()); err != nil {
			return err
		}
		return scraper.getJSON("http://"+st.gate.addr+"/cluster/metrics", &gate[i])
	}

	untraced, _, err := closed("untraced", quarter, nil)
	if err != nil {
		return nil, err
	}
	before, err := scrape()
	if err != nil {
		return nil, err
	}
	if err := scrapeGate(0); err != nil {
		return nil, err
	}
	sampler := newCaller()
	stopSampler := sampleDepths(func() (serveCounters, error) { return scrapeWorkers(sampler, st.workers) })
	traced, tracedCPU, err := closed("traced", quarter, tr)
	depthMax, parkedMax := stopSampler()
	sampler.close()
	if err != nil {
		return nil, err
	}
	after, err := scrape()
	if err != nil {
		return nil, err
	}
	if err := scrapeGate(1); err != nil {
		return nil, err
	}
	spans := traced.spans
	n := float64(len(traced.samples))

	l := load
	l.dur, l.rate, l.tr, l.phase = quarter, w.openRate, tr, "open"
	open := l.run()
	rep.count("open", open)
	spans = append(spans, open.spans...)

	// The direct phases: what a request costs with a layer left out.
	direct := traced // callers already talk to the worker
	if w.gate {
		l := load
		l.targets, l.dur, l.tr, l.phase = workers, quarter/2, tr, "direct"
		direct = l.run()
		rep.count("direct", direct)
		spans = append(spans, direct.spans...)
	}
	floor := httpLoad{w: workload{path: "/healthz", expected: anyValue}, targets: workers, callers: 1, dur: quarter / 4}.run()
	rep.count("healthz", floor)
	if w.name == wlIOPark {
		// Bare parked sleeps; the reply's value is the measured wait in
		// milliseconds, so what exceeds the time asked for is the
		// reactor's wake-up overshoot.
		io := httpLoad{w: workload{path: fmt.Sprintf("/io?ms=%d&backend=argobots&wait=1", ioMS), expected: anyValue}, targets: workers,
			callers: cfg.nproc, dur: quarter / 4, tr: tr, phase: "io"}.run()
		rep.count("io", io)
		spans = append(spans, io.spans...)
		over := make([]float64, len(io.values))
		for i, v := range io.values {
			over[i] = (v - ioMS) * 1e3 // ms -> us
		}
		rep.set("aio.wake_overshoot_p50_us", pct(over, 0.5))
		rep.set("aio.wake_overshoot_p99_us", pct(over, 0.99))
		rep.set("aio.parked_per_s", ioFan*n/quarter.Seconds())
	}
	stopStack(rep, st)

	if w.gate {
		rep.set("cluster.hop_p50_ms", (pct(traced.latencies(), 0.5)-pct(direct.latencies(), 0.5))/ms)
		rep.set("cluster.cpu_ms_per_req", float64(gateCPU[1]-gateCPU[0])/ms/n)
		rep.set("cluster.attempts_per_req", ratio(float64(gate[1].attempts()-gate[0].attempts()), float64(gate[1].Proxied-gate[0].Proxied)))
		rep.set("cluster.retried", float64(gate[1].Retried-gate[0].Retried))
		rep.set("cluster.failed", float64(gate[1].Failed-gate[0].Failed))
		rep.set("cluster.hedges", float64(gate[1].Hedges-gate[0].Hedges))
		rep.set("cluster.keyed_affinity_share", ratio(float64(traced.keyedOwn), float64(traced.keyed)))
		lookupNS, pickNS, err := probeCluster(w.workers)
		if err != nil {
			return nil, err
		}
		rep.set("cluster.ring_lookup_ns", lookupNS)
		rep.set("cluster.pick_unkeyed_ns", pickNS)
	}
	rep.set("lwtserved.http_floor_p50_ms", pct(floor.latencies(), 0.5)/ms)
	rep.set("lwtserved.handler_p50_ms", pct(selfOf(spans, "client.request", direct.phase), 0.5)/ms)
	rep.set("lwtserved.cpu_ms_per_req", float64(tracedCPU-(gateCPU[1]-gateCPU[0]))/ms/n)
	rep.set("serve.resolve_p50_us", pct(traced.inner, 0.5)/us)
	rep.set("serve.keyed_p50_us", pct(traced.keyedInner, 0.5)/us)
	rep.set("serve.unkeyed_p50_us", pct(traced.plainInner, 0.5)/us)
	rep.setServeCounters(before, after, n, quarter, depthMax, parkedMax)
	if w.name == wlWorkerTree {
		for _, backend := range []string{"argobots", "go"} {
			createNS, joinNS, err := probeCreateJoin(backend)
			if err != nil {
				return nil, err
			}
			rep.set("core."+backend+".create_ns", createNS)
			rep.set("core."+backend+".join_ns", joinNS)
		}
		forUS, err := probeFor1000()
		if err != nil {
			return nil, err
		}
		rep.set("omp.for1000_us", forUS)
	}
	rep.setLoadgen(open, n/quarter.Seconds(), float64(len(untraced.samples))/quarter.Seconds(), calMops(), cfg.buildS)
	return rep, writeSpans(filepath.Join(cfg.outDir, "trace-"+w.name+".jsonl"), spans)
}

func addrsOf(ds []*daemon) []string {
	out := make([]string, len(ds))
	for i, d := range ds {
		out[i] = d.addr
	}
	return out
}

// closeInproc closes the server and checks the drain identity on its
// final counters.
func closeInproc(rep *report, srv *lwt.Server) {
	srv.Close()
	rep.check("drain identity", countersOf(srv).drained())
}

func runInproc(cfg runConfig) (*report, error) {
	rep := &report{values: map[string]float64{}}
	var srv *lwt.Server
	setups := make([]float64, 0, setupRepsInproc)
	for i := 0; i < setupRepsInproc; i++ {
		if srv != nil {
			closeInproc(rep, srv)
		}
		var d time.Duration
		var err error
		if srv, d, err = startInproc(); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		rep.attempted++ // the first future of each boot
		setups = append(setups, d.Seconds())
	}
	closeOnce := sync.OnceFunc(func() { closeInproc(rep, srv) })
	defer closeOnce() // covers every early return

	load := inprocLoad{srv: srv, producers: cfg.nproc, seed: cfg.seed}
	closed := func(phase string, dur time.Duration, tr *tracer) (*loadResult, time.Duration) {
		l := load
		l.dur, l.tr, l.phase = dur, tr, phase
		c0 := selfCPU()
		res := l.run()
		cpu := selfCPU() - c0
		rep.count(phase, res)
		return res, cpu
	}
	closed("warm-up", warmUp, nil)

	if !cfg.trace {
		res, cpu := closed("measure", cfg.seconds, nil)
		rss, err := pidPeakRSS(os.Getpid())
		if err != nil {
			return nil, err
		}
		rep.setEndToEnd(res, cfg.seconds, inprocEvery, cpu, float64(rss)/(1<<20), setups)
		closeOnce()
		return rep, nil
	}

	quarter := cfg.seconds / 4
	tr := newTracer()
	untraced, _ := closed("untraced", quarter, nil)

	before := countersOf(srv)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	stopSampler := sampleDepths(func() (serveCounters, error) { return countersOf(srv), nil })
	traced, _ := closed("traced", quarter, tr)
	depthMax, parkedMax := stopSampler()
	runtime.ReadMemStats(&m1)
	after := countersOf(srv)
	n := float64(traced.attempted - traced.failed)

	l := load
	l.dur, l.rate, l.tr, l.phase = quarter, cfg.w.openRate, tr, "open"
	open := l.run()
	rep.count("open", open)
	closeOnce()

	rep.set("serve.resolve_p50_us", pct(traced.latencies(), 0.5)/us)
	rep.set("serve.admit_p50_us", pct(traced.inner, 0.5)/us)
	rep.set("serve.keyed_p50_us", pct(traced.keyedInner, 0.5)/us)
	rep.set("serve.unkeyed_p50_us", pct(traced.plainInner, 0.5)/us)
	// The deltas cover the generator's own allocations too (the body
	// closure, the sampled spans); they are a property of driving the
	// public API, and they repeat.
	rep.set("serve.allocs_per_req", float64(m1.Mallocs-m0.Mallocs)/n)
	rep.set("serve.bytes_per_req", float64(m1.TotalAlloc-m0.TotalAlloc)/n)
	rep.setServeCounters(before, after, n, quarter, depthMax, parkedMax)
	rep.setLoadgen(open, n/quarter.Seconds(), float64(untraced.attempted-untraced.failed)/quarter.Seconds(), calMops(), cfg.buildS)
	return rep, writeSpans(filepath.Join(cfg.outDir, "trace-"+cfg.w.name+".jsonl"), append(traced.spans, open.spans...))
}
