package main

import (
	"encoding/json"
	"fmt"
	"log"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/smoke"
)

// serveClient's timeout marks a serve request lost.
var serveClient = &http.Client{Timeout: 60 * time.Second}

// promFamilies must each have at least one sample on /metrics.
var promFamilies = []string{
	"lwt_serve_info", "lwt_serve_uptime_seconds", "lwt_serve_submitted_total",
	"lwt_serve_completed_total", "lwt_serve_saturated_total", "lwt_serve_queue_depth",
	"lwt_serve_inflight", "lwt_serve_ioparked", "lwt_serve_latency_seconds_bucket",
	"lwt_serve_latency_seconds_count", "lwt_sched_pushes_total", "lwt_sched_pops_total",
}

// serveCounters is the part of a /metrics.json row the drill reads.
type serveCounters struct {
	Backend                                 string
	Submitted, Completed, Rejected, Expired uint64
	QueueDepth, InFlight                    int
}

type backendRow struct {
	Aggregate serveCounters   `json:"aggregate"`
	Shards    []serveCounters `json:"shards"`
}

// serveDrill boots one multi-shard lwtserved and drives it over HTTP.
// The per-shard queues are deliberately tight (4 shards × (queue 2 +
// inflight 1)) so the saturation burst sheds deterministically; the
// functional requests use wait=1 (blocking admission), which a tight
// queue never 503s.
func serveDrill(d *smoke.Drill) string {
	t0 := time.Now()
	srv := d.Boot("lwtserved", serveBootWithin, *workerBin, "-addr", "127.0.0.1:0",
		"-shards", "4", "-threads", "1", "-queue", "2", "-inflight", "1", "-steal", "-trace-dir", d.LogDir)
	base := "http://" + srv.Addr
	d.WaitReady(serveClient, base, serveBootWithin-time.Since(t0))
	// served counts the 200 replies to compute requests: the drill is
	// the daemon's only client, so the servers' summed Completed must
	// match it once they are idle.
	var served atomic.Uint64
	get := func(path string, out any) smoke.Reply {
		r := smoke.Get(serveClient, base+path, out)
		if r.Status == http.StatusOK && isCompute(path) {
			served.Add(1)
		}
		return r
	}
	metrics := func() string { return string(get("/metrics", nil).Body) }
	// burst makes n GETs of path, width at a time, and counts the
	// statuses they return.
	burst := func(n, width int, path string) map[int]int {
		codes := map[int]int{}
		var mu sync.Mutex
		var wg sync.WaitGroup
		sem := make(chan struct{}, width)
		for i := 0; i < n; i++ {
			wg.Add(1)
			sem <- struct{}{}
			go func() {
				defer wg.Done()
				status := get(path, nil).Status
				<-sem
				mu.Lock()
				codes[status]++
				mu.Unlock()
			}()
		}
		wg.Wait()
		return codes
	}

	// ---- Every backend answers fib, dgemm, parfor, a keyed fib, a
	// parked io wait and compute interleaved with parked waits.
	backends := checkBackends(d, get, []backendCheck{
		{"/fib?n=22&wait=1&backend=%s", "value 17711", func(v float64, _ string) bool { return v == 17711 }},
		{"/dgemm?n=64&wait=1&backend=%s", "value > 0", func(v float64, _ string) bool { return v > 0 }},
		{"/parfor?n=65536&wait=1&backend=%s", "value > 0", func(v float64, _ string) bool { return v > 0 }},
		{"/fib?n=20&wait=1&backend=%[1]s&key=smoke-%[1]s", "value 6765", func(v float64, _ string) bool { return v == 6765 }},
		{"/io?ms=10&wait=1&backend=%s", "value >= 10", func(v float64, _ string) bool { return v >= 10 }},
		{"/fibio?n=18&fan=2&ms=5&wait=1&backend=%s", "value 2584", func(v float64, _ string) bool { return v == 2584 }},
	})

	// ---- Idle: every shard of every backend has served by now. Across
	// 2 s without traffic no executor polls its pool (with -steal on no
	// timer re-scans the queues, and the shard keepers sleep on their
	// main threads), and the daemon burns under 0.10 core. A busy-wait
	// idle loop reads millions of polls and > 1 core here.
	time.Sleep(500 * time.Millisecond)
	pid := srv.Cmd.Process.Pid
	page0 := metrics()
	cpu0, err0 := smoke.CPUTime(pid)
	time.Sleep(2 * time.Second)
	cpu1, err1 := smoke.CPUTime(pid)
	page1 := metrics()
	const fam = "lwt_sched_empty_pops_total"
	a, b := smoke.Sum(page0, fam), smoke.Sum(page1, fam)
	log.Printf("idle: %s %v -> %v", fam, a, b)
	if a != b {
		d.Failf("idle: %s moved %v -> %v over 2 s, want no change", fam, a, b)
	}
	if err0 != nil || err1 != nil {
		d.Failf("idle: reading CPU time: %v %v", err0, err1)
	} else if cores := (cpu1 - cpu0).Seconds() / 2; cores >= 0.10 {
		d.Failf("idle: lwtserved used %.3f core over 2 s, want < 0.10", cores)
	} else {
		log.Printf("idle: lwtserved used %.3f core over 2 s", cores)
	}

	// ---- Async-I/O burst: 32 concurrent 250 ms parked waits against 4
	// shards of 1 executor each. If parked handlers held their
	// executors the burst would take ceil(32/4) × 250 ms = 2 s; the
	// reactor overlaps them, so it must finish well under that floor.
	t0 = time.Now()
	codes := burst(32, 32, "/io?ms=250&backend=go&wait=1")
	wall := time.Since(t0)
	log.Printf("io burst: 32 × 250 ms parked waits in %v (serialized floor 2 s), statuses %v", wall, codes)
	if codes[http.StatusOK] != 32 {
		d.Failf("io burst: statuses %v, want 32 × 200", codes)
	}
	if wall >= 1500*time.Millisecond {
		d.Failf("io burst took %v, want < 1500 ms", wall)
	}

	// ---- Saturation: a burst without wait=1 must shed load with 503s.
	codes = burst(60, 32, "/dgemm?n=448&chunks=1&backend=go")
	log.Printf("saturation burst: statuses %v", codes)
	if codes[http.StatusServiceUnavailable] == 0 {
		d.Failf("saturation burst of 60 × dgemm n=448 saw no 503")
	}

	// ---- Per-shard traffic reaches >= 2 go shards.
	var rows []backendRow
	if r := get("/metrics.json", &rows); r.Status != http.StatusOK || r.Err != nil {
		d.Failf("/metrics.json: status %d err %v", r.Status, r.Err)
	}
	busy := 0
	for _, row := range rows {
		for _, s := range row.Shards {
			if row.Aggregate.Backend == "go" && s.Submitted > 0 {
				busy++
			}
		}
	}
	log.Printf("go-backend shards with traffic: %d", busy)
	if busy < 2 {
		d.Failf("only %d go shards got traffic, want >= 2", busy)
	}

	// ---- Prometheus exposition: families present, the right content
	// type, and completed_total growing across scrapes.
	r1 := get("/metrics", nil)
	page := "\n" + string(r1.Body)
	if ct := r1.Header.Get("Content-Type"); !strings.Contains(strings.ToLower(ct), "text/plain; version=0.0.4") {
		d.Failf("/metrics content-type %q, want text/plain; version=0.0.4", ct)
	}
	for _, fam := range promFamilies {
		if !strings.Contains(page, "\n"+fam) {
			d.Failf("/metrics lacks family %s", fam)
		}
	}
	c1 := smoke.Sum(page, "lwt_serve_completed_total")
	if r := get("/fib?n=18&backend=go&wait=1", nil); r.Status != http.StatusOK {
		d.Failf("fib between scrapes: status %d err %v", r.Status, r.Err)
	}
	c2 := smoke.Sum(metrics(), "lwt_serve_completed_total")
	log.Printf("completed_total across scrapes: %v -> %v", c1, c2)
	if !(c2 > c1) {
		d.Failf("lwt_serve_completed_total did not grow across scrapes (%v -> %v)", c1, c2)
	}

	// ---- Work stealing: blocking CPU-bound requests at 24-wide against
	// 4 shards of (1 in-flight + 2 queued) keep every shard saturated;
	// whichever shard drains first must steal the unkeyed backlog off
	// the deep ones.
	burst(192, 24, "/fib?n=27&backend=go&wait=1")
	steals := smoke.Sum(metrics(), "lwt_serve_steals_total")
	log.Printf("steals after 192 × fib(27) at 24-wide: %v", steals)
	if steals <= 0 {
		d.Failf("no steals observed (lwt_serve_steals_total = %v)", steals)
	}

	// ---- Flight-recorder dump under load, in all three formats; the
	// dumps are archived in the log directory.
	burst(200, 16, "/fib?n=18&backend=go&wait=1")
	checkTrace(d, get)

	// ---- Drain identity: once every backend is idle, each one's
	// accepted requests are completed, rejected at shutdown or expired.
	// Saturated 503s were never accepted, so they sit outside it.
	idle := func() bool {
		rows = nil
		if r := get("/metrics.json", &rows); r.Status != http.StatusOK || r.Err != nil || len(rows) == 0 {
			return false
		}
		for _, row := range rows {
			if row.Aggregate.InFlight != 0 || row.Aggregate.QueueDepth != 0 {
				return false
			}
		}
		return true
	}
	if !smoke.Poll(5*time.Second, 100*time.Millisecond, idle) {
		d.Failf("not idle within 5 s: %+v", rows)
	}
	var accepted, completed uint64
	for _, row := range rows {
		a := row.Aggregate
		accepted += a.Submitted
		completed += a.Completed
		if a.Submitted != a.Completed+a.Rejected+a.Expired {
			d.Failf("drain identity on %s: Submitted %d != Completed %d + Rejected %d + Expired %d",
				a.Backend, a.Submitted, a.Completed, a.Rejected, a.Expired)
		}
	}
	// ---- Every compute reply is a served request: no endpoint answers
	// 200 outside the servers' accounting.
	log.Printf("completed %d, 200 compute replies %d", completed, served.Load())
	if completed != served.Load() {
		d.Failf("servers completed %d requests, drill received %d compute 200s", completed, served.Load())
	}

	// ---- SIGTERM drains cleanly.
	d.Drain(serveDrainWithin, srv)
	return fmt.Sprintf("%d backends, %d requests accepted, %d completed = 200 replies, %v steals, drain identity held, idle and drained cleanly",
		len(backends), accepted, completed, steals)
}

// isCompute reports whether a drill path is one of lwtserved's compute
// endpoints.
func isCompute(path string) bool {
	for _, p := range []string{"/fib?", "/dgemm?", "/parfor?", "/io?", "/fibio?"} {
		if strings.HasPrefix(path, p) {
			return true
		}
	}
	return false
}

// checkTrace reads /debug/trace as JSON, breakdown and chrome trace,
// writes each into the log directory, and checks that the dump has
// events, at least one serve/go/ lane, and a non-empty chrome trace.
func checkTrace(d *smoke.Drill, get func(string, any) smoke.Reply) {
	var dump struct {
		Events []json.RawMessage `json:"events"`
		Lanes  []struct{ Name string }
	}
	var chrome []json.RawMessage
	for file, r := range map[string]smoke.Reply{
		"trace-dump.json":     get("/debug/trace", &dump),
		"trace-breakdown.txt": get("/debug/trace?format=breakdown", nil),
		"trace-chrome.json":   get("/debug/trace?format=chrome", &chrome),
	} {
		if r.Status != http.StatusOK || r.Err != nil {
			d.Failf("%s: status %d err %v", file, r.Status, r.Err)
		}
		if err := os.WriteFile(filepath.Join(d.LogDir, file), r.Body, 0o644); err != nil {
			d.Failf("archiving %s: %v", file, err)
		}
	}
	goLanes := 0
	for _, l := range dump.Lanes {
		if strings.HasPrefix(l.Name, "serve/go/") {
			goLanes++
		}
	}
	log.Printf("trace dump: %d events, %d lanes, %d serve/go/; chrome trace: %d events", len(dump.Events), len(dump.Lanes), goLanes, len(chrome))
	if len(dump.Events) == 0 {
		d.Failf("/debug/trace dump has no events")
	}
	if goLanes == 0 {
		d.Failf("/debug/trace dump has no serve/go/ lane")
	}
	if len(chrome) == 0 {
		d.Failf("/debug/trace?format=chrome has no events")
	}
}
