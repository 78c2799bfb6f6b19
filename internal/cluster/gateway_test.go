package cluster

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"strings"
	"testing"
	"time"
)

// gateFixture boots a gateway over n stub workers behind an httptest
// front server.
type gateFixture struct {
	gw      *Gateway
	front   *httptest.Server
	stubs   []*stubWorker
	workers []*Worker
}

func newGateFixture(t *testing.T, n int, opts Options) *gateFixture {
	t.Helper()
	f := &gateFixture{}
	if opts.Table == nil {
		opts.Table = NewTable(64, HealthPolicy{FailThreshold: 2, OKThreshold: 2})
	}
	for i := 0; i < n; i++ {
		s := newStubWorker(t, fmt.Sprintf("w%d", i))
		w, err := opts.Table.Add(s.addr())
		if err != nil {
			t.Fatal(err)
		}
		f.stubs = append(f.stubs, s)
		f.workers = append(f.workers, w)
	}
	f.gw = New(opts)
	f.front = httptest.NewServer(f.gw)
	t.Cleanup(f.front.Close)
	return f
}

// get issues one request through the gate and returns status, the
// serving worker id, and the body.
func (f *gateFixture) get(t *testing.T, path string) (int, string, string) {
	t.Helper()
	resp, err := http.Get(f.front.URL + path)
	if err != nil {
		t.Fatalf("GET %s through gate: %v", path, err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, resp.Header.Get(WorkerHeader), string(body)
}

func TestGatewayKeyedAffinityMatchesRing(t *testing.T) {
	f := newGateFixture(t, 3, Options{})
	ring := f.gw.Table().Ring()
	for k := 0; k < 60; k++ {
		key := fmt.Sprintf("sess-%d", k)
		want := ring.Lookup(key)
		var first string
		for rep := 0; rep < 3; rep++ {
			status, worker, body := f.get(t, "/fib?n=10&key="+key)
			if status != http.StatusOK {
				t.Fatalf("key %q rep %d: status %d (%s)", key, rep, status, body)
			}
			if worker != want {
				t.Fatalf("key %q served by %q, ring owner is %q", key, worker, want)
			}
			if rep == 0 {
				first = worker
			} else if worker != first {
				t.Fatalf("key %q moved %q -> %q across repeats", key, first, worker)
			}
		}
	}
}

func TestGatewayUnkeyedSpreadsAcrossWorkers(t *testing.T) {
	f := newGateFixture(t, 3, Options{})
	for i := 0; i < 300; i++ {
		if status, _, body := f.get(t, "/fib?n=10"); status != http.StatusOK {
			t.Fatalf("request %d: status %d (%s)", i, status, body)
		}
	}
	for i, s := range f.stubs {
		if s.hits.Load() == 0 {
			t.Errorf("worker %d got no unkeyed traffic", i)
		}
	}
}

// TestGatewayUnkeyed503Reroutes pins the backpressure contract: a
// worker answering 503 sheds unkeyed traffic to its peers (the request
// still succeeds from the client's view), and the 503s raise the
// worker's load penalty so p2c stops picking it.
func TestGatewayUnkeyed503Reroutes(t *testing.T) {
	f := newGateFixture(t, 2, Options{})
	f.stubs[0].status.Store(http.StatusServiceUnavailable)
	for i := 0; i < 100; i++ {
		status, worker, body := f.get(t, "/fib?n=10")
		if status != http.StatusOK {
			t.Fatalf("request %d: status %d (%s) — 503 should have re-routed", i, status, body)
		}
		if worker != f.workers[1].ID {
			t.Fatalf("request %d: served by %q, only %q is answering", i, worker, f.workers[1].ID)
		}
	}
	m := f.gw.Snapshot()
	if m.Reroutes503 == 0 {
		t.Fatal("no 503 re-routes recorded")
	}
	if p := f.workers[0].penalty.Load(); p == 0 {
		t.Fatal("503s did not raise the worker's load penalty")
	}
	// With the penalty in place, p2c should now strongly prefer the
	// healthy worker: the saturated one sees far fewer attempts than a
	// blind 50/50 split would send it.
	saturatedHits := f.stubs[0].hits.Load()
	healthyHits := f.stubs[1].hits.Load()
	if saturatedHits >= healthyHits {
		t.Fatalf("saturated worker got %d hits vs healthy %d — backpressure not steering",
			saturatedHits, healthyHits)
	}
}

// TestGatewayKeyed503IsTerminal pins the affinity contract: a keyed
// request is never traded to another worker on backpressure — the
// client sees the 503 and its Retry-After.
func TestGatewayKeyed503IsTerminal(t *testing.T) {
	f := newGateFixture(t, 3, Options{})
	ring := f.gw.Table().Ring()
	// Find a key owned by worker 0 and saturate worker 0.
	key := ""
	for k := 0; k < 10000; k++ {
		cand := fmt.Sprintf("sess-%d", k)
		if ring.Lookup(cand) == f.workers[0].ID {
			key = cand
			break
		}
	}
	if key == "" {
		t.Fatal("no key maps to worker 0")
	}
	f.stubs[0].status.Store(http.StatusServiceUnavailable)
	status, worker, _ := f.get(t, "/fib?n=10&key="+key)
	if status != http.StatusServiceUnavailable {
		t.Fatalf("keyed request to saturated worker: status %d, want 503", status)
	}
	if worker != f.workers[0].ID {
		t.Fatalf("keyed 503 relayed from %q, want pinned worker %q", worker, f.workers[0].ID)
	}
	others := f.stubs[1].hits.Load() + f.stubs[2].hits.Load()
	if others != 0 {
		t.Fatalf("keyed 503 leaked %d attempts to non-pinned workers", others)
	}
}

// TestGatewayKeyedFailsOverDeadWorker kills a key's pinned worker and
// asserts the request is retried down the ring's failover order,
// succeeding on the successor, and that the conn failures eject the
// dead worker passively.
func TestGatewayKeyedFailsOverDeadWorker(t *testing.T) {
	f := newGateFixture(t, 3, Options{})
	ring := f.gw.Table().Ring()
	key := ""
	for k := 0; k < 10000; k++ {
		cand := fmt.Sprintf("sess-%d", k)
		if ring.Lookup(cand) == f.workers[0].ID {
			key = cand
			break
		}
	}
	if key == "" {
		t.Fatal("no key maps to worker 0")
	}
	successor := ring.LookupN(key, 2)[1]
	f.stubs[0].srv.Close() // hard kill: connections now refused

	for i := 0; i < 2; i++ { // FailThreshold 2 → second conn failure ejects
		status, worker, body := f.get(t, "/fib?n=10&key="+key)
		if status != http.StatusOK {
			t.Fatalf("keyed request with dead pinned worker: status %d (%s)", status, body)
		}
		if worker != successor {
			t.Fatalf("failover served by %q, ring successor is %q", worker, successor)
		}
	}
	if f.workers[0].Healthy() {
		t.Fatal("dead worker not passively ejected after conn failures")
	}
	// Once ejected, the successor leads the candidate list — no
	// doomed first attempt, no retry spent.
	before := f.gw.Snapshot().Retried
	if status, worker, _ := f.get(t, "/fib?n=10&key="+key); status != http.StatusOK || worker != successor {
		t.Fatalf("post-ejection keyed request: status %d worker %q", status, worker)
	}
	if after := f.gw.Snapshot().Retried; after != before {
		t.Fatalf("post-ejection keyed request spent %d retries, want 0", after-before)
	}
}

// TestGatewayUnkeyedSurvivesDeadWorker: with one of three workers
// dead, every unkeyed request still gets a terminal 200 via retry.
func TestGatewayUnkeyedSurvivesDeadWorker(t *testing.T) {
	f := newGateFixture(t, 3, Options{})
	f.stubs[2].srv.Close()
	for i := 0; i < 100; i++ {
		status, worker, body := f.get(t, "/fib?n=10")
		if status != http.StatusOK {
			t.Fatalf("request %d: status %d (%s)", i, status, body)
		}
		if worker == f.workers[2].ID {
			t.Fatalf("request %d: served by dead worker", i)
		}
	}
	if f.workers[2].Healthy() {
		t.Fatal("dead worker not passively ejected under load")
	}
}

// TestGatewayNonIdempotentNeverRetries: a POST that hits a dead worker
// is answered 502 after exactly one attempt — replaying a
// possibly-processed mutation is not the gateway's call to make.
func TestGatewayNonIdempotentNeverRetries(t *testing.T) {
	table := NewTable(64, HealthPolicy{FailThreshold: 100, OKThreshold: 2})
	f := newGateFixture(t, 2, Options{Table: table})
	f.stubs[0].srv.Close()
	f.stubs[1].srv.Close()
	var sawBadGateway bool
	for i := 0; i < 8; i++ {
		resp, err := http.Post(f.front.URL+"/fib?n=10", "application/json", strings.NewReader(`{}`))
		if err != nil {
			t.Fatalf("POST through gate: %v", err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadGateway {
			t.Fatalf("POST to dead fleet: status %d, want 502", resp.StatusCode)
		}
		sawBadGateway = true
	}
	if !sawBadGateway {
		t.Fatal("no terminal response observed")
	}
	if got := f.gw.Snapshot().Retried; got != 0 {
		t.Fatalf("non-idempotent requests spent %d retries, want 0", got)
	}
}

// TestGatewayDrainStopsAdmission: after StartDrain every new request
// is refused 503 with the draining envelope, and the snapshot reports
// the drain.
func TestGatewayDrainStopsAdmission(t *testing.T) {
	f := newGateFixture(t, 2, Options{})
	if status, _, _ := f.get(t, "/fib?n=10"); status != http.StatusOK {
		t.Fatalf("pre-drain status %d", status)
	}
	f.gw.StartDrain()
	status, _, body := f.get(t, "/fib?n=10")
	if status != http.StatusServiceUnavailable || !strings.Contains(body, "gate draining") {
		t.Fatalf("draining gate answered %d (%s), want 503 gate draining", status, body)
	}
	m := f.gw.Snapshot()
	if !m.Draining || m.RejectedDraining == 0 {
		t.Fatalf("snapshot after drain = draining:%v rejected:%d", m.Draining, m.RejectedDraining)
	}
	if f.stubs[0].hits.Load()+f.stubs[1].hits.Load() != 1 {
		t.Fatal("draining gate leaked traffic to workers")
	}
}

// TestGatewayEmptyTable: no workers at all is an explicit 503, not a
// hang or a panic.
func TestGatewayEmptyTable(t *testing.T) {
	table := NewTable(64, HealthPolicy{})
	gw := New(Options{Table: table})
	front := httptest.NewServer(gw)
	defer front.Close()
	resp, err := http.Get(front.URL + "/fib?n=10")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("empty table answered %d, want 503", resp.StatusCode)
	}
}

// TestGatewayMetricsHandlers exercises the control endpoints end to
// end through a mux laid out the way cmd/lwtgate mounts them.
func TestGatewayMetricsHandlers(t *testing.T) {
	f := newGateFixture(t, 2, Options{})
	mux := http.NewServeMux()
	mux.HandleFunc("/cluster/metrics", f.gw.MetricsHandler())
	mux.HandleFunc("/cluster/workers", f.gw.WorkersHandler())
	mux.Handle("/", f.gw)
	front := httptest.NewServer(mux)
	defer front.Close()
	for i := 0; i < 10; i++ {
		resp, err := http.Get(front.URL + "/compute")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	resp, err := http.Get(front.URL + "/cluster/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{`"Proxied": 10`, `"Members": 2`, f.workers[0].ID} {
		if !strings.Contains(string(body), want) {
			t.Fatalf("metrics body missing %q:\n%s", want, body)
		}
	}
	resp, err = http.Get(front.URL + "/cluster/workers")
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), `"State": "healthy"`) {
		t.Fatalf("workers body missing state:\n%s", body)
	}
}

// TestGatewayConcurrentLoadWithKill is the in-package miniature of
// cmd/drill -scenario cluster: concurrent keyed+unkeyed load, one worker
// killed mid-stream, zero lost requests (every request gets a terminal
// response) and keyed traffic to survivors keeps its assignment.
func TestGatewayConcurrentLoadWithKill(t *testing.T) {
	f := newGateFixture(t, 3, Options{})
	ring := f.gw.Table().Ring()

	// Keys pinned to the two survivors.
	var survivorKeys []string
	for k := 0; len(survivorKeys) < 20 && k < 20000; k++ {
		key := fmt.Sprintf("sess-%d", k)
		if owner := ring.Lookup(key); owner != f.workers[2].ID {
			survivorKeys = append(survivorKeys, key)
		}
	}
	owners := make(map[string]string, len(survivorKeys))
	for _, key := range survivorKeys {
		owners[key] = ring.Lookup(key)
	}

	const goroutines = 8
	const perG = 60
	errs := make(chan error, goroutines)
	kill := make(chan struct{})
	for gi := 0; gi < goroutines; gi++ {
		go func(gi int) {
			var err error
			for i := 0; i < perG; i++ {
				if gi == 0 && i == perG/2 {
					close(kill)
				}
				path := "/fib?n=10"
				wantWorker := ""
				if i%2 == 0 {
					key := survivorKeys[(gi*perG+i)%len(survivorKeys)]
					path += "&key=" + key
					wantWorker = owners[key]
				}
				status, worker, body := 0, "", ""
				func() {
					resp, gerr := http.Get(f.front.URL + path)
					if gerr != nil {
						err = fmt.Errorf("g%d req %d: lost (no terminal response): %w", gi, i, gerr)
						return
					}
					defer resp.Body.Close()
					b, _ := io.ReadAll(resp.Body)
					status, worker, body = resp.StatusCode, resp.Header.Get(WorkerHeader), string(b)
				}()
				if err != nil {
					break
				}
				if status != http.StatusOK {
					err = fmt.Errorf("g%d req %d: status %d (%s)", gi, i, status, body)
					break
				}
				if wantWorker != "" && worker != wantWorker {
					err = fmt.Errorf("g%d req %d: key moved to %q, pinned to %q", gi, i, worker, wantWorker)
					break
				}
			}
			errs <- err
		}(gi)
	}
	<-kill
	f.stubs[2].srv.Close()
	for gi := 0; gi < goroutines; gi++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}

// TestGatewayEWMATracksLatency sanity-checks the estimate plumbing: a
// slow worker's score rises above a fast one's.
func TestGatewayEWMATracksLatency(t *testing.T) {
	w := &Worker{}
	for i := 0; i < 32; i++ {
		w.observe(10 * time.Millisecond)
	}
	fast := &Worker{}
	for i := 0; i < 32; i++ {
		fast.observe(100 * time.Microsecond)
	}
	if w.score() <= fast.score() {
		t.Fatalf("slow worker score %d <= fast worker score %d", w.score(), fast.score())
	}
}

// TestHedgeDelay pins the hedge trigger: the 25ms default before any
// sample, the [1ms, 1s] clamp on both sides, and a P99 that follows the
// latency mix as it shifts. Each step feeds samples the way hedged
// requests do — read the delay, then record a latency.
func TestHedgeDelay(t *testing.T) {
	g := New(Options{Table: NewTable(64, HealthPolicy{}), Hedge: true})
	if d := g.hedgeDelay(); d != 25*time.Millisecond {
		t.Fatalf("cold hedge delay = %v, want 25ms", d)
	}
	feed := func(n int, lat func(i int) time.Duration) time.Duration {
		for i := 0; i < n; i++ {
			g.hedgeDelay()
			g.lat.Observe(lat(i))
		}
		return g.hedgeDelay()
	}
	fixed := func(d time.Duration) func(int) time.Duration {
		return func(int) time.Duration { return d }
	}
	if d := feed(2*hedgeWindow, fixed(100*time.Microsecond)); d != time.Millisecond {
		t.Fatalf("hedge delay over 100us latencies = %v, want the 1ms floor", d)
	}
	if d := feed(2*hedgeWindow, fixed(5*time.Second)); d != time.Second {
		t.Fatalf("hedge delay over 5s latencies = %v, want the 1s ceiling", d)
	}
	// The histogram reports a bucket's upper bound: at most 25 % over.
	within := func(d, want time.Duration) bool { return d >= want && d <= want*5/4 }
	if d := feed(2*hedgeWindow, fixed(10*time.Millisecond)); !within(d, 10*time.Millisecond) {
		t.Fatalf("hedge delay after the mix fell to 10ms = %v, want ~10ms", d)
	}
	// Two requests in every hundred at 40ms put the P99 in the tail.
	mix := func(i int) time.Duration {
		if i%50 == 0 {
			return 40 * time.Millisecond
		}
		return 2 * time.Millisecond
	}
	if d := feed(2*hedgeWindow, mix); !within(d, 40*time.Millisecond) {
		t.Fatalf("hedge delay over a 2%% 40ms tail = %v, want ~40ms", d)
	}
}

// FuzzRequestDeadline checks the budget parser on arbitrary header and
// query values: it never panics, anything but a positive integer means
// no deadline, and a valid budget — however large — never lands before
// now.
func FuzzRequestDeadline(f *testing.F) {
	for _, v := range []string{"", "x", "0", "-5", "200", "+7", "9300000000000", "10000000000000", "9223372036854775807", "99999999999999999999"} {
		f.Add(v, false)
		f.Add(v, true)
	}
	f.Fuzz(func(t *testing.T, v string, query bool) {
		r := httptest.NewRequest(http.MethodGet, "/fib", nil)
		if query {
			r.URL.RawQuery = url.Values{"deadline_ms": {v}}.Encode()
		} else {
			r.Header.Set(DeadlineHeader, v)
		}
		before := time.Now()
		dl := RequestDeadline(r)
		if ms, err := strconv.ParseInt(v, 10, 64); err != nil || ms <= 0 {
			if !dl.IsZero() {
				t.Fatalf("budget %q: deadline %v, want none", v, dl)
			}
			return
		}
		if dl.Before(before) {
			t.Fatalf("budget %q: deadline %v lands before now %v", v, dl, before)
		}
	})
}
