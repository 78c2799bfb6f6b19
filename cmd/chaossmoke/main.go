// Chaossmoke drives the robustness tier end to end, as CI's
// chaos-smoke job and as a local acceptance check:
//
//  1. boots 3 lwtserved workers on ephemeral ports with a chaos proxy
//     (internal/chaos) in front of worker 0 — health probes are spared,
//     so the data path can burn while /healthz stays green, isolating
//     circuit-breaker containment from health ejection — and one
//     lwtgate over them with per-attempt timeouts, a tight breaker, and
//     end-to-end deadline budgets on every request,
//  2. injects each fault mode mid-load (added latency past the attempt
//     timeout, connection resets, 503 bursts, a blackhole) and asserts
//     zero lost requests: every request gets a terminal response inside
//     its deadline budget + slack, never a hang,
//  3. asserts the breaker cycle is visible in /metrics — the faulted
//     worker's lwt_gate_worker_breaker_opens_total grows and
//     lwt_gate_breaker_state returns to closed after each recovery,
//  4. pins a deadline-exhaustion 504 at the gate: with the faulted
//     worker blackholed and the budget below one attempt timeout, a
//     keyed request pinned to it burns its whole budget and is refused
//     with lwt_gate_deadline_exhausted_total growing,
//  5. SIGSTOPs worker 1 (a real frozen process — sockets accept,
//     nothing answers) under load, asserts containment and recovery
//     after SIGCONT, and
//  6. SIGTERMs the gate and workers and asserts clean drains (exit 0,
//     "drained cleanly" in every log) — no future is lost even after a
//     chaos run.
//
// Logs land in -logdir for archival. Exit status 0 means the whole
// scenario passed.
//
//	go build -o lwtgate ./cmd/lwtgate && go build -o lwtserved ./cmd/lwtserved
//	go run ./cmd/chaossmoke -gate ./lwtgate -worker ./lwtserved
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/chaos"
	"repro/internal/prom"
	"repro/internal/smoke"
)

var (
	gateBin   = flag.String("gate", "", "path to the lwtgate binary (required)")
	workerBin = flag.String("worker", "", "path to the lwtserved binary (required)")
	logDir    = flag.String("logdir", ".", "directory for gate/worker logs")
	faultFor  = flag.Duration("fault", 1200*time.Millisecond, "duration each fault stays armed under load")
	recovery  = flag.Duration("recovery", 1500*time.Millisecond, "post-fault window for the breaker to close again")
	loaders   = flag.Int("loaders", 4, "concurrent load goroutines")
	deadline  = flag.Duration("deadline", 2*time.Second, "end-to-end budget stamped on every load request")
)

// client timeout is the lost-request detector: the gate bounds every
// request by -deadline, so anything still unanswered here hung.
var client = &http.Client{Timeout: 60 * time.Second}

// loadStats is what the background load accumulates.
type loadStats struct {
	sent, ok, errResp, lost atomic.Int64
	maxElapsed              atomic.Int64 // ns, across terminal responses
}

// get issues one request, classifying the outcome and tracking the
// terminal-response latency against the deadline ceiling.
func (s *loadStats) get(url string) (status int, worker string) {
	s.sent.Add(1)
	t0 := time.Now()
	resp, err := client.Get(url)
	elapsed := time.Since(t0)
	for {
		old := s.maxElapsed.Load()
		if int64(elapsed) <= old || s.maxElapsed.CompareAndSwap(old, int64(elapsed)) {
			break
		}
	}
	if err != nil {
		s.lost.Add(1)
		return 0, ""
	}
	defer resp.Body.Close()
	_, _ = io.Copy(io.Discard, resp.Body)
	if resp.StatusCode == http.StatusOK {
		s.ok.Add(1)
	} else {
		s.errResp.Add(1)
	}
	return resp.StatusCode, resp.Header.Get("X-Lwt-Worker")
}

// scrape fetches the gate's Prometheus page.
func scrape(gateURL string) (string, error) {
	resp, err := client.Get(gateURL + "/metrics")
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return string(b), err
}

// promValue reads one sample off a fresh scrape; missing samples
// return -1.
func promValue(gateURL, family, workerID string) float64 {
	page, err := scrape(gateURL)
	if err != nil {
		return -1
	}
	var labels map[string]string
	if workerID != "" {
		labels = map[string]string{"worker": workerID}
	}
	v, ok := prom.Value(page, family, labels)
	if !ok {
		return -1
	}
	return v
}

// waitBreakerState polls until the worker's breaker gauge reads want.
func waitBreakerState(gateURL, workerID string, want float64, d time.Duration) bool {
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if promValue(gateURL, "lwt_gate_breaker_state", workerID) == want {
			return true
		}
		time.Sleep(50 * time.Millisecond)
	}
	return false
}

func main() {
	flag.Parse()
	log.SetFlags(log.Ltime | log.Lmicroseconds)
	if *gateBin == "" || *workerBin == "" {
		log.Fatal("chaossmoke: -gate and -worker are required")
	}
	if err := os.MkdirAll(*logDir, 0o755); err != nil {
		log.Fatal(err)
	}
	drill := &smoke.Drill{LogDir: *logDir}

	// ---- Boot: 3 workers, a chaos proxy in front of worker 0, one
	// gate over [proxy, worker1, worker2]. Health probes bypass the
	// proxy's faults; fail-after is out of reach so every bit of
	// containment below is the breaker's, not ejection's.
	var workerProcs []*smoke.Proc
	var workerAddrs []string
	for i := 0; i < 3; i++ {
		p, err := drill.Start(fmt.Sprintf("worker-%d", i), *workerBin,
			"-addr", "127.0.0.1:0", "-shards", "2", "-threads", "1",
			"-queue", "256", "-drain", "20s")
		if err != nil {
			drill.Fatalf("%v", err)
		}
		workerProcs = append(workerProcs, p)
		a, err := p.WaitAddr(30 * time.Second)
		if err != nil {
			drill.Fatalf("%v", err)
		}
		workerAddrs = append(workerAddrs, a)
		log.Printf("worker-%d listening on %s", i, a)
	}
	proxy, err := chaos.NewProxy(workerAddrs[0], chaos.Options{Spare: []string{"/healthz"}})
	if err != nil {
		drill.Fatalf("chaos proxy: %v", err)
	}
	defer proxy.Close()
	faultedID := proxy.Addr() // the gate knows worker 0 by the proxy's address
	log.Printf("chaos proxy %s -> worker-0 %s", faultedID, workerAddrs[0])

	gate, err := drill.Start("gate", *gateBin,
		"-addr", "127.0.0.1:0",
		"-workers", strings.Join([]string{faultedID, workerAddrs[1], workerAddrs[2]}, ","),
		"-check-interval", "200ms", "-check-timeout", "1s",
		"-fail-after", "1000000", "-ready-after", "2",
		"-retries", "2", "-drain", "20s",
		"-attempt-timeout", "250ms",
		"-breaker-window", "8", "-breaker-ratio", "0.5", "-breaker-cooldown", "500ms")
	if err != nil {
		drill.Fatalf("%v", err)
	}
	gateAddr, err := gate.WaitAddr(30 * time.Second)
	if err != nil {
		drill.Fatalf("%v", err)
	}
	gateURL := "http://" + gateAddr
	log.Printf("gate listening on %s", gateAddr)

	ready := false
	for i := 0; i < 100; i++ {
		if resp, err := client.Get(gateURL + "/readyz"); err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				ready = true
				break
			}
		}
		time.Sleep(100 * time.Millisecond)
	}
	if !ready {
		drill.Fatalf("gate never became ready")
	}

	// Map a keyed session onto the faulted worker for the pinned-504
	// phase below.
	var warm loadStats
	faultedKey := ""
	for k := 0; k < 20000 && faultedKey == ""; k++ {
		key := fmt.Sprintf("sess-%d", k)
		if status, worker := warm.get(gateURL + "/fib?n=12&wait=1&key=" + key); status == http.StatusOK && worker == faultedID {
			faultedKey = key
		}
	}
	if faultedKey == "" {
		drill.Fatalf("no key maps to the faulted worker")
	}

	// ---- Fault schedule under load: for each mode, arm it, hold load,
	// clear it, and require the breaker to close again before the next.
	dlMs := fmt.Sprintf("%d", deadline.Milliseconds())
	var stats loadStats
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < *loaders; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				path := "/fib?n=16&wait=1&deadline_ms=" + dlMs
				if i%3 == 0 {
					path += "&key=" + faultedKey // keep keyed pressure on the faulted worker
				}
				stats.get(gateURL + path)
			}
		}(g)
	}

	schedule := []struct {
		fault   chaos.Fault
		latency time.Duration
	}{
		{chaos.Latency, 600 * time.Millisecond}, // past the 250ms attempt timeout
		{chaos.Reset, 0},
		{chaos.Burst503, 0},
		{chaos.Blackhole, 0},
	}
	opensBefore := promValue(gateURL, "lwt_gate_worker_breaker_opens_total", faultedID)
	for _, s := range schedule {
		log.Printf("injecting %v for %v", s.fault, *faultFor)
		proxy.Inject(s.fault, s.latency)
		time.Sleep(*faultFor)
		proxy.Clear()
		// 503 bursts are backpressure, not breaker failures: the worker
		// is answering. Every other mode must cycle the breaker closed
		// again once the fault clears.
		if s.fault != chaos.Burst503 {
			if !waitBreakerState(gateURL, faultedID, float64(0), *recovery+2*time.Second) {
				drill.Failf("breaker did not close after %v cleared (state=%v)",
					s.fault, promValue(gateURL, "lwt_gate_breaker_state", faultedID))
			}
		} else {
			time.Sleep(*recovery)
		}
	}
	opensAfter := promValue(gateURL, "lwt_gate_worker_breaker_opens_total", faultedID)
	if opensAfter <= opensBefore {
		drill.Failf("breaker_opens_total did not grow across the fault schedule (%v -> %v)", opensBefore, opensAfter)
	} else {
		log.Printf("breaker cycled: opens %v -> %v, state closed again", opensBefore, opensAfter)
	}

	// ---- Pinned deadline exhaustion: with the faulted worker
	// blackholed and a budget below one attempt timeout, a keyed
	// request pinned to it must burn its budget and get the gate's 504
	// — and quickly, never the blackhole's hang.
	if !waitBreakerState(gateURL, faultedID, 0, 5*time.Second) {
		drill.Failf("breaker not closed before the deadline-exhaustion phase")
	}
	proxy.Inject(chaos.Blackhole, 0)
	exhaustedBefore := promValue(gateURL, "lwt_gate_deadline_exhausted_total", "")
	saw504 := false
	for i := 0; i < 5 && !saw504; i++ {
		var probe loadStats
		t0 := time.Now()
		status, _ := probe.get(gateURL + "/fib?n=16&wait=1&key=" + faultedKey + "&deadline_ms=100")
		if status == http.StatusGatewayTimeout {
			saw504 = true
			if d := time.Since(t0); d > 2*time.Second {
				drill.Failf("pinned 504 took %v, want ≈100ms budget", d)
			}
		}
	}
	proxy.Clear()
	if !saw504 {
		drill.Failf("no 504 for a budget-exhausted keyed request pinned to a blackholed worker")
	}
	if after := promValue(gateURL, "lwt_gate_deadline_exhausted_total", ""); !(after > exhaustedBefore) {
		drill.Failf("deadline_exhausted_total did not grow (%v -> %v)", exhaustedBefore, after)
	}
	if !waitBreakerState(gateURL, faultedID, 0, 5*time.Second) {
		drill.Failf("breaker did not recover after the blackhole phase")
	}

	// ---- SIGSTOP phase: freeze worker 1 — a real stopped process, not
	// a proxy fault. Its sockets accept and nothing answers; the
	// attempt timeout cuts each stranded attempt and the breaker
	// contains it until SIGCONT.
	w1 := workerProcs[1]
	log.Printf("SIGSTOPping worker-1 (%s) under load", workerAddrs[1])
	if err := chaos.Pause(w1.Cmd.Process.Pid); err != nil {
		drill.Failf("SIGSTOP worker-1: %v", err)
	}
	time.Sleep(*faultFor)
	stoppedState := promValue(gateURL, "lwt_gate_breaker_state", workerAddrs[1])
	if err := chaos.Resume(w1.Cmd.Process.Pid); err != nil {
		drill.Failf("SIGCONT worker-1: %v", err)
	}
	if stoppedState != float64(2) {
		// The breaker may legitimately be half-open at sample time;
		// what matters is that it opened at all.
		if promValue(gateURL, "lwt_gate_worker_breaker_opens_total", workerAddrs[1]) < 1 {
			drill.Failf("frozen worker never opened its breaker (state at freeze end: %v)", stoppedState)
		}
	}
	if !waitBreakerState(gateURL, workerAddrs[1], 0, 10*time.Second) {
		drill.Failf("breaker did not close after SIGCONT")
	} else {
		log.Printf("worker-1 thawed; breaker closed again")
	}

	close(stop)
	wg.Wait()

	// ---- Terminal-response + deadline-ceiling verdicts over the whole
	// run.
	sent, okN, errN, lost := stats.sent.Load(), stats.ok.Load(), stats.errResp.Load(), stats.lost.Load()
	maxEl := time.Duration(stats.maxElapsed.Load())
	log.Printf("load done: sent=%d ok=%d explicit-errors=%d lost=%d max-elapsed=%v",
		sent, okN, errN, lost, maxEl)
	if lost != 0 {
		drill.Failf("%d requests lost (no terminal response) — hangs leaked through the deadline tier", lost)
	}
	if okN == 0 {
		drill.Failf("no successful responses under chaos load")
	}
	// The ceiling: every request carried a -deadline budget; nothing
	// may take longer than budget + generous scheduling slack.
	if ceiling := *deadline + 3*time.Second; maxEl > ceiling {
		drill.Failf("max terminal-response latency %v exceeds the deadline ceiling %v", maxEl, ceiling)
	}
	// Containment: with retries, hedging headroom, and only one worker
	// faulted at a time, client-visible errors stay a small fraction.
	if errN*4 > sent {
		drill.Failf("explicit errors %d exceed 25%% of %d sent — containment failed", errN, sent)
	}

	// ---- Clean drains: chaos over, nothing may be lost at shutdown.
	if code, err := gate.SignalAndWait(syscall.SIGTERM, 30*time.Second); err != nil || code != 0 {
		drill.Failf("gate drain: exit=%d err=%v", code, err)
	} else if !drill.LogContains("gate", "drained cleanly") {
		drill.Failf("gate log missing 'drained cleanly'")
	}
	for i, p := range workerProcs {
		if code, err := p.SignalAndWait(syscall.SIGTERM, 30*time.Second); err != nil || code != 0 {
			drill.Failf("worker-%d drain: exit=%d err=%v", i, code, err)
		} else if !drill.LogContains(fmt.Sprintf("worker-%d", i), "drained cleanly") {
			drill.Failf("worker-%d log missing 'drained cleanly'", i)
		}
	}

	if n := drill.Failed(); n > 0 {
		log.Fatalf("chaos smoke FAILED: %d check(s) failed", n)
	}
	log.Printf("chaos smoke PASSED: %d requests, 4 proxy faults + 1 SIGSTOP, 0 lost, max latency %v under a %v budget, breaker cycled, clean drains",
		sent, maxEl, *deadline)
}
