package main

import (
	"context"
	"fmt"
	"log"
	"net/http"
	"time"

	"repro/internal/chaos"
	"repro/internal/smoke"
)

// The chaos drill's fixed shape.
const (
	chaosFault    = 1200 * time.Millisecond // how long each fault stays armed under load
	chaosRecovery = 1500 * time.Millisecond // post-fault window for the breaker to close again
	chaosLoaders  = 4                       // concurrent load goroutines
	chaosDeadline = 2 * time.Second         // end-to-end budget stamped on every load request
)

// chaosClient's timeout is the lost-request detector: the gate bounds
// every request by chaosDeadline, so anything still unanswered here
// hung.
var chaosClient = &http.Client{Timeout: 60 * time.Second}

// chaosDrill runs deadline-budgeted load through a gate while a chaos
// proxy (internal/chaos) in front of worker 0 cycles through each fault
// mode and worker 1 is frozen, and checks that nothing is lost or
// outlives its budget, that the breaker opens and closes again around
// every fault, and that a budget dying against a blackhole gets the
// gate's 504.
func chaosDrill(d *smoke.Drill) string {
	// Health probes bypass the proxy's faults, and fail-after is out of
	// reach, so every bit of containment below is the breaker's, not
	// ejection's.
	workers := bootWorkers(d, 3)
	proxy, err := chaos.NewProxy(workers[0].Addr, chaos.Options{Spare: []string{"/healthz"}})
	if err != nil {
		d.Fatalf("chaos proxy: %v", err)
	}
	defer proxy.Close()
	faultedID := proxy.Addr() // the gate knows worker 0 by the proxy's address
	log.Printf("chaos proxy %s -> worker-0 %s", faultedID, workers[0].Addr)

	gate := bootGate(d, chaosClient, []string{faultedID, workers[1].Addr, workers[2].Addr},
		"-fail-after", "1000000", "-attempt-timeout", "250ms",
		"-breaker-window", "8", "-breaker-ratio", "0.5", "-breaker-cooldown", "500ms")
	gateURL := "http://" + gate.Addr
	get := func(path string) smoke.Reply { return smoke.Get(chaosClient, gateURL+path, nil) }
	sample := func(family, workerID string) float64 { return smoke.Sample(chaosClient, gateURL, family, workerID) }
	waitBreakerClosed := func(workerID string, within time.Duration) bool {
		return smoke.Poll(within, 50*time.Millisecond, func() bool { return sample("lwt_gate_breaker_state", workerID) == 0 })
	}

	// Map a keyed session onto the faulted worker for the pinned-504
	// phase below.
	faultedKey := ""
	for k := 0; k < 20000 && faultedKey == ""; k++ {
		key := fmt.Sprintf("sess-%d", k)
		if r := get("/fib?n=12&wait=1&key=" + key); r.Status == http.StatusOK && r.Worker == faultedID {
			faultedKey = key
		}
	}
	if faultedKey == "" {
		d.Fatalf("no key maps to the faulted worker")
	}

	// ---- Fault schedule under load: for each mode, arm it, hold load,
	// clear it, and require the breaker to close again before the next.
	dlMs := fmt.Sprintf("%d", chaosDeadline.Milliseconds())
	var load smoke.Tally
	ctx, stopLoad := context.WithCancel(context.Background())
	loaded := make(chan struct{})
	go func() {
		defer close(loaded)
		smoke.Load(ctx, chaosLoaders, func(_, i int) {
			path := "/fib?n=16&wait=1&deadline_ms=" + dlMs
			if i%3 == 0 {
				path += "&key=" + faultedKey // keep keyed pressure on the faulted worker
			}
			load.Add(get(path))
		})
	}()

	schedule := []struct {
		fault   chaos.Fault
		latency time.Duration
	}{
		{chaos.Latency, 600 * time.Millisecond}, // past the 250ms attempt timeout
		{chaos.Reset, 0},
		{chaos.Burst503, 0},
		{chaos.Blackhole, 0},
	}
	opensBefore := sample("lwt_gate_worker_breaker_opens_total", faultedID)
	for _, s := range schedule {
		log.Printf("injecting %v for %v", s.fault, chaosFault)
		proxy.Inject(s.fault, s.latency)
		time.Sleep(chaosFault)
		proxy.Clear()
		// 503 bursts are backpressure, not breaker failures: the worker
		// is answering. Every other mode must cycle the breaker closed
		// again once the fault clears.
		if s.fault != chaos.Burst503 {
			if !waitBreakerClosed(faultedID, chaosRecovery+2*time.Second) {
				d.Failf("breaker did not close after %v cleared (state=%v)",
					s.fault, sample("lwt_gate_breaker_state", faultedID))
			}
		} else {
			time.Sleep(chaosRecovery)
		}
	}
	opensAfter := sample("lwt_gate_worker_breaker_opens_total", faultedID)
	if opensAfter <= opensBefore {
		d.Failf("breaker_opens_total did not grow across the fault schedule (%v -> %v)", opensBefore, opensAfter)
	} else {
		log.Printf("breaker cycled: opens %v -> %v, state closed again", opensBefore, opensAfter)
	}

	// ---- Pinned deadline exhaustion: with the faulted worker
	// blackholed and a budget below one attempt timeout, a keyed
	// request pinned to it must burn its budget and get the gate's 504
	// — and quickly, never the blackhole's hang.
	if !waitBreakerClosed(faultedID, 5*time.Second) {
		d.Failf("breaker not closed before the deadline-exhaustion phase")
	}
	proxy.Inject(chaos.Blackhole, 0)
	exhaustedBefore := sample("lwt_gate_deadline_exhausted_total", "")
	saw504 := false
	for i := 0; i < 5 && !saw504; i++ {
		if r := get("/fib?n=16&wait=1&key=" + faultedKey + "&deadline_ms=100"); r.Status == http.StatusGatewayTimeout {
			saw504 = true
			if r.Elapsed > 2*time.Second {
				d.Failf("pinned 504 took %v, want ≈100ms budget", r.Elapsed)
			}
		}
	}
	proxy.Clear()
	if !saw504 {
		d.Failf("no 504 for a budget-exhausted keyed request pinned to a blackholed worker")
	}
	if after := sample("lwt_gate_deadline_exhausted_total", ""); !(after > exhaustedBefore) {
		d.Failf("deadline_exhausted_total did not grow (%v -> %v)", exhaustedBefore, after)
	}
	if !waitBreakerClosed(faultedID, 5*time.Second) {
		d.Failf("breaker did not recover after the blackhole phase")
	}

	// ---- SIGSTOP phase: freeze worker 1 — a real stopped process, not
	// a proxy fault. Its sockets accept and nothing answers; the
	// attempt timeout cuts each stranded attempt and the breaker
	// contains it until SIGCONT.
	w1 := workers[1]
	log.Printf("SIGSTOPping worker-1 (%s) under load", w1.Addr)
	if err := chaos.Pause(w1.Cmd.Process.Pid); err != nil {
		d.Failf("SIGSTOP worker-1: %v", err)
	}
	time.Sleep(chaosFault)
	stoppedState := sample("lwt_gate_breaker_state", w1.Addr)
	if err := chaos.Resume(w1.Cmd.Process.Pid); err != nil {
		d.Failf("SIGCONT worker-1: %v", err)
	}
	if stoppedState != 2 {
		// The breaker may legitimately be half-open at sample time;
		// what matters is that it opened at all.
		if sample("lwt_gate_worker_breaker_opens_total", w1.Addr) < 1 {
			d.Failf("frozen worker never opened its breaker (state at freeze end: %v)", stoppedState)
		}
	}
	if !waitBreakerClosed(w1.Addr, 10*time.Second) {
		d.Failf("breaker did not close after SIGCONT")
	} else {
		log.Printf("worker-1 thawed; breaker closed again")
	}

	stopLoad()
	<-loaded

	// ---- Terminal-response + deadline-ceiling verdicts over the whole
	// run.
	maxEl := time.Duration(load.MaxElapsed.Load())
	log.Printf("load done: %v max-elapsed=%v", &load, maxEl)
	if n := load.Lost.Load(); n != 0 {
		d.Failf("%d requests lost (no terminal response) — hangs leaked through the deadline tier", n)
	}
	if load.OK.Load() == 0 {
		d.Failf("no successful responses under chaos load")
	}
	// The ceiling: every request carried a chaosDeadline budget;
	// nothing may take longer than budget + generous scheduling slack.
	if ceiling := chaosDeadline + 3*time.Second; maxEl > ceiling {
		d.Failf("max terminal-response latency %v exceeds the deadline ceiling %v", maxEl, ceiling)
	}
	// Containment: with two retries and only one worker faulted at a
	// time, client-visible errors stay a small fraction.
	if e, s := load.Errors.Load(), load.Sent.Load(); e*4 > s {
		d.Failf("explicit errors %d exceed 25%% of %d sent — containment failed", e, s)
	}

	// ---- Clean drains: chaos over, nothing may be lost at shutdown.
	d.Drain(drainWithin, append([]*smoke.Proc{gate}, workers...)...)
	return fmt.Sprintf("%d requests, 4 proxy faults + 1 SIGSTOP, 0 lost, max latency %v under a %v budget, breaker cycled, clean drains",
		load.Sent.Load(), maxEl, chaosDeadline)
}
