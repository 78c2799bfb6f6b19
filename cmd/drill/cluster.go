package main

import (
	"context"
	"fmt"
	"log"
	"net/http"
	"sync/atomic"
	"time"

	"repro/internal/chaos"
	"repro/internal/smoke"
)

// The cluster drill's fixed shape.
const (
	clusterWorkers = 3               // lwtserved processes behind the gate
	clusterLoad    = 5 * time.Second // length of the kill-mid-load phase
	clusterLoaders = 6               // concurrent load goroutines
	clusterKeys    = 120             // keyed sessions tracked for affinity and reshuffle
)

// clusterClient's timeout is the no-hangs guarantee: a request that
// cannot produce a response inside it counts as lost.
var clusterClient = &http.Client{Timeout: 90 * time.Second}

type workerRow struct {
	ID    string
	State string
}

// clusterDrill drives keyed and unkeyed load through a gate over
// clusterWorkers workers, freezes one and kills another under load,
// and checks that no request is lost, that the gate ejects and
// re-admits, and that keys stay put or reshuffle only as far as the
// ring bounds them.
func clusterDrill(d *smoke.Drill) string {
	workers := bootWorkers(d, clusterWorkers)
	var workerAddrs []string
	for _, w := range workers {
		workerAddrs = append(workerAddrs, w.Addr)
	}
	gate := bootGate(d, clusterClient, workerAddrs, "-fail-after", "2", "-attempt-timeout", "2s")
	gateURL := "http://" + gate.Addr
	get := func(path string, out any) smoke.Reply { return smoke.Get(clusterClient, gateURL+path, out) }

	// ---- Keyed + unkeyed fib/dgemm/parfor on every backend, proxied
	// through the gate; a keyed reply names the worker that served it.
	backends := checkBackends(d, get, []backendCheck{
		{"/fib?n=22&wait=1&backend=%s", "value 17711", func(v float64, _ string) bool { return v == 17711 }},
		{"/dgemm?n=48&wait=1&backend=%s", "value > 0", func(v float64, _ string) bool { return v > 0 }},
		{"/parfor?n=65536&backend=%s", "value > 0", func(v float64, _ string) bool { return v > 0 }},
		{"/fib?n=20&wait=1&backend=%[1]s&key=smoke-%[1]s", "value 6765 from a named worker",
			func(v float64, worker string) bool { return v == 6765 && worker != "" }},
	})

	// ---- Map keyed sessions to workers and pin the map.
	keyOf := func(i int) string { return fmt.Sprintf("sess-%d", i) }
	route := func() map[string]string {
		m := make(map[string]string, clusterKeys)
		for i := 0; i < clusterKeys; i++ {
			key := keyOf(i)
			if r := get("/fib?n=12&wait=1&key="+key, nil); r.Status != http.StatusOK || r.Err != nil || r.Worker == "" {
				d.Failf("keyed request %s: status %d worker %q err %v", key, r.Status, r.Worker, r.Err)
			} else {
				m[key] = r.Worker
			}
		}
		return m
	}
	owner := route()
	if len(owner) != clusterKeys {
		d.Fatalf("affinity map: only %d of %d keys routed", len(owner), clusterKeys)
	}
	checkStable(d, "before kill", owner, route())
	perWorker := map[string]int{}
	for _, w := range owner {
		perWorker[w]++
	}
	log.Printf("keyed sessions per worker: %v", perWorker)

	// ---- SIGSTOP worker-0 under load. A frozen process is the failure
	// health checks alone cannot tell from slowness — its sockets still
	// accept, nothing in userspace answers. The gate's attempt timeout
	// must cut every stranded attempt (zero lost requests), the
	// timed-out probes must eject it, and SIGCONT must bring it back
	// with its key affinity intact.
	frozen := workers[0]
	log.Printf("SIGSTOPping worker-0 (%s) under load", frozen.Addr)
	if err := chaos.Pause(frozen.Cmd.Process.Pid); err != nil {
		d.Fatalf("SIGSTOP worker-0: %v", err)
	}
	var frozenLoad smoke.Tally
	ctx, cancel := context.WithTimeout(context.Background(), 4*time.Second)
	smoke.Load(ctx, clusterLoaders, func(g, i int) {
		path := "/fib?n=12&wait=1"
		if i%2 == 0 {
			path += "&key=" + keyOf((g*clusterKeys/8+i)%clusterKeys)
		}
		frozenLoad.Add(get(path, nil))
	})
	cancel()
	log.Printf("frozen-worker load: %v", &frozenLoad)
	if n := frozenLoad.Lost.Load(); n != 0 {
		d.Failf("%d requests lost while worker-0 was frozen", n)
	}
	if frozenLoad.OK.Load() == 0 {
		d.Failf("no successful responses while worker-0 was frozen")
	}
	if !waitEjected(frozen.Addr, get) {
		d.Failf("gate never ejected frozen worker %s", frozen.Addr)
	}
	if err := chaos.Resume(frozen.Cmd.Process.Pid); err != nil {
		d.Fatalf("SIGCONT worker-0: %v", err)
	}
	// Re-admission plus breaker recovery: a key owned by the thawed
	// worker routes back to it once probes pass and its breaker's
	// half-open probe succeeds.
	frozenKey := ""
	for key, w := range owner {
		if w == frozen.Addr {
			frozenKey = key
			break
		}
	}
	if frozenKey == "" {
		d.Failf("no keyed session mapped to worker-0; cannot verify thaw affinity")
	} else {
		if !smoke.Poll(15*time.Second, 200*time.Millisecond, func() bool {
			return get("/fib?n=12&wait=1&key="+frozenKey, nil).Worker == frozen.Addr
		}) {
			d.Failf("thawed worker %s never got key %s back", frozen.Addr, frozenKey)
		} else {
			log.Printf("worker-0 thawed: re-admitted, affinity restored")
		}
	}

	// ---- Concurrent keyed+unkeyed load across backends; SIGKILL one
	// worker mid-stream. Every request must get a terminal response,
	// and keys pinned to survivors must never change worker.
	victim := workers[1]
	var killed atomic.Bool
	var load smoke.Tally
	go func() {
		time.Sleep(clusterLoad / 4)
		killed.Store(true)
		log.Printf("SIGKILLing worker-1 (%s) mid-load", victim.Addr)
		_ = victim.Cmd.Process.Kill()
	}()
	ctx, cancel = context.WithTimeout(context.Background(), clusterLoad)
	smoke.Load(ctx, clusterLoaders, func(g, i int) {
		b := backends[(g+i)%len(backends)]
		var path, wantWorker string
		switch i % 4 {
		case 0:
			key := keyOf((g*clusterKeys/8 + i) % clusterKeys)
			path = "/fib?n=16&wait=1&backend=" + b + "&key=" + key
			if w := owner[key]; w != victim.Addr {
				wantWorker = w
			}
		case 1:
			path = "/fib?n=16&wait=1&backend=" + b
		case 2:
			path = "/dgemm?n=32&wait=1&backend=" + b
		default:
			path = "/parfor?n=8192&backend=" + b
		}
		r := get(path, nil)
		load.Add(r)
		// The affinity contract under failure: a key pinned to a
		// surviving worker never moves, even while the victim is
		// dying. (Keys pinned to the victim may fail over.)
		if r.Status == http.StatusOK && wantWorker != "" && r.Worker != wantWorker {
			d.Failf("load: key pinned to survivor %s served by %s", wantWorker, r.Worker)
		}
	})
	cancel()
	if !killed.Load() {
		d.Failf("load phase ended before the kill fired")
	}
	log.Printf("load done: %v", &load)
	if n := load.Lost.Load(); n != 0 {
		d.Failf("%d requests lost (no terminal response)", n)
	}
	if load.OK.Load() == 0 {
		d.Failf("no successful responses under load")
	}
	if e, s := load.Errors.Load(), load.Sent.Load(); e*20 > s {
		d.Failf("explicit errors %d exceed 5%% of %d sent", e, s)
	}

	// ---- The gate must have ejected the victim; keys pinned to
	// survivors stay put, the victim's keys remap stably onto
	// survivors, and nothing else reshuffles.
	if !waitEjected(victim.Addr, get) {
		d.Failf("gate never ejected killed worker %s", victim.Addr)
	}
	moved := 0
	newOwner := route()
	for key, w := range newOwner {
		switch {
		case w == victim.Addr:
			d.Failf("key %s still routed to killed worker", key)
		case owner[key] == victim.Addr:
			moved++
		case w != owner[key]:
			d.Failf("bounded reshuffle violated: key %s on survivor %s moved to %s", key, owner[key], w)
		}
	}
	// The victim's share is ~K/N (consistent hashing's bound); well
	// under half the keys for N=3 even with ring imbalance.
	if moved != perWorker[victim.Addr] {
		d.Failf("moved %d keys, expected exactly the victim's %d", moved, perWorker[victim.Addr])
	}
	if 2*moved >= clusterKeys {
		d.Failf("reshuffle unbounded: %d/%d keys moved", moved, clusterKeys)
	}
	log.Printf("bounded reshuffle: %d/%d keys remapped (victim owned %d)", moved, clusterKeys, perWorker[victim.Addr])
	checkStable(d, "after kill", newOwner, route())

	// ---- Graceful drain — gate first, then surviving workers.
	d.Drain(drainWithin, gate, workers[0], workers[2])
	return fmt.Sprintf("%d workers, %d requests under load, 1 freeze + 1 kill, 0 lost, %d/%d keys reshuffled, clean drains",
		clusterWorkers, load.Sent.Load(), moved, clusterKeys)
}

// checkStable fails every key that routes differently now than before.
func checkStable(d *smoke.Drill, when string, before, now map[string]string) {
	for key, w := range before {
		if now[key] != w {
			d.Failf("affinity unstable %s: key %s moved %s -> %s", when, key, w, now[key])
		}
	}
}

// waitEjected polls the gate's /cluster/workers for up to 5 s until
// the worker at addr reads "ejected".
func waitEjected(addr string, get func(string, any) smoke.Reply) bool {
	return smoke.Poll(5*time.Second, 100*time.Millisecond, func() bool {
		var rows []workerRow
		get("/cluster/workers", &rows)
		for _, row := range rows {
			if row.ID == addr && row.State == "ejected" {
				return true
			}
		}
		return false
	})
}
