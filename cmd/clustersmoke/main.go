// Clustersmoke drives the distributed serving tier end to end, as CI's
// cluster-smoke job and as a local acceptance check:
//
//  1. boots N lwtserved workers on ephemeral ports (parsing each
//     "listening on <addr>" line) and one lwtgate over them,
//  2. drives keyed + unkeyed fib/dgemm/parfor across every backend
//     through the gate and verifies results,
//  3. maps keyed sessions to workers (X-LWT-Worker), SIGSTOPs one
//     worker under load — a frozen process whose sockets still accept —
//     and asserts zero lost requests (the gate's attempt timeout cuts
//     stranded attempts), ejection while frozen, and re-admission with
//     restored affinity after SIGCONT; then SIGKILLs another
//     worker mid-load and asserts zero lost requests — every request
//     gets a terminal response (success or explicit error, no hangs) —
//     while keyed traffic pinned to survivors never changes worker,
//  4. verifies the gate ejected the dead worker, that only the dead
//     worker's ~1/N key share remapped (bounded reshuffle), and that
//     the remapped keys sit stably on survivors,
//  5. SIGTERMs the gate and the surviving workers and asserts each
//     drains cleanly with exit 0.
//
// Worker and gate logs land in -logdir for archival. Exit status 0
// means the whole scenario passed.
//
//	go build -o lwtgate ./cmd/lwtgate && go build -o lwtserved ./cmd/lwtserved
//	go run ./cmd/clustersmoke -gate ./lwtgate -worker ./lwtserved
package main

import (
	"encoding/json"
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
	"repro/internal/smoke"
)

var (
	gateBin   = flag.String("gate", "", "path to the lwtgate binary (required)")
	workerBin = flag.String("worker", "", "path to the lwtserved binary (required)")
	nWorkers  = flag.Int("n", 3, "worker process count")
	logDir    = flag.String("logdir", ".", "directory for gate/worker logs")
	loadFor   = flag.Duration("load", 4*time.Second, "duration of the kill-mid-load phase")
	loaders   = flag.Int("loaders", 6, "concurrent load goroutines")
	keyCount  = flag.Int("keys", 120, "keyed sessions tracked for affinity/reshuffle checks")
)

// client enforces the no-hangs terminal-response guarantee: any request
// that cannot produce a response inside the timeout counts as lost.
var client = &http.Client{Timeout: 90 * time.Second}

// getJSON issues a GET and decodes the body into out (when non-nil).
// It returns the status and serving worker id; a transport error or
// timeout returns lost=true — the smoke's definition of a lost request.
func getJSON(url string, out any) (status int, worker string, lost bool, err error) {
	resp, err := client.Get(url)
	if err != nil {
		return 0, "", true, err
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if out != nil && resp.StatusCode == http.StatusOK {
		if jerr := json.Unmarshal(body, out); jerr != nil {
			return resp.StatusCode, "", false, fmt.Errorf("decode %s: %w (body %q)", url, jerr, body)
		}
	}
	return resp.StatusCode, resp.Header.Get("X-Lwt-Worker"), false, nil
}

type computeResult struct {
	Backend string  `json:"backend"`
	Value   float64 `json:"value"`
}

type workerRow struct {
	ID    string
	State string
}

func main() {
	flag.Parse()
	log.SetFlags(log.Ltime | log.Lmicroseconds)
	if *gateBin == "" || *workerBin == "" {
		log.Fatal("clustersmoke: -gate and -worker are required")
	}
	if err := os.MkdirAll(*logDir, 0o755); err != nil {
		log.Fatal(err)
	}
	drill := &smoke.Drill{LogDir: *logDir}

	// ---- Phase 1: boot N workers + 1 gate on ephemeral ports.
	var workerProcs []*smoke.Proc
	var workerAddrs []string
	for i := 0; i < *nWorkers; i++ {
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
	gate, err := drill.Start("gate", *gateBin,
		"-addr", "127.0.0.1:0", "-workers", strings.Join(workerAddrs, ","),
		"-check-interval", "200ms", "-check-timeout", "1s",
		"-fail-after", "2", "-ready-after", "2", "-retries", "2", "-drain", "20s",
		"-attempt-timeout", "2s")
	if err != nil {
		drill.Fatalf("%v", err)
	}
	gateAddr, err := gate.WaitAddr(30 * time.Second)
	if err != nil {
		drill.Fatalf("%v", err)
	}
	gateURL := "http://" + gateAddr
	log.Printf("gate listening on %s over %v", gateAddr, workerAddrs)

	ok := false
	for i := 0; i < 100; i++ {
		if status, _, _, _ := getJSON(gateURL+"/readyz", nil); status == http.StatusOK {
			ok = true
			break
		}
		time.Sleep(100 * time.Millisecond)
	}
	if !ok {
		drill.Fatalf("gate never became ready")
	}

	// ---- Phase 2: keyed + unkeyed fib/dgemm/parfor on every backend,
	// proxied through the gate.
	var backends []string
	if status, _, _, err := getJSON(gateURL+"/backends", &backends); err != nil || status != http.StatusOK || len(backends) == 0 {
		drill.Fatalf("listing backends through gate: status %d err %v", status, err)
	}
	log.Printf("driving backends through gate: %v", backends)
	for _, b := range backends {
		var r computeResult
		if status, _, _, err := getJSON(gateURL+"/fib?n=22&wait=1&backend="+b, &r); status != http.StatusOK || err != nil || r.Value != 17711 {
			drill.Failf("backend %s: fib(22) status %d value %v err %v", b, status, r.Value, err)
		}
		if status, _, _, err := getJSON(gateURL+"/dgemm?n=48&wait=1&backend="+b, &r); status != http.StatusOK || err != nil || r.Value <= 0 {
			drill.Failf("backend %s: dgemm status %d value %v err %v", b, status, r.Value, err)
		}
		if status, _, _, err := getJSON(gateURL+"/parfor?n=65536&backend="+b, &r); status != http.StatusOK || err != nil || r.Value <= 0 {
			drill.Failf("backend %s: parfor status %d value %v err %v", b, status, r.Value, err)
		}
		if status, worker, _, err := getJSON(gateURL+"/fib?n=20&wait=1&backend="+b+"&key=smoke-"+b, &r); status != http.StatusOK || err != nil || r.Value != 6765 || worker == "" {
			drill.Failf("backend %s: keyed fib(20) status %d value %v worker %q err %v", b, status, r.Value, worker, err)
		}
	}

	// ---- Phase 3: map keyed sessions to workers and pin the map.
	keyOf := func(i int) string { return fmt.Sprintf("sess-%d", i) }
	owner := make(map[string]string, *keyCount)
	for i := 0; i < *keyCount; i++ {
		key := keyOf(i)
		status, worker, _, err := getJSON(gateURL+"/fib?n=12&wait=1&key="+key, nil)
		if status != http.StatusOK || worker == "" || err != nil {
			drill.Fatalf("affinity map: key %s status %d worker %q err %v", key, status, worker, err)
		}
		owner[key] = worker
	}
	for i := 0; i < *keyCount; i++ {
		key := keyOf(i)
		if _, worker, _, _ := getJSON(gateURL+"/fib?n=12&wait=1&key="+key, nil); worker != owner[key] {
			drill.Failf("affinity unstable before kill: key %s moved %s -> %s", key, owner[key], worker)
		}
	}
	perWorker := map[string]int{}
	for _, w := range owner {
		perWorker[w]++
	}
	log.Printf("keyed sessions per worker: %v", perWorker)

	// ---- Phase 3b: SIGSTOP worker-0 under load. A frozen process is
	// the failure health checks alone cannot tell from slowness — its
	// sockets still accept, nothing in userspace answers. The gate's
	// attempt timeout must cut every stranded attempt (zero lost
	// requests), the timed-out probes must eject it, and SIGCONT must
	// bring it back with its key affinity intact.
	frozen := workerProcs[0]
	frozenAddr := workerAddrs[0]
	log.Printf("SIGSTOPping worker-0 (%s) under load", frozenAddr)
	if err := chaos.Pause(frozen.Cmd.Process.Pid); err != nil {
		drill.Fatalf("SIGSTOP worker-0: %v", err)
	}
	{
		var fLost, fOK, fErr atomic.Int64
		var fwg sync.WaitGroup
		fEnd := time.Now().Add(4 * time.Second)
		for g := 0; g < *loaders; g++ {
			fwg.Add(1)
			go func(g int) {
				defer fwg.Done()
				for i := 0; time.Now().Before(fEnd); i++ {
					path := "/fib?n=12&wait=1"
					if i%2 == 0 {
						path += "&key=" + keyOf((g*(*keyCount)/8+i)%*keyCount)
					}
					status, _, isLost, _ := getJSON(gateURL+path, nil)
					switch {
					case isLost:
						fLost.Add(1)
					case status == http.StatusOK:
						fOK.Add(1)
					default:
						fErr.Add(1)
					}
				}
			}(g)
		}
		fwg.Wait()
		log.Printf("frozen-worker load: ok=%d explicit-errors=%d lost=%d", fOK.Load(), fErr.Load(), fLost.Load())
		if fLost.Load() != 0 {
			drill.Failf("%d requests lost while worker-0 was frozen", fLost.Load())
		}
		if fOK.Load() == 0 {
			drill.Failf("no successful responses while worker-0 was frozen")
		}
	}
	frozenEjected := false
	for i := 0; i < 50 && !frozenEjected; i++ {
		var rows []workerRow
		if status, _, _, err := getJSON(gateURL+"/cluster/workers", &rows); status == http.StatusOK && err == nil {
			for _, r := range rows {
				if r.ID == frozenAddr && r.State == "ejected" {
					frozenEjected = true
				}
			}
		}
		if !frozenEjected {
			time.Sleep(100 * time.Millisecond)
		}
	}
	if !frozenEjected {
		drill.Failf("gate never ejected frozen worker %s", frozenAddr)
	}
	if err := chaos.Resume(frozen.Cmd.Process.Pid); err != nil {
		drill.Fatalf("SIGCONT worker-0: %v", err)
	}
	// Re-admission plus breaker recovery: a key owned by the thawed
	// worker routes back to it once probes pass and its breaker's
	// half-open probe succeeds.
	frozenKey := ""
	for key, w := range owner {
		if w == frozenAddr {
			frozenKey = key
			break
		}
	}
	if frozenKey == "" {
		drill.Failf("no keyed session mapped to worker-0; cannot verify thaw affinity")
	} else {
		restored := false
		deadline := time.Now().Add(15 * time.Second)
		for time.Now().Before(deadline) {
			if _, worker, _, _ := getJSON(gateURL+"/fib?n=12&wait=1&key="+frozenKey, nil); worker == frozenAddr {
				restored = true
				break
			}
			time.Sleep(200 * time.Millisecond)
		}
		if !restored {
			drill.Failf("thawed worker %s never got key %s back", frozenAddr, frozenKey)
		} else {
			log.Printf("worker-0 thawed: re-admitted, affinity restored")
		}
	}

	// ---- Phase 4: concurrent keyed+unkeyed load across backends;
	// SIGKILL one worker mid-stream. Every request must get a terminal
	// response, and keys pinned to survivors must never change worker.
	victim := workerProcs[1]
	victimAddr := workerAddrs[1]
	var killed atomic.Bool
	var sent, okResp, explicitErr, lost, affinityViolations atomic.Int64

	loadBackends := backends
	var wg sync.WaitGroup
	end := time.Now().Add(*loadFor)
	for g := 0; g < *loaders; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; time.Now().Before(end); i++ {
				b := loadBackends[(g+i)%len(loadBackends)]
				var path, wantWorker string
				switch i % 4 {
				case 0:
					key := keyOf((g*(*keyCount)/8 + i) % *keyCount)
					path = "/fib?n=16&wait=1&backend=" + b + "&key=" + key
					if w := owner[key]; w != victimAddr {
						wantWorker = w
					}
				case 1:
					path = "/fib?n=16&wait=1&backend=" + b
				case 2:
					path = "/dgemm?n=32&wait=1&backend=" + b
				default:
					path = "/parfor?n=8192&backend=" + b
				}
				sent.Add(1)
				status, worker, isLost, _ := getJSON(gateURL+path, nil)
				switch {
				case isLost:
					lost.Add(1)
				case status == http.StatusOK:
					okResp.Add(1)
				default:
					explicitErr.Add(1)
				}
				// The affinity contract under failure: a key pinned to a
				// surviving worker never moves, even while the victim is
				// dying. (Keys pinned to the victim may fail over.)
				if !isLost && status == http.StatusOK && wantWorker != "" && worker != wantWorker {
					affinityViolations.Add(1)
					drill.Failf("load: key pinned to survivor %s served by %s", wantWorker, worker)
				}
			}
		}(g)
	}
	go func() {
		time.Sleep(*loadFor / 4)
		killed.Store(true)
		log.Printf("SIGKILLing worker-1 (%s) mid-load", victimAddr)
		_ = victim.Cmd.Process.Kill()
	}()
	wg.Wait()
	if !killed.Load() {
		drill.Failf("load phase ended before the kill fired — raise -load")
	}
	log.Printf("load done: sent=%d ok=%d explicit-errors=%d lost=%d",
		sent.Load(), okResp.Load(), explicitErr.Load(), lost.Load())
	if lost.Load() != 0 {
		drill.Failf("%d requests lost (no terminal response)", lost.Load())
	}
	if okResp.Load() == 0 {
		drill.Failf("no successful responses under load")
	}
	if e, s := explicitErr.Load(), sent.Load(); e*20 > s {
		drill.Failf("explicit errors %d exceed 5%% of %d sent", e, s)
	}

	// ---- Phase 5: the gate must have ejected the victim; keys pinned
	// to survivors stay put, the victim's keys remap stably onto
	// survivors, and nothing else reshuffles.
	ejected := false
	for i := 0; i < 50; i++ {
		var rows []workerRow
		if status, _, _, err := getJSON(gateURL+"/cluster/workers", &rows); status == http.StatusOK && err == nil {
			for _, r := range rows {
				if r.ID == victimAddr && r.State == "ejected" {
					ejected = true
				}
			}
		}
		if ejected {
			break
		}
		time.Sleep(100 * time.Millisecond)
	}
	if !ejected {
		drill.Failf("gate never ejected killed worker %s", victimAddr)
	}
	moved := 0
	newOwner := make(map[string]string, *keyCount)
	for i := 0; i < *keyCount; i++ {
		key := keyOf(i)
		status, worker, _, err := getJSON(gateURL+"/fib?n=12&wait=1&key="+key, nil)
		if status != http.StatusOK || err != nil {
			drill.Failf("post-kill keyed request %s: status %d err %v", key, status, err)
			continue
		}
		newOwner[key] = worker
		switch {
		case worker == victimAddr:
			drill.Failf("key %s still routed to killed worker", key)
		case owner[key] == victimAddr:
			moved++
		case worker != owner[key]:
			drill.Failf("bounded reshuffle violated: key %s on survivor %s moved to %s", key, owner[key], worker)
		}
	}
	// The victim's share is ~K/N (consistent hashing's bound); well
	// under half the keys for N=3 even with ring imbalance.
	if moved != perWorker[victimAddr] {
		drill.Failf("moved %d keys, expected exactly the victim's %d", moved, perWorker[victimAddr])
	}
	if 2*moved >= *keyCount {
		drill.Failf("reshuffle unbounded: %d/%d keys moved", moved, *keyCount)
	}
	log.Printf("bounded reshuffle: %d/%d keys remapped (victim owned %d)", moved, *keyCount, perWorker[victimAddr])
	for i := 0; i < *keyCount; i++ {
		key := keyOf(i)
		if _, worker, _, _ := getJSON(gateURL+"/fib?n=12&wait=1&key="+key, nil); worker != newOwner[key] {
			drill.Failf("post-kill affinity unstable: key %s moved %s -> %s", key, newOwner[key], worker)
		}
	}

	// ---- Phase 6: graceful drain — gate first, then surviving
	// workers; each must exit 0 after a clean flush.
	if code, err := gate.SignalAndWait(syscall.SIGTERM, 30*time.Second); err != nil || code != 0 {
		drill.Failf("gate drain: exit=%d err=%v", code, err)
	} else if !drill.LogContains("gate", "drained cleanly") {
		drill.Failf("gate log missing 'drained cleanly'")
	}
	for i, p := range workerProcs {
		if p == victim {
			continue
		}
		if code, err := p.SignalAndWait(syscall.SIGTERM, 30*time.Second); err != nil || code != 0 {
			drill.Failf("worker-%d drain: exit=%d err=%v", i, code, err)
		} else if !drill.LogContains(fmt.Sprintf("worker-%d", i), "drained cleanly") {
			drill.Failf("worker-%d log missing 'drained cleanly'", i)
		}
	}

	if n := drill.Failed(); n > 0 {
		log.Fatalf("cluster smoke FAILED: %d check(s) failed", n)
	}
	log.Printf("cluster smoke PASSED: %d workers, %d requests under load, 1 freeze + 1 kill, 0 lost, %d/%d keys reshuffled, clean drains",
		*nWorkers, sent.Load(), moved, *keyCount)
}
