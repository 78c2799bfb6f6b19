// Drill runs one end-to-end drill of the serving stack against real
// lwtserved and lwtgate processes and exits 0 only when every check
// passed. -scenario picks serve (serve.go: one lwtserved driven over
// HTTP), cluster (cluster.go: a gate over workers that freeze and die
// under load) or chaos (chaos.go: a gate in front of injected faults).
// Process logs and the serve drill's trace dumps land in -logdir. The
// serve drill's idle check reads /proc, so the drills run on Linux.
//
//	go build -o lwtgate ./cmd/lwtgate && go build -o lwtserved ./cmd/lwtserved
//	go run ./cmd/drill -scenario serve -worker ./lwtserved -gate ./lwtgate
package main

import (
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"strings"
	"time"

	"repro/internal/smoke"
)

var (
	scenario  = flag.String("scenario", "", "drill to run: serve, cluster or chaos")
	workerBin = flag.String("worker", "", "path to the lwtserved binary (required)")
	gateBin   = flag.String("gate", "", "path to the lwtgate binary (required by cluster and chaos)")
	logDir    = flag.String("logdir", "drill-logs", "directory for process logs and trace dumps")
)

// scenarios maps each -scenario value to its drill, which returns a
// one-line summary of what it exercised.
var scenarios = map[string]func(d *smoke.Drill) string{
	"serve":   serveDrill,
	"cluster": clusterDrill,
	"chaos":   chaosDrill,
}

// computeResult is the JSON reply of lwtserved's compute endpoints.
type computeResult struct {
	Value float64 `json:"value"`
}

// Process bounds: from launch until a daemon is up, and from SIGTERM
// until it has exited 0.
const (
	announceWithin   = 30 * time.Second // a cluster or chaos daemon prints "listening on <addr>"
	readyWithin      = 10 * time.Second // then the gate's /readyz answers 200
	drainWithin      = 30 * time.Second // a cluster or chaos process drains
	serveBootWithin  = 10 * time.Second // the serve drill's lwtserved answers /readyz
	serveDrainWithin = 20 * time.Second // the serve drill's lwtserved drains
)

// bootWorkers boots n lwtserved processes, worker-0 .. worker-<n-1>, on
// ephemeral ports with 2 shards of 1 executor and a 256-deep queue;
// their trace dumps land in the log directory.
func bootWorkers(d *smoke.Drill, n int) []*smoke.Proc {
	procs := make([]*smoke.Proc, n)
	for i := range procs {
		procs[i] = d.Boot(fmt.Sprintf("worker-%d", i), announceWithin, *workerBin,
			"-addr", "127.0.0.1:0", "-shards", "2", "-threads", "1",
			"-queue", "256", "-drain", "20s", "-trace-dir", d.LogDir)
	}
	return procs
}

// bootGate boots an lwtgate over the given worker addresses on an
// ephemeral port, with the health-check, retry and drain settings both
// gate drills share plus the scenario's own args, and waits until it
// is ready.
func bootGate(d *smoke.Drill, c *http.Client, workers []string, args ...string) *smoke.Proc {
	args = append([]string{"-addr", "127.0.0.1:0", "-workers", strings.Join(workers, ","),
		"-check-interval", "200ms", "-check-timeout", "1s", "-ready-after", "2",
		"-retries", "2", "-drain", "20s"}, args...)
	gate := d.Boot("gate", announceWithin, *gateBin, args...)
	d.WaitReady(c, "http://"+gate.Addr, readyWithin)
	return gate
}

// backendCheck is one request every backend must answer with 200 and
// a value, and the worker that served it, that holds accepts.
type backendCheck struct {
	path  string // %[1]s stands for the backend name
	want  string // what holds accepts, for the failure message
	holds func(v float64, worker string) bool
}

// checkBackends lists the registered backends and runs every check on
// each of them.
func checkBackends(d *smoke.Drill, get func(string, any) smoke.Reply, checks []backendCheck) []string {
	var backends []string
	if r := get("/backends", &backends); r.Status != http.StatusOK || r.Err != nil || len(backends) == 0 {
		d.Fatalf("listing backends: status %d err %v", r.Status, r.Err)
	}
	log.Printf("driving backends: %v", backends)
	for _, b := range backends {
		for _, c := range checks {
			path := fmt.Sprintf(c.path, b)
			var v computeResult
			if r := get(path, &v); r.Status != http.StatusOK || r.Err != nil || !c.holds(v.Value, r.Worker) {
				d.Failf("%s: status %d value %v worker %q err %v; want 200 and %s", path, r.Status, v.Value, r.Worker, r.Err, c.want)
			}
		}
	}
	return backends
}

func main() {
	flag.Parse()
	log.SetFlags(log.Ltime | log.Lmicroseconds)
	run, ok := scenarios[*scenario]
	if !ok {
		log.Fatalf("drill: -scenario must be serve, cluster or chaos, not %q", *scenario)
	}
	if *workerBin == "" || (*scenario != "serve" && *gateBin == "") {
		log.Fatal("drill: -worker is required, and -gate for cluster and chaos")
	}
	if err := os.MkdirAll(*logDir, 0o755); err != nil {
		log.Fatal(err)
	}
	d := &smoke.Drill{LogDir: *logDir}
	summary := run(d)
	if n := d.Failed(); n > 0 {
		log.Fatalf("%s drill FAILED: %d check(s) failed", *scenario, n)
	}
	log.Printf("%s drill PASSED: %s", *scenario, summary)
}
