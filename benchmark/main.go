// Benchmark measures the serving stack end to end and layer by layer:
// four closed-loop workloads over gate -> lwtserved -> serve -> backend
// -> aio, the same six end-to-end metrics on each, and per-layer
// metrics taken from outside the program. README.md in this directory
// is the glossary; BENCHMARK.json at the repository root is the
// contract (metric names, units, regression bounds).
//
// One run measures one workload:
//
//	go run -C benchmark repro/benchmark --workload gate-mix --seed 1 --seconds 24 --trace 0
//
// and prints, as the last line of standard output, one JSON object
// with the run's metrics. Without --workload it runs a whole set: each
// workload in turn, interleaved over -passes passes, then one traced
// run of each, every run a child process of this one.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

type metricDef struct{ name, unit string }

// endToEnd is what a user of the system sees, reported by an untraced
// run; the same six on every workload.
var endToEnd = []metricDef{
	{"throughput_rps", "1/s"},
	{"lat_p50_ms", "ms"},
	{"lat_p99_ms", "ms"},
	{"cpu_ms_per_req", "ms"},
	{"peak_rss_mb", "MB"},
	{"setup_s", "s"},
}

// perLayer is what single layers did, reported by a traced run. A
// layer the workload does not cross reports 0.
var perLayer = []metricDef{
	{"cluster.hop_p50_ms", "ms"},
	{"cluster.cpu_ms_per_req", "ms"},
	{"cluster.attempts_per_req", "count"},
	{"cluster.retried", "count"},
	{"cluster.failed", "count"},
	{"cluster.hedges", "count"},
	{"cluster.keyed_affinity_share", "share"},
	{"cluster.ring_lookup_ns", "ns"},
	{"cluster.pick_unkeyed_ns", "ns"},
	{"lwtserved.http_floor_p50_ms", "ms"},
	{"lwtserved.handler_p50_ms", "ms"},
	{"lwtserved.cpu_ms_per_req", "ms"},
	{"serve.resolve_p50_us", "us"},
	{"serve.admit_p50_us", "us"},
	{"serve.keyed_p50_us", "us"},
	{"serve.unkeyed_p50_us", "us"},
	{"serve.allocs_per_req", "count"},
	{"serve.bytes_per_req", "B"},
	{"serve.submitted", "count"},
	{"serve.completed", "count"},
	{"serve.saturated", "count"},
	{"serve.expired", "count"},
	{"serve.steals", "count"},
	{"serve.steal_share", "share"},
	{"serve.queue_depth_max", "count"},
	{"serve.ioparked_max", "count"},
	{"core.argobots.create_ns", "ns"},
	{"core.argobots.join_ns", "ns"},
	{"core.go.create_ns", "ns"},
	{"core.go.join_ns", "ns"},
	{"omp.for1000_us", "us"},
	{"sched.pushes_per_req", "count"},
	{"sched.pops_per_req", "count"},
	{"sched.contended_per_req", "count"},
	{"sched.empty_pops_per_s", "1/s"},
	{"sched.useful_pop_share", "share"},
	{"aio.wake_overshoot_p50_us", "us"},
	{"aio.wake_overshoot_p99_us", "us"},
	{"aio.parked_per_s", "1/s"},
	{"loadgen.open_p50_ms", "ms"},
	{"loadgen.open_p99_ms", "ms"},
	{"loadgen.late_p99_ms", "ms"},
	{"loadgen.cal_mops", "Mops/s"},
	{"loadgen.trace_overhead_share", "share"},
	{"loadgen.build_s", "s"},
}

// result is the last line of a run's standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() { os.Exit(realMain()) }

func realMain() int {
	var (
		name      = flag.String("workload", "", "run this one workload and print its result line (gate-mix, worker-tree, io-park, inproc-do); empty: run a whole set")
		seed      = flag.Int64("seed", 1, "workload seed: the same seed gives the same request sequence")
		seconds   = flag.Int("seconds", 24, "measured seconds per run, cut into six windows")
		trace     = flag.Int("trace", 0, "0: untraced run reporting the end-to-end metrics; 1: traced run reporting the per-layer metrics")
		passes    = flag.Int("passes", 2, "set mode: untraced runs per workload, interleaved A B C D A B C D")
		selfcheck = flag.Int("selfcheck", 0, "run this many sets back to back and fail if any end-to-end median moves by more than its bound")
		quick     = flag.Bool("quick", false, "set mode: 18 s runs (3 s windows), for smoke use")
		notrace   = flag.Bool("notrace", false, "set mode: skip the traced runs")
	)
	flag.Parse()
	if flag.NArg() > 0 || *seconds < numWindows || (*trace != 0 && *trace != 1) || *passes < 1 {
		fmt.Fprintln(os.Stderr, "benchmark: bad arguments")
		flag.Usage()
		return 2
	}
	root, err := findRoot()
	if err != nil {
		return fail(err)
	}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		// A signal must not leave a server behind: it would keep
		// spinning a core under every later run.
		<-sig
		abort()
		os.Exit(130)
	}()

	nproc := runtime.NumCPU()
	if *name == "" {
		if *quick {
			*seconds = 18
		}
		s := setRunner{root: root, seed: *seed, seconds: *seconds, passes: *passes, trace: !*notrace, workloads: workloads(nproc)}
		if err := s.main(*selfcheck); err != nil {
			return fail(err)
		}
		return 0
	}

	w, ok := findWorkload(workloads(nproc), *name)
	if !ok {
		return fail(fmt.Errorf("unknown workload %q", *name))
	}
	if stray := strayDaemons(); len(stray) > 0 {
		return fail(fmt.Errorf("refusing to measure beside live daemons (each spins a core): %s", strings.Join(stray, ", ")))
	}
	outDir := filepath.Join(root, "benchmark", "out")
	cfg := runConfig{w: w, nproc: nproc, seed: *seed, seconds: time.Duration(*seconds) * time.Second, trace: *trace == 1,
		binDir: filepath.Join(outDir, "bin"), outDir: outDir}
	if cfg.buildS, err = buildDaemons(root, cfg.binDir); err != nil {
		return fail(err)
	}
	if cfg.scratch, err = os.MkdirTemp(outDir, "run-"); err != nil {
		return fail(err)
	}
	defer os.RemoveAll(cfg.scratch)
	live.Lock()
	live.scratch = cfg.scratch
	live.Unlock()

	fmt.Printf("workload %s  seed %d  seconds %d  trace %d\n", w.name, *seed, *seconds, *trace)
	fmt.Printf("  why: %s\n", w.why)
	fmt.Printf("  nproc %d  GOMAXPROCS %d  %s  commit %s  build %.2fs\n", nproc, runtime.GOMAXPROCS(0), runtime.Version(), commitOf(root), cfg.buildS)
	fmt.Printf("  topology: %s\n", w.topology(nproc))
	fmt.Printf("  closed loop, %d callers: callers of a gate or of lwt.Do are services that hold a bounded connection pool and wait for each reply\n", nproc)

	var rep *report
	if w.workers == 0 {
		rep, err = runInproc(cfg)
	} else {
		rep, err = runHTTP(cfg)
	}
	if err != nil {
		return fail(err)
	}
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	res := result{Attempted: rep.attempted, Failed: rep.failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		v := rep.values[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			rep.problems = append(rep.problems, fmt.Sprintf("metric %s is %v", d.name, v))
			v = 0
		}
		fmt.Printf("  %-32s %14.4f %s\n", d.name, v, d.unit)
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	fmt.Printf("  attempted %d  correct %d  failed %d\n", rep.attempted, rep.attempted-rep.failed, rep.failed)
	for _, p := range rep.problems {
		fmt.Printf("  PROBLEM %s\n", p)
	}
	res.Correct = len(rep.problems) == 0 && rep.failed == 0
	line, err := json.Marshal(res)
	if err != nil {
		return fail(err)
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

func fail(err error) int {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	return 1
}

// findRoot returns the repository root: the nearest directory at or
// above the working directory that holds both the daemons' sources and
// this benchmark.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if isDir(filepath.Join(dir, "cmd", "lwtserved")) && isDir(filepath.Join(dir, "benchmark")) {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("no repository root (a directory holding cmd/lwtserved and benchmark/) at or above the working directory")
		}
		dir = parent
	}
}

func isDir(p string) bool {
	st, err := os.Stat(p)
	return err == nil && st.IsDir()
}

// buildDaemons builds lwtserved and lwtgate from the repository's
// sources into binDir and returns how long that took. It runs on every
// invocation; with nothing changed the go command leaves the binaries
// alone and returns in a fraction of a second.
func buildDaemons(root, binDir string) (float64, error) {
	if err := os.MkdirAll(binDir, 0o755); err != nil {
		return 0, err
	}
	t0 := time.Now()
	cmd := exec.Command("go", "build", "-o", binDir+string(filepath.Separator), "./cmd/lwtserved", "./cmd/lwtgate")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return 0, fmt.Errorf("go build: %w\n%s", err, out)
	}
	return time.Since(t0).Seconds(), nil
}

// commitOf names the commit being measured, when the tree is a git
// checkout.
func commitOf(root string) string {
	out, err := exec.Command("git", "-C", root, "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}
