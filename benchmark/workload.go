package main

import (
	"fmt"
	"math/rand"
)

// Workload names are fixed: later issues cite them.
const (
	wlGateMix    = "gate-mix"
	wlWorkerTree = "worker-tree"
	wlIOPark     = "io-park"
	wlInprocDo   = "inproc-do"
)

// workload describes one traffic mix and the server topology it runs
// against. nproc is the number of CPUs the benchmark may use; every
// workload runs closed-loop with nproc callers, and the executors
// spinning across all its server processes total max(1, nproc-1), so
// one core's worth of CPU is left for the gate, the HTTP handlers and
// the generator and the numbers measure the program, not the kernel's
// scheduler dividing an oversubscribed box.
type workload struct {
	name string
	why  string

	// HTTP workloads (workers > 0).
	workers  int    // lwtserved processes
	threads  int    // -threads of each (always -shards 1)
	gate     bool   // callers go through lwtgate
	path     string // request path and query, without any key
	keys     int    // > 0: every second request carries key=k<i>, i drawn Zipf over this many keys
	expected float64

	// openRate is the fixed arrival rate of the traced run's open-loop
	// phase, in requests per second: a third of the closed-loop rate
	// recorded on the 2-CPU box this benchmark was defined on, frozen
	// here so that the schedule is an input and not an outcome.
	openRate float64
}

const (
	zipfS      = 1.1
	gateKeys   = 256
	ioFan      = 16 // parked sleeps per io-park request
	ioMS       = 5  // length of each, milliseconds
	inprocKeys = 64 // keys per producer
	inprocOuts = 16 // futures each producer keeps outstanding
)

func workloads(nproc int) []workload {
	spin := max(1, nproc-1)
	return []workload{
		{
			name: wlGateMix,
			why: "a ~40 us handler behind the gate: cluster (ring, p2c, breaker accounting, proxying) and the " +
				"lwtserved HTTP tier are nearly all of the latency; backends and aio do almost nothing",
			workers: min(spin, 2), threads: 1, gate: true,
			path: "/fib?n=10&wait=1", keys: gateKeys, expected: 55,
			openRate: 430,
		},
		{
			name: wlWorkerTree,
			why: "hundreds of ULT create/join/schedule operations per request: the backend runtime " +
				"(core/argobots/ult/sched/queue) is ~95 % of the time; no gate, HTTP is a few percent",
			workers: 1, threads: spin,
			path: "/fib?n=22&cutoff=10&backend=argobots&wait=1", expected: 17711,
			openRate: 165,
		},
		{
			name: wlIOPark,
			why: "sixteen reactor-parked 5 ms sleeps per request: time sits in aio park/wake and serve's parked " +
				"accounting while the executor idles; the same backend layer as worker-tree used the other way",
			workers: 1, threads: spin,
			path: fmt.Sprintf("/fibio?n=14&fan=%d&ms=%d&backend=argobots&wait=1", ioFan, ioMS), expected: 377,
			openRate: 100,
		},
		{
			name: wlInprocDo,
			why: "no sockets: lwt.Do futures straight into a two-shard server, so serve admission, queue, pump, " +
				"launch and finish are nearly all the cost and the HTTP tier's cost is a subtraction against gate-mix",
			// One synchronous Do->Wait per arrival: far below a third of
			// the pipelined closed-loop rate, which no arrival schedule a
			// sleeping generator can keep would reach.
			openRate: 20000,
		},
	}
}

// topology describes the servers the workload runs against.
func (w workload) topology(nproc int) string {
	if w.workers == 0 {
		return fmt.Sprintf("in process: lwt.NewServer{Backend: argobots, Shards: 2, Threads: 1, Steal: true}, %d producers x %d outstanding futures", nproc, inprocOuts)
	}
	s := fmt.Sprintf("%d x lwtserved -shards 1 -threads %d, GET %s", w.workers, w.threads, w.path)
	if w.keys > 0 {
		s += fmt.Sprintf(", every second request keyed, Zipf(s=%.1f) over %d keys", zipfS, w.keys)
	}
	if w.gate {
		s = "lwtgate -> " + s
	}
	return s
}

func findWorkload(ws []workload, name string) (workload, bool) {
	for _, w := range ws {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// keyStream is one caller's deterministic request sequence: whether
// request i carries a key, and which. Callers draw from independent
// streams derived from the run's seed, so the same seed replays the
// same inputs whatever the interleaving of callers.
type keyStream struct {
	zipf *rand.Zipf // nil: uniform over n
	rng  *rand.Rand
	n    int
	i    uint64
}

// newKeyStream returns caller's stream under seed over n keys, Zipf
// distributed when zipf is set and uniform otherwise.
func newKeyStream(seed int64, caller, n int, zipf bool) *keyStream {
	// Distinct, reproducible sub-seeds: the multiplier keeps callers
	// of neighbouring seeds from sharing a stream.
	rng := rand.New(rand.NewSource(seed*1_000_003 + int64(caller)))
	ks := &keyStream{rng: rng, n: n}
	if zipf {
		ks.zipf = rand.NewZipf(rng, zipfS, 1, uint64(n-1))
	}
	return ks
}

// next returns the key index of the next request, or -1 when it is
// unkeyed. Requests alternate unkeyed, keyed, so exactly half carry a
// key however long the run is.
func (ks *keyStream) next() int {
	i := ks.i
	ks.i++
	if i%2 == 0 {
		return -1
	}
	if ks.zipf != nil {
		return int(ks.zipf.Uint64())
	}
	return ks.rng.Intn(ks.n)
}

func keyName(i int) string { return fmt.Sprintf("k%d", i) }
