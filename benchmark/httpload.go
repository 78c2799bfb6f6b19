package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// workerHeader is the response header lwtgate stamps with the id
// (host:port) of the worker that served the request.
const workerHeader = "X-LWT-Worker"

// stack is one running server topology: the workers, the gate in front
// of them when the workload has one, and the address callers use.
type stack struct {
	workers []*daemon
	gate    *daemon
	setup   time.Duration // spawn -> listening -> /readyz 200 -> first correct reply
}

func (s *stack) entry() string {
	if s.gate != nil {
		return s.gate.addr
	}
	return s.workers[0].addr
}

func (s *stack) daemons() []*daemon {
	if s.gate != nil {
		return append([]*daemon{s.gate}, s.workers...)
	}
	return s.workers
}

func (s *stack) kill() {
	for _, d := range s.daemons() {
		d.kill()
	}
}

// startStack boots w's topology from the binaries in binDir on
// ephemeral ports and times it until the first correct reply, which is
// what a deployment waits for: the backend runtime boots lazily on
// that request. Trace dumps the daemons may write go to scratch.
func startStack(w workload, binDir, scratch string) (*stack, error) {
	t0 := time.Now()
	s := &stack{}
	for i := 0; i < w.workers; i++ {
		d, err := startDaemon(filepath.Join(binDir, "lwtserved"),
			"-addr", "127.0.0.1:0", "-shards", "1", "-threads", fmt.Sprint(w.threads), "-trace-dir", scratch)
		if err != nil {
			s.kill()
			return nil, err
		}
		s.workers = append(s.workers, d)
	}
	if w.gate {
		addrs := make([]string, len(s.workers))
		for i, d := range s.workers {
			addrs[i] = d.addr
		}
		d, err := startDaemon(filepath.Join(binDir, "lwtgate"), "-addr", "127.0.0.1:0", "-workers", strings.Join(addrs, ","))
		if err != nil {
			s.kill()
			return nil, err
		}
		s.gate = d
	}
	c := newCaller()
	defer c.close()
	for _, d := range s.daemons() {
		if err := waitReady(c, d.addr); err != nil {
			s.kill()
			return nil, fmt.Errorf("%s: %w\n%s", d.name, err, d.logText())
		}
	}
	if r := c.get("http://" + s.entry() + w.path); !r.ok(w.expected) {
		s.kill()
		return nil, fmt.Errorf("first request: value %v, want %v: %v", r.value, w.expected, r.err)
	}
	s.setup = time.Since(t0)
	return s, nil
}

func waitReady(c *caller, addr string) error {
	deadline := time.Now().Add(10 * time.Second)
	for {
		status, _, _, err := c.fetch("http://" + addr + "/readyz")
		if status == http.StatusOK {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("/readyz not 200 within 10s (status %d, %v)", status, err)
		}
		time.Sleep(time.Millisecond)
	}
}

// caller is one closed-loop client: a service that holds one
// connection to the tier below it and waits for each reply before it
// sends the next request.
type caller struct {
	client *http.Client
	buf    []byte
}

func newCaller() *caller {
	tr := &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1}
	return &caller{client: &http.Client{Transport: tr, Timeout: 30 * time.Second}, buf: make([]byte, 0, 4096)}
}

func (c *caller) close() { c.client.CloseIdleConnections() }

// reply is what one request came to. err is non-nil for anything other
// than a 200 whose body parsed; value and micros are the worker's
// result envelope fields.
type reply struct {
	worker string
	value  float64
	micros int64
	err    error
}

// fetch issues one GET and returns the status, the gate's worker stamp
// and the body, which is valid until the next call.
func (c *caller) fetch(url string) (status int, worker string, body []byte, err error) {
	resp, err := c.client.Get(url)
	if err != nil {
		return 0, "", nil, err
	}
	defer resp.Body.Close()
	n := 0
	c.buf = c.buf[:cap(c.buf)]
	for {
		m, err := resp.Body.Read(c.buf[n:])
		n += m
		if err == io.EOF {
			break
		}
		if err != nil {
			return 0, "", nil, err
		}
		if n == len(c.buf) {
			c.buf = append(c.buf, make([]byte, len(c.buf))...)
		}
	}
	return resp.StatusCode, resp.Header.Get(workerHeader), c.buf[:n], nil
}

// getJSON fetches url, requires a 200 and decodes the body into v.
func (c *caller) getJSON(url string, v any) error {
	status, _, body, err := c.fetch(url)
	if err == nil && status != http.StatusOK {
		err = fmt.Errorf("status %d: %s", status, strings.TrimSpace(string(body)))
	}
	if err == nil {
		err = json.Unmarshal(body, v)
	}
	if err != nil {
		return fmt.Errorf("GET %s: %w", url, err)
	}
	return nil
}

// get issues one request to a worker endpoint and parses the result
// envelope. A reply without a value field (the liveness endpoints)
// carries NaN.
func (c *caller) get(url string) reply {
	var env struct {
		Value  *float64 `json:"value"`
		Micros int64    `json:"micros"`
	}
	status, worker, body, err := c.fetch(url)
	r := reply{worker: worker, value: math.NaN()}
	if err == nil && status != http.StatusOK {
		err = fmt.Errorf("status %d: %s", status, strings.TrimSpace(string(body)))
	}
	if err == nil {
		err = json.Unmarshal(body, &env)
	}
	if err != nil {
		r.err = fmt.Errorf("GET %s: %w", url, err)
		return r
	}
	if env.Value != nil {
		r.value = *env.Value
	}
	r.micros = env.Micros
	return r
}

// anyValue as a workload's expected value accepts whatever a 200
// carries: the endpoint's value is a measurement, not a result.
const anyValue = -1

func (r reply) ok(expected float64) bool {
	return r.err == nil && (expected == anyValue || r.value == expected)
}

// loadResult is what one load phase produced. Every duration kept as a
// float64 is in nanoseconds.
type loadResult struct {
	phase     string
	samples   []sample // correct replies only
	attempted int
	failed    int       // wrong value, non-200, transport or submission error: never a latency sample
	firstErr  error     // the first failure, for the report
	late      []float64 // open loop: how long after its due time each request was sent

	// Traced phases only.
	spans      []span
	inner      []float64 // per correct reply, the time the layer below reported: the worker's micros; in process, the Do call itself
	keyedInner []float64 // the same split by keyed and unkeyed requests (in process: Do to Wait)
	plainInner []float64
	values     []float64 // reply values, for endpoints whose value is a measurement
	keyed      int       // keyed replies carrying a worker stamp
	keyedOwn   int       // those served by their key's first owner
}

func (r *loadResult) merge(o *loadResult) {
	r.samples = append(r.samples, o.samples...)
	r.attempted += o.attempted
	r.failed += o.failed
	if r.firstErr == nil {
		r.firstErr = o.firstErr
	}
	r.late = append(r.late, o.late...)
	r.spans = append(r.spans, o.spans...)
	r.inner = append(r.inner, o.inner...)
	r.keyedInner = append(r.keyedInner, o.keyedInner...)
	r.plainInner = append(r.plainInner, o.plainInner...)
	r.values = append(r.values, o.values...)
	r.keyed += o.keyed
	r.keyedOwn += o.keyedOwn
}

func (r *loadResult) fail(err error) {
	r.failed++
	if r.firstErr == nil {
		r.firstErr = err
	}
}

func (r *loadResult) latencies() []float64 {
	xs := make([]float64, len(r.samples))
	for i, s := range r.samples {
		xs[i] = float64(s.lat)
	}
	return xs
}

// schedule is an open loop's fixed arrival schedule, shared by the
// callers that serve it: each claims the next slot and times its
// request from when the slot was due, so a stall charges the requests
// queued behind it. A zero rate is a closed loop: every request is due
// the moment its caller is free.
type schedule struct {
	start time.Time
	rate  float64 // requests per second
	next  atomic.Int64
}

func (s *schedule) due(now time.Time) time.Time {
	if s.rate <= 0 {
		return now
	}
	k := s.next.Add(1) - 1
	return s.start.Add(time.Duration(float64(k) / s.rate * float64(time.Second)))
}

// httpLoad describes one load phase against HTTP targets.
type httpLoad struct {
	w       workload
	targets []string // caller i sends to targets[i % len]
	callers int
	seed    int64
	dur     time.Duration
	rate    float64                 // > 0: open loop at this many requests per second over the same callers
	tr      *tracer                 // non-nil: record spans and the traced-only fields
	phase   string                  // span label
	owner   func(key string) string // non-nil: first owner of a key, for the affinity share
}

// run drives the phase and returns when every caller has its last
// reply. Sample times are offsets from the start of the phase.
func (l httpLoad) run() *loadResult {
	start := time.Now()
	end := start.Add(l.dur)
	sched := schedule{start: start, rate: l.rate}
	results := make([]*loadResult, l.callers)
	var wg sync.WaitGroup
	for i := 0; i < l.callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c := newCaller()
			defer c.close()
			res := &loadResult{}
			results[i] = res
			base := "http://" + l.targets[i%len(l.targets)] + l.w.path
			var ks *keyStream
			var keys, keyed []string // key names and the URLs carrying them
			if l.w.keys > 0 {
				ks = newKeyStream(l.seed, i, l.w.keys, true)
				for k := 0; k < l.w.keys; k++ {
					keys = append(keys, keyName(k))
					keyed = append(keyed, base+"&key="+keyName(k))
				}
			}
			for {
				sent := time.Now()
				due := sched.due(sent)
				if !due.Before(end) {
					return
				}
				if d := time.Until(due); d > 0 {
					time.Sleep(d)
					sent = time.Now()
				}
				url, key := base, ""
				if ks != nil {
					if k := ks.next(); k >= 0 {
						url, key = keyed[k], keys[k]
					}
				}
				r := c.get(url)
				done := time.Now()
				res.attempted++
				if !r.ok(l.w.expected) {
					if r.err == nil {
						r.err = fmt.Errorf("GET %s: value %v, want %v", url, r.value, l.w.expected)
					}
					res.fail(r.err)
					continue
				}
				res.samples = append(res.samples, sample{done: done.Sub(start), lat: done.Sub(due)})
				if l.rate > 0 {
					res.late = append(res.late, float64(sent.Sub(due)))
				}
				if l.tr == nil {
					continue
				}
				inner := float64(r.micros) * us
				res.inner = append(res.inner, inner)
				res.values = append(res.values, r.value)
				if key == "" {
					res.plainInner = append(res.plainInner, inner)
				} else {
					res.keyedInner = append(res.keyedInner, inner)
					if l.owner != nil && r.worker != "" {
						res.keyed++
						if l.owner(key) == r.worker {
							res.keyedOwn++
						}
					}
				}
				// The request span runs from the due time (the send time
				// in a closed loop). The worker's handler time is
				// anchored at the reply, the one instant both clocks
				// share.
				id := l.tr.id()
				t0, t1 := l.tr.at(due), l.tr.at(done)
				res.spans = append(res.spans,
					span{Trace: id, ID: id, Name: "client.request", Phase: l.phase, Start: t0, End: t1, Worker: r.worker},
					span{Trace: id, ID: l.tr.id(), Parent: id, Name: "worker.handle", Phase: l.phase, Start: max(t0, t1-int64(inner)), End: t1})
			}
		}(i)
	}
	wg.Wait()
	total := &loadResult{phase: l.phase}
	for _, r := range results {
		total.merge(r)
	}
	return total
}
