package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/trace"
)

// WorkerHeader is set on every proxied response to the id of the
// worker that produced it — the observable a client (or the smoke
// harness) uses to verify keyed affinity.
const WorkerHeader = "X-LWT-Worker"

// DeadlineHeader carries a request's remaining end-to-end budget as
// integer milliseconds. Clients set it (or ?deadline_ms=) on the way
// into the gate; the gateway decrements it by time already spent before
// each forwarded attempt, so retries never let a worker see more budget
// than the client has left; workers turn it into a serving-layer
// deadline that sheds the request if it cannot launch in time.
const DeadlineHeader = "X-LWT-Deadline-Ms"

// DefaultRetries is the bounded retry budget: extra attempts after the
// first, spent only on idempotent requests whose failure is safe to
// replay (connection failures, or worker 503s on unkeyed requests).
const DefaultRetries = 2

// Options configures a Gateway.
type Options struct {
	// Table is the worker membership and routing state (required).
	Table *Table
	// Retries is the extra-attempt budget per request; 0 means
	// DefaultRetries, negative means no retries.
	Retries int
	// Client issues proxied requests; nil means a dedicated client
	// with keep-alive pooling sized for a worker fleet. Redirects are
	// never followed — the gateway relays the worker's response as-is.
	Client *http.Client
	// AttemptTimeout bounds each forwarded attempt. Each attempt's
	// effective ceiling is min(AttemptTimeout, remaining deadline
	// budget); 0 means only the deadline budget applies — a request
	// carrying neither hangs as long as the worker does.
	AttemptTimeout time.Duration
	// Hedge enables hedged second attempts: an idempotent unkeyed
	// request whose first attempt is still unanswered after the
	// P99-derived hedge delay fires one extra attempt on another
	// worker, first response wins. Off by default (hedges spend worker
	// capacity to cut tail latency).
	Hedge bool
	// Tracer records breaker state transitions (KindBreaker events);
	// nil means the process-global trace.Default().
	Tracer *trace.Recorder
}

// Gateway is the cluster front proxy: an http.Handler that forwards
// each request to a worker picked by key affinity (consistent hash)
// or load (p2c), with bounded retry and backpressure-aware estimates.
// Mount the gateway's own control endpoints (health, metrics) on a mux
// *before* the gateway itself — it proxies every path it is given.
type Gateway struct {
	table          *Table
	retries        int
	client         *http.Client
	attemptTimeout time.Duration
	hedge          bool
	ring           *trace.Ring

	draining atomic.Bool
	inflight atomic.Int64

	proxied     atomic.Uint64 // requests entering the proxy path
	retried     atomic.Uint64 // extra attempts spent
	reroute503  atomic.Uint64 // unkeyed re-routes after a worker 503
	failedConn  atomic.Uint64 // requests answered 502 (every candidate failed)
	rejectedGon atomic.Uint64 // requests answered 503 while draining
	hedges      atomic.Uint64 // hedged second attempts fired
	expired504  atomic.Uint64 // requests answered 504 (deadline budget exhausted)

	// lats is a ring of recent successful proxy latencies feeding the
	// P99-derived hedge delay.
	latmu   sync.Mutex
	lats    [256]time.Duration
	latNext int
	latFull bool
}

// New returns a gateway over the table.
func New(opts Options) *Gateway {
	if opts.Table == nil {
		panic("cluster: Options.Table is required")
	}
	retries := opts.Retries
	if retries == 0 {
		retries = DefaultRetries
	}
	if retries < 0 {
		retries = 0
	}
	client := opts.Client
	if client == nil {
		client = &http.Client{
			Transport: &http.Transport{
				MaxIdleConns:        512,
				MaxIdleConnsPerHost: 128,
				IdleConnTimeout:     90 * time.Second,
			},
			CheckRedirect: func(*http.Request, []*http.Request) error {
				return http.ErrUseLastResponse
			},
		}
	}
	rec := opts.Tracer
	if rec == nil {
		rec = trace.Default()
	}
	g := &Gateway{
		table: opts.Table, retries: retries, client: client,
		attemptTimeout: opts.AttemptTimeout, hedge: opts.Hedge,
		ring: rec.SharedRing("gate", 0),
	}
	// Breaker transitions are rare and load-bearing for post-incident
	// analysis: every one lands in the flight recorder (Unit = new
	// state: 0 closed, 1 half-open, 2 open).
	opts.Table.OnBreakerTransition(func(w *Worker, from, to int32) {
		g.ring.Instant(trace.KindBreaker, uint64(to))
	})
	return g
}

// Table returns the gateway's routing table.
func (g *Gateway) Table() *Table { return g.table }

// Draining reports whether StartDrain has been called.
func (g *Gateway) Draining() bool { return g.draining.Load() }

// StartDrain stops admission: subsequent requests are rejected with
// 503 (and /readyz built on Draining flips), while requests already
// being proxied run to completion — the same stop-admission/flush
// contract the in-process Server.Close drain keeps, applied at the
// process boundary. The HTTP server's Shutdown then waits out the
// in-flight connections.
func (g *Gateway) StartDrain() { g.draining.Store(true) }

// InFlight reports requests currently being proxied.
func (g *Gateway) InFlight() int64 { return g.inflight.Load() }

// requestDeadline extracts the client's end-to-end budget: the
// DeadlineHeader (already decremented by upstream hops) or the
// ?deadline_ms= query parameter, in integer milliseconds from now.
// Zero time means none.
func requestDeadline(r *http.Request) time.Time {
	v := r.Header.Get(DeadlineHeader)
	if v == "" {
		v = r.URL.Query().Get("deadline_ms")
	}
	if v == "" {
		return time.Time{}
	}
	ms, err := strconv.ParseInt(v, 10, 64)
	if err != nil || ms <= 0 {
		return time.Time{}
	}
	return time.Now().Add(time.Duration(ms) * time.Millisecond)
}

// ServeHTTP implements the proxy: candidate selection, per-attempt
// deadline budgeting, circuit-breaker gating, bounded retry, optional
// hedging, response relay.
func (g *Gateway) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if g.draining.Load() {
		g.rejectedGon.Add(1)
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusServiceUnavailable, "gate draining")
		return
	}
	g.inflight.Add(1)
	defer g.inflight.Add(-1)
	g.proxied.Add(1)

	key := r.URL.Query().Get("key")
	deadline := requestDeadline(r)
	// Replaying a request is safe only when the method is idempotent
	// and there is no body to re-send.
	retryable := (r.Method == http.MethodGet || r.Method == http.MethodHead) && r.ContentLength == 0

	attempts := 1 + g.retries
	var keyed []*Worker
	tried := make(map[*Worker]bool, attempts)
	if key != "" {
		keyed = g.table.KeyedCandidates(key)
		if len(keyed) < attempts {
			attempts = len(keyed)
		}
	}

	var lastErr error
	var breakerRA time.Duration // longest cooldown among breaker-skipped candidates
	breakerSkips := 0
	for attempt := 0; attempt < attempts; attempt++ {
		now := time.Now()
		if !deadline.IsZero() && !now.Before(deadline) {
			// The client's budget is gone: answering anything later
			// than this would arrive after the client stopped caring.
			// Retries never outlive the ceiling.
			g.expired504.Add(1)
			writeError(w, http.StatusGatewayTimeout, "deadline budget exhausted at the gate")
			return
		}
		var wk *Worker
		if key != "" {
			wk = keyed[attempt]
		} else {
			wk = g.table.PickUnkeyed(tried)
		}
		if wk == nil {
			break
		}
		tried[wk] = true
		if !wk.breaker.allow(now) {
			// The breaker is resting this worker: fail fast past it —
			// the attempt slot moves to the next candidate without
			// waiting out a timeout against a known-sick process.
			breakerSkips++
			if ra := wk.breaker.retryAfter(now); ra > breakerRA {
				breakerRA = ra
			}
			continue
		}
		if attempt > 0 {
			g.retried.Add(1)
		}
		wk.requests.Add(1)

		resp, rwk, finish, err := g.attempt(wk, r, deadline, retryable, tried)
		wk = rwk
		if err != nil {
			finish()
			lastErr = err
			if !retryable {
				writeError(w, http.StatusBadGateway, fmt.Sprintf("worker %s: %v", wk.ID, err))
				return
			}
			continue
		}
		if resp.StatusCode == http.StatusServiceUnavailable {
			// Worker backpressure: feed the load estimate. Unkeyed
			// requests re-route to another worker (the cluster-level
			// mirror of the in-process re-route-once before
			// ErrSaturated); keyed requests relay the 503 — affinity is
			// never traded for an emptier worker. Either way the
			// worker's own Retry-After survives the relay: the worker
			// knows its drain state better than the gate does.
			wk.observe503()
			if key == "" && retryable && attempt+1 < attempts {
				g.reroute503.Add(1)
				drainBody(resp)
				finish()
				continue
			}
		}
		relay(w, resp, wk.ID)
		finish()
		return
	}
	if lastErr != nil {
		g.failedConn.Add(1)
		writeError(w, http.StatusBadGateway, fmt.Sprintf("no worker reachable: %v", lastErr))
		return
	}
	if breakerSkips > 0 {
		// Every candidate was breaker-open: fail fast with the honest
		// wait — the longest remaining cooldown — instead of a
		// hardcoded hint.
		g.failedConn.Add(1)
		secs := int(breakerRA/time.Second) + 1
		w.Header().Set("Retry-After", strconv.Itoa(secs))
		writeError(w, http.StatusServiceUnavailable, "all candidates breaker-open")
		return
	}
	// No candidates at all (empty table) — explicit terminal error.
	g.failedConn.Add(1)
	w.Header().Set("Retry-After", "1")
	writeError(w, http.StatusServiceUnavailable, "no worker available")
}

// attempt runs one admitted attempt against wk — hedged with a second
// worker when enabled and safe — settling every launched attempt's
// breaker and health state. It returns the winning response, the
// worker that produced it, and a finish func the caller must invoke
// once done with the response (it releases the attempt's context).
func (g *Gateway) attempt(wk *Worker, r *http.Request, deadline time.Time, retryable bool, tried map[*Worker]bool) (*http.Response, *Worker, func(), error) {
	if g.hedge && retryable && r.URL.Query().Get("key") == "" {
		return g.hedgedAttempt(wk, r, deadline, tried)
	}
	ctx, cancel := g.attemptCtx(r, deadline)
	resp, err := g.forward(ctx, wk, r, deadline)
	g.settle(wk, ctx, err)
	return resp, wk, cancel, err
}

// attemptCtx derives one attempt's context: the request's own context
// bounded by min(AttemptTimeout, remaining deadline budget).
func (g *Gateway) attemptCtx(r *http.Request, deadline time.Time) (context.Context, context.CancelFunc) {
	var dl time.Time
	if g.attemptTimeout > 0 {
		dl = time.Now().Add(g.attemptTimeout)
	}
	if !deadline.IsZero() && (dl.IsZero() || deadline.Before(dl)) {
		dl = deadline
	}
	if dl.IsZero() {
		return context.WithCancel(r.Context())
	}
	return context.WithDeadline(r.Context(), dl)
}

// settle feeds one finished attempt into the worker's breaker and
// health state. A plain cancellation (the client vanished, or a hedge
// race aborted the loser) says nothing about the worker and is
// dropped; an attempt timeout or transport failure charges both the
// breaker window and the consecutive-failure health counter.
func (g *Gateway) settle(wk *Worker, ctx context.Context, err error) {
	now := time.Now()
	if err == nil {
		wk.breaker.ok(now)
		return
	}
	if ctx.Err() == context.Canceled {
		wk.breaker.drop()
		return
	}
	wk.conns.Add(1)
	g.table.NoteFailure(wk)
	wk.breaker.fail(now)
}

// hedgedAttempt fires the primary attempt and, if no response has
// arrived after the P99-derived hedge delay, one extra attempt on
// another breaker-admitting worker; the first useful response wins and
// the loser is cancelled. Only reached for idempotent, unkeyed,
// body-less requests.
func (g *Gateway) hedgedAttempt(primary *Worker, r *http.Request, deadline time.Time, tried map[*Worker]bool) (*http.Response, *Worker, func(), error) {
	type outcome struct {
		resp *http.Response
		err  error
		wk   *Worker
	}
	ch := make(chan outcome, 2)
	cancels := make(map[*Worker]context.CancelFunc, 2)
	launch := func(wk *Worker) {
		ctx, cancel := g.attemptCtx(r, deadline)
		cancels[wk] = cancel
		go func() {
			resp, err := g.forward(ctx, wk, r, deadline)
			g.settle(wk, ctx, err)
			ch <- outcome{resp, err, wk}
		}()
	}
	launch(primary)
	launched := 1
	timer := time.NewTimer(g.hedgeDelay())
	var first outcome
	select {
	case first = <-ch:
		timer.Stop()
	case <-timer.C:
		if second := g.table.PickUnkeyed(tried); second != nil && second.breaker.allow(time.Now()) {
			tried[second] = true
			second.requests.Add(1)
			g.hedges.Add(1)
			launched = 2
			launch(second)
		}
		first = <-ch
	}
	win := first
	if launched == 2 {
		lost := func(o outcome) bool {
			return o.err != nil || o.resp.StatusCode == http.StatusServiceUnavailable
		}
		if lost(win) {
			// First responder was useless; give the straggler its
			// chance before judging.
			other := <-ch
			if !lost(other) || (win.err != nil && other.err == nil) {
				if win.resp != nil {
					drainBody(win.resp)
				}
				cancels[win.wk]()
				win = other
			} else {
				if other.resp != nil {
					drainBody(other.resp)
				}
				cancels[other.wk]()
			}
		} else {
			// Winner in hand: abort the straggler now and reap it in
			// the background so its connection is reusable.
			for wk, cancel := range cancels {
				if wk != win.wk {
					cancel()
				}
			}
			go func() {
				o := <-ch
				if o.resp != nil {
					drainBody(o.resp)
				}
			}()
		}
	}
	return win.resp, win.wk, cancels[win.wk], win.err
}

// hedgeDelay derives the hedge trigger from the recent latency
// distribution: P99, clamped to [1ms, 1s] — an attempt slower than
// that is in the tail the hedge exists to cut. With no samples yet the
// delay is a conservative 25ms.
func (g *Gateway) hedgeDelay() time.Duration {
	g.latmu.Lock()
	n := g.latNext
	if g.latFull {
		n = len(g.lats)
	}
	window := make([]time.Duration, n)
	copy(window, g.lats[:n])
	g.latmu.Unlock()
	if len(window) == 0 {
		return 25 * time.Millisecond
	}
	sort.Slice(window, func(i, j int) bool { return window[i] < window[j] })
	p99 := window[len(window)*99/100]
	if p99 < time.Millisecond {
		return time.Millisecond
	}
	if p99 > time.Second {
		return time.Second
	}
	return p99
}

// observeLatency feeds one successful proxy latency into the hedge
// window.
func (g *Gateway) observeLatency(d time.Duration) {
	g.latmu.Lock()
	g.lats[g.latNext] = d
	g.latNext++
	if g.latNext == len(g.lats) {
		g.latNext = 0
		g.latFull = true
	}
	g.latmu.Unlock()
}

// forward sends one attempt to wk under ctx, tracking in-flight and
// latency, and stamps the remaining deadline budget onto the forwarded
// request so the worker (and any retry after this one) never sees more
// time than the client has left.
func (g *Gateway) forward(ctx context.Context, wk *Worker, r *http.Request, deadline time.Time) (*http.Response, error) {
	u := *wk.URL
	u.Path = r.URL.Path
	u.RawPath = r.URL.RawPath
	u.RawQuery = r.URL.RawQuery
	var body io.Reader
	if r.ContentLength != 0 {
		body = r.Body
	}
	req, err := http.NewRequestWithContext(ctx, r.Method, u.String(), body)
	if err != nil {
		return nil, err
	}
	copyHeaders(req.Header, r.Header)
	if !deadline.IsZero() {
		ms := time.Until(deadline).Milliseconds()
		if ms < 1 {
			ms = 1
		}
		req.Header.Set(DeadlineHeader, strconv.FormatInt(ms, 10))
	}
	if host, _, err := net.SplitHostPort(r.RemoteAddr); err == nil {
		req.Header.Set("X-Forwarded-For", host)
	}
	wk.inflight.Add(1)
	t0 := time.Now()
	resp, err := g.client.Do(req)
	wk.inflight.Add(-1)
	if err != nil {
		return nil, err
	}
	// Latency feeds the estimate only for responses that did work;
	// 503s go through the penalty instead (a fast shed must not look
	// like a fast worker). Only hedgedAttempt reads the hedge window, so
	// without hedging no response takes its lock.
	if resp.StatusCode != http.StatusServiceUnavailable {
		lat := time.Since(t0)
		wk.observe(lat)
		if g.hedge {
			g.observeLatency(lat)
		}
	}
	return resp, nil
}

// relay copies the worker's response to the client, stamping the
// serving worker's id.
func relay(w http.ResponseWriter, resp *http.Response, workerID string) {
	defer resp.Body.Close()
	copyHeaders(w.Header(), resp.Header)
	w.Header().Set(WorkerHeader, workerID)
	w.WriteHeader(resp.StatusCode)
	_, _ = io.Copy(w, resp.Body)
}

// drainBody discards a response being retried so its connection is
// reusable.
func drainBody(resp *http.Response) {
	_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 64<<10))
	resp.Body.Close()
}

// hopHeaders are the RFC 9110 hop-by-hop headers a proxy must not
// relay.
var hopHeaders = []string{
	"Connection", "Proxy-Connection", "Keep-Alive", "Proxy-Authenticate",
	"Proxy-Authorization", "Te", "Trailer", "Transfer-Encoding", "Upgrade",
}

// copyHeaders copies everything but hop-by-hop headers into dst.
func copyHeaders(dst, src http.Header) {
	for k, vv := range src {
		for _, v := range vv {
			dst.Add(k, v)
		}
	}
	for _, h := range hopHeaders {
		dst.Del(h)
	}
}

// writeJSON renders v as indented JSON.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// writeError renders the gateway's own JSON error envelope (matching
// the workers' error shape, so clients parse one format).
func writeError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, map[string]string{"error": msg})
}
