// Package chaos is the fault-injection layer behind the chaos and
// cluster drills (cmd/drill): a reverse proxy that sits between the gate
// and one worker and injects the failure modes the robustness tier
// must contain — added latency, connection resets, 503 bursts, and
// blackholes (accepted connections that never answer) — plus a
// SIGSTOP/SIGCONT driver for freezing a whole worker process, the
// failure active health checks alone cannot distinguish from slowness.
//
// Faults are switched at runtime (Proxy.Inject / Proxy.Clear) so a
// scenario can inject each mode mid-load and watch the gate's
// circuit breaker open, contain, and recover. The proxy is transparent
// when no fault is armed; Spare-listed paths (the health endpoint)
// bypass injection so a scenario can fail the data path while probes
// stay green — isolating breaker containment from health ejection.
package chaos

import (
	"fmt"
	"net"
	"net/http"
	"net/http/httputil"
	"net/url"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// Fault is an injectable failure mode.
type Fault int32

const (
	// None passes traffic through untouched.
	None Fault = iota
	// Latency delays each response by the configured duration before
	// forwarding (a slow-but-correct worker).
	Latency
	// Reset closes the client connection without an HTTP response (a
	// crashing or RST-happy worker).
	Reset
	// Burst503 answers 503 + Retry-After directly without forwarding
	// (a worker shedding under backpressure).
	Burst503
	// Blackhole accepts the request and never answers — the connection
	// hangs until the client gives up (a frozen worker; the proxy-level
	// twin of SIGSTOP).
	Blackhole
)

// String names the fault for logs.
func (f Fault) String() string {
	switch f {
	case None:
		return "none"
	case Latency:
		return "latency"
	case Reset:
		return "reset"
	case Burst503:
		return "burst503"
	case Blackhole:
		return "blackhole"
	default:
		return fmt.Sprintf("fault(%d)", int32(f))
	}
}

// Options configures a Proxy.
type Options struct {
	// Spare lists URL paths that always pass through unfaulted
	// (typically "/healthz", so active probes stay green while the data
	// path burns).
	Spare []string
}

// Proxy is a fault-injecting reverse proxy in front of one worker.
// Start it with NewProxy, point the gate at Addr(), and flip faults
// with Inject/Clear while load flows.
type Proxy struct {
	target *url.URL
	ln     net.Listener
	srv    *http.Server
	rp     *httputil.ReverseProxy
	spare  map[string]bool

	mu      sync.Mutex
	fault   Fault
	latency time.Duration

	injected  atomic.Uint64 // requests that hit an armed fault
	forwarded atomic.Uint64 // requests passed through to the worker
}

// NewProxy listens on an ephemeral localhost port and forwards to
// target ("host:port").
func NewProxy(target string, opts Options) (*Proxy, error) {
	u, err := url.Parse("http://" + target)
	if err != nil {
		return nil, fmt.Errorf("chaos: target %q: %w", target, err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	p := &Proxy{target: u, ln: ln, spare: map[string]bool{}}
	for _, path := range opts.Spare {
		p.spare[path] = true
	}
	p.rp = httputil.NewSingleHostReverseProxy(u)
	// The default error handler logs to stderr; a chaos run produces
	// these by design, so answer 502 quietly.
	p.rp.ErrorHandler = func(w http.ResponseWriter, r *http.Request, err error) {
		w.WriteHeader(http.StatusBadGateway)
	}
	p.srv = &http.Server{Handler: http.HandlerFunc(p.handle)}
	go func() { _ = p.srv.Serve(ln) }()
	return p, nil
}

// Addr is the proxy's listen address — what the gate should route to
// instead of the worker itself.
func (p *Proxy) Addr() string { return p.ln.Addr().String() }

// Inject arms fault f; latency configures the delay for Latency and is
// ignored otherwise. The fault stays armed until Clear or the next
// Inject.
func (p *Proxy) Inject(f Fault, latency time.Duration) {
	p.mu.Lock()
	p.fault, p.latency = f, latency
	p.mu.Unlock()
}

// Clear disarms any fault: traffic passes through again.
func (p *Proxy) Clear() { p.Inject(None, 0) }

// Injected counts requests that hit an armed fault; Forwarded counts
// requests relayed to the worker.
func (p *Proxy) Injected() uint64  { return p.injected.Load() }
func (p *Proxy) Forwarded() uint64 { return p.forwarded.Load() }

// Close stops the listener; in-flight blackholed requests unblock.
func (p *Proxy) Close() error { return p.srv.Close() }

func (p *Proxy) handle(w http.ResponseWriter, r *http.Request) {
	p.mu.Lock()
	fault, latency := p.fault, p.latency
	p.mu.Unlock()
	if fault == None || p.spare[r.URL.Path] {
		p.forwarded.Add(1)
		p.rp.ServeHTTP(w, r)
		return
	}
	p.injected.Add(1)
	switch fault {
	case Latency:
		select {
		case <-time.After(latency):
		case <-r.Context().Done():
			return
		}
		p.forwarded.Add(1)
		p.rp.ServeHTTP(w, r)
	case Reset:
		hj, ok := w.(http.Hijacker)
		if !ok {
			// Fall back to an abrupt empty 500; ResponseWriter always
			// hijacks on net/http servers, so this path is theoretical.
			w.WriteHeader(http.StatusInternalServerError)
			return
		}
		if conn, _, err := hj.Hijack(); err == nil {
			_ = conn.Close()
		}
	case Burst503:
		w.Header().Set("Retry-After", "2")
		http.Error(w, "chaos: injected backpressure", http.StatusServiceUnavailable)
	case Blackhole:
		// Hold the request open until the client (or an attempt
		// timeout upstream) abandons it. Never answer.
		<-r.Context().Done()
	}
}

// Pause freezes a process with SIGSTOP — the whole-process fault a
// proxy cannot model: the worker's sockets stay open and accepting at
// the kernel level while nothing in userspace runs.
func Pause(pid int) error { return syscall.Kill(pid, syscall.SIGSTOP) }

// Resume thaws a Paused process with SIGCONT.
func Resume(pid int) error { return syscall.Kill(pid, syscall.SIGCONT) }
