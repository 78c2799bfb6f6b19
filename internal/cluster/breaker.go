package cluster

import (
	"sync"
	"time"
)

// Breaker states, exported for metrics (lwt_gate_breaker_state encodes
// them numerically: 0 closed, 1 half-open, 2 open).
const (
	// BreakerClosed routes normally while recording outcomes.
	BreakerClosed int32 = iota
	// BreakerHalfOpen admits exactly one probe request; its outcome
	// closes or re-opens the breaker.
	BreakerHalfOpen
	// BreakerOpen fails fast: no attempts reach the worker until the
	// cooldown elapses, when the next attempt becomes the half-open
	// probe.
	BreakerOpen
)

// breakerStateName names a breaker state for JSON metrics.
func breakerStateName(s int32) string {
	switch s {
	case BreakerHalfOpen:
		return "half-open"
	case BreakerOpen:
		return "open"
	default:
		return "closed"
	}
}

// BreakerPolicy configures the per-worker circuit breaker that
// composes with health ejection: ejection reacts to consecutive hard
// failures (dead process), the breaker to a failure *rate* over recent
// attempts (sick process — timeouts, hung connections — that still
// intermittently answers and so never trips a consecutive counter).
type BreakerPolicy struct {
	// Window is the sliding outcome window length, in attempts
	// (<= 0 means 20).
	Window int
	// MinSamples is the fewest outcomes in the window before the
	// failure ratio is considered (<= 0 means 10) — a single failed
	// first request must not open the breaker.
	MinSamples int
	// FailureRatio opens the breaker when failures/outcomes in the
	// window reaches it (<= 0 means 0.5).
	FailureRatio float64
	// Cooldown is how long an open breaker fails fast before admitting
	// the half-open probe (<= 0 means 2s).
	Cooldown time.Duration
	// Disabled turns the breaker off entirely (always closed).
	Disabled bool
}

func (p BreakerPolicy) withDefaults() BreakerPolicy {
	if p.Window <= 0 {
		p.Window = 20
	}
	if p.MinSamples <= 0 {
		p.MinSamples = 10
	}
	if p.MinSamples > p.Window {
		// A threshold the window can never fill would disable the
		// breaker silently.
		p.MinSamples = p.Window
	}
	if p.FailureRatio <= 0 {
		p.FailureRatio = 0.5
	}
	if p.Cooldown <= 0 {
		p.Cooldown = 2 * time.Second
	}
	return p
}

// breaker is one worker's circuit state machine:
//
//	closed --[failure ratio over window]--> open
//	open --[cooldown elapsed; next attempt is the probe]--> half-open
//	half-open --[probe succeeds]--> closed (window reset)
//	half-open --[probe fails]--> open (cooldown restarts)
//
// All transitions happen under mu on the attempt path; state is
// additionally mirrored in an atomic on the Worker for lock-free
// metric reads.
type breaker struct {
	pol BreakerPolicy

	mu       sync.Mutex
	state    int32
	outcomes []bool // ring of recent attempt outcomes, true = failure
	next     int
	filled   int
	fails    int
	openedAt time.Time
	probing  bool // half-open: a probe is in flight

	onTransition func(from, to int32) // called under mu; may be nil
}

func newBreaker(pol BreakerPolicy) *breaker {
	pol = pol.withDefaults()
	return &breaker{pol: pol, outcomes: make([]bool, pol.Window)}
}

// canRoute is the read-only routing filter: would an attempt be
// admitted right now? Used to order candidates without claiming the
// half-open probe slot.
func (b *breaker) canRoute(now time.Time) bool {
	if b == nil || b.pol.Disabled {
		return true
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerClosed:
		return true
	case BreakerOpen:
		return now.Sub(b.openedAt) >= b.pol.Cooldown
	default: // half-open
		return !b.probing
	}
}

// allow is the attempt-time gate. Closed admits; open admits only once
// the cooldown has elapsed — that admission IS the transition to
// half-open, and the caller becomes the probe; half-open admits no one
// while the probe is outstanding. It reports whether the attempt is
// admitted and whether it is the probe. Every admitted attempt must be
// settled with ok, fail or drop, handing probe back: only the probe's
// own outcome moves a half-open breaker, so an attempt admitted while
// closed that settles late — after the breaker opened and its cooldown
// passed — neither closes it, re-opens it, nor frees the probe slot.
func (b *breaker) allow(now time.Time) (admitted, probe bool) {
	if b == nil || b.pol.Disabled {
		return true, false
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerClosed:
		return true, false
	case BreakerOpen:
		if now.Sub(b.openedAt) < b.pol.Cooldown {
			return false, false
		}
		b.transition(BreakerHalfOpen)
		b.probing = true
		return true, true
	default: // half-open
		if b.probing {
			return false, false
		}
		b.probing = true
		return true, true
	}
}

// ok settles one admitted attempt that succeeded.
func (b *breaker) ok(now time.Time, probe bool) {
	if b == nil || b.pol.Disabled {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if probe {
		// The probe came back: the worker is serving again. Reset the
		// window so stale failures cannot immediately re-open.
		b.reset()
		b.transition(BreakerClosed)
		return
	}
	b.record(false)
}

// fail settles one admitted attempt that failed (transport error or
// attempt timeout — a worker 503 is backpressure, not breaker fodder).
func (b *breaker) fail(now time.Time, probe bool) {
	if b == nil || b.pol.Disabled {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if probe {
		// The probe failed: back to open, cooldown restarts.
		b.probing = false
		b.openedAt = now
		b.transition(BreakerOpen)
		return
	}
	b.record(true)
	if b.state == BreakerClosed && b.filled >= b.pol.MinSamples &&
		float64(b.fails) >= b.pol.FailureRatio*float64(b.filled) {
		b.openedAt = now
		b.transition(BreakerOpen)
	}
}

// drop settles an admitted attempt whose outcome says nothing about
// the worker — the client vanished mid-attempt, or a hedge race
// cancelled it. Nothing is recorded; a half-open probe slot is
// released so the next attempt re-probes.
func (b *breaker) drop(probe bool) {
	if b == nil || b.pol.Disabled || !probe {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.probing = false
}

// record pushes one outcome into the sliding window. Called under mu.
func (b *breaker) record(failed bool) {
	if b.filled == len(b.outcomes) {
		if b.outcomes[b.next] {
			b.fails--
		}
	} else {
		b.filled++
	}
	b.outcomes[b.next] = failed
	if failed {
		b.fails++
	}
	b.next = (b.next + 1) % len(b.outcomes)
}

// reset clears the window. Called under mu.
func (b *breaker) reset() {
	for i := range b.outcomes {
		b.outcomes[i] = false
	}
	b.next, b.filled, b.fails = 0, 0, 0
	b.probing = false
}

// transition flips the state and notifies. Called under mu.
func (b *breaker) transition(to int32) {
	from := b.state
	if from == to {
		return
	}
	b.state = to
	if b.onTransition != nil {
		b.onTransition(from, to)
	}
}

// State reads the current breaker state.
func (b *breaker) State() int32 {
	if b == nil || b.pol.Disabled {
		return BreakerClosed
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}

// retryAfter reports how long until an open breaker would admit the
// probe — the Retry-After hint for a fail-fast response. Zero when not
// open.
func (b *breaker) retryAfter(now time.Time) time.Duration {
	if b == nil || b.pol.Disabled {
		return 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state != BreakerOpen {
		return 0
	}
	if d := b.pol.Cooldown - now.Sub(b.openedAt); d > 0 {
		return d
	}
	return 0
}
