package cluster

import (
	"testing"
	"time"
)

// bfix builds a breaker with a tight, deterministic policy and a
// transition log.
func bfix(t *testing.T) (*breaker, *[][2]int32) {
	t.Helper()
	b := newBreaker(BreakerPolicy{Window: 8, MinSamples: 4, FailureRatio: 0.5, Cooldown: 50 * time.Millisecond})
	log := &[][2]int32{}
	b.onTransition = func(from, to int32) { *log = append(*log, [2]int32{from, to}) }
	return b, log
}

// TestBreakerOpensOnFailureRatio pins the closed→open edge: the breaker
// holds through MinSamples-1 failures and opens exactly when the ratio
// is met over enough samples.
func TestBreakerOpensOnFailureRatio(t *testing.T) {
	b, log := bfix(t)
	now := time.Now()
	for i := 0; i < 3; i++ {
		if admitted, _ := b.allow(now); !admitted {
			t.Fatalf("closed breaker refused attempt %d", i)
		}
		b.fail(now, false)
	}
	if got := b.State(); got != BreakerClosed {
		t.Fatalf("state after 3 failures (< MinSamples) = %s, want closed", breakerStateName(got))
	}
	b.allow(now)
	b.fail(now, false) // 4th sample: 4/4 failed >= 0.5
	if got := b.State(); got != BreakerOpen {
		t.Fatalf("state after 4/4 failures = %s, want open", breakerStateName(got))
	}
	if len(*log) != 1 || (*log)[0] != [2]int32{BreakerClosed, BreakerOpen} {
		t.Fatalf("transition log = %v, want one closed->open", *log)
	}
	if admitted, _ := b.allow(now); admitted {
		t.Fatal("open breaker admitted an attempt inside the cooldown")
	}
	if ra := b.retryAfter(now); ra <= 0 || ra > 50*time.Millisecond {
		t.Fatalf("retryAfter = %v, want in (0, cooldown]", ra)
	}
}

// TestBreakerSuccessesKeepItClosed pins that a mixed window below the
// ratio never opens: alternating ok/fail stays at 50%... so use a
// window kept just under the ratio.
func TestBreakerSuccessesKeepItClosed(t *testing.T) {
	b, _ := bfix(t)
	now := time.Now()
	// 3 failures in a window of 8 filled samples = 37.5% < 50%.
	for i := 0; i < 8; i++ {
		b.allow(now)
		if i < 3 {
			b.fail(now, false)
		} else {
			b.ok(now, false)
		}
	}
	if got := b.State(); got != BreakerClosed {
		t.Fatalf("state at 3/8 failures = %s, want closed", breakerStateName(got))
	}
}

// TestBreakerHalfOpenProbe pins the open→half-open→closed recovery
// path: after the cooldown exactly one attempt is admitted as the
// probe, concurrent attempts are refused while it is outstanding, and
// a successful probe closes the breaker with a clean window.
func TestBreakerHalfOpenProbe(t *testing.T) {
	b, log := bfix(t)
	now := time.Now()
	for i := 0; i < 4; i++ {
		b.allow(now)
		b.fail(now, false)
	}
	if b.State() != BreakerOpen {
		t.Fatal("setup: breaker not open")
	}
	later := now.Add(60 * time.Millisecond) // past the 50ms cooldown
	if !b.canRoute(later) {
		t.Fatal("canRoute = false after cooldown, want probe-eligible")
	}
	if admitted, probe := b.allow(later); !admitted || !probe {
		t.Fatal("post-cooldown attempt refused, want admitted as probe")
	}
	if b.State() != BreakerHalfOpen {
		t.Fatalf("state after probe admission = %s, want half-open", breakerStateName(b.State()))
	}
	if admitted, _ := b.allow(later); admitted {
		t.Fatal("second attempt admitted while probe outstanding")
	}
	b.ok(later, true)
	if b.State() != BreakerClosed {
		t.Fatalf("state after probe success = %s, want closed", breakerStateName(b.State()))
	}
	// The reset must forget pre-open failures: one new failure cannot
	// re-open.
	b.allow(later)
	b.fail(later, false)
	if b.State() != BreakerClosed {
		t.Fatal("breaker re-opened on first failure after reset — window not cleared")
	}
	want := [][2]int32{
		{BreakerClosed, BreakerOpen},
		{BreakerOpen, BreakerHalfOpen},
		{BreakerHalfOpen, BreakerClosed},
	}
	if len(*log) != len(want) {
		t.Fatalf("transition log = %v, want %v", *log, want)
	}
	for i := range want {
		if (*log)[i] != want[i] {
			t.Fatalf("transition %d = %v, want %v", i, (*log)[i], want[i])
		}
	}
}

// TestBreakerProbeFailureReopens pins half-open→open: a failed probe
// restarts the cooldown.
func TestBreakerProbeFailureReopens(t *testing.T) {
	b, _ := bfix(t)
	now := time.Now()
	for i := 0; i < 4; i++ {
		b.allow(now)
		b.fail(now, false)
	}
	later := now.Add(60 * time.Millisecond)
	if admitted, probe := b.allow(later); !admitted || !probe {
		t.Fatal("probe refused")
	}
	b.fail(later, true)
	if b.State() != BreakerOpen {
		t.Fatalf("state after probe failure = %s, want open", breakerStateName(b.State()))
	}
	// Cooldown restarted from the probe failure, not the original open.
	if admitted, _ := b.allow(later.Add(40 * time.Millisecond)); admitted {
		t.Fatal("attempt admitted before the restarted cooldown elapsed")
	}
	if admitted, _ := b.allow(later.Add(60 * time.Millisecond)); !admitted {
		t.Fatal("attempt refused after the restarted cooldown elapsed")
	}
}

// TestBreakerDropReleasesProbe pins that a cancelled probe (client
// vanished, hedge abort) neither closes nor re-opens — it releases the
// slot so the next attempt re-probes.
func TestBreakerDropReleasesProbe(t *testing.T) {
	b, _ := bfix(t)
	now := time.Now()
	for i := 0; i < 4; i++ {
		b.allow(now)
		b.fail(now, false)
	}
	later := now.Add(60 * time.Millisecond)
	if admitted, probe := b.allow(later); !admitted || !probe {
		t.Fatal("probe refused")
	}
	b.drop(true)
	if b.State() != BreakerHalfOpen {
		t.Fatalf("state after dropped probe = %s, want half-open", breakerStateName(b.State()))
	}
	if admitted, probe := b.allow(later); !admitted || !probe {
		t.Fatal("next attempt refused after the dropped probe released the slot")
	}
	b.ok(later, true)
	if b.State() != BreakerClosed {
		t.Fatal("re-probe success did not close the breaker")
	}
}

// TestBreakerDisabled pins the off switch and the nil receiver: both
// always admit and never change state.
func TestBreakerDisabled(t *testing.T) {
	b := newBreaker(BreakerPolicy{Disabled: true})
	now := time.Now()
	for i := 0; i < 100; i++ {
		if admitted, _ := b.allow(now); !admitted {
			t.Fatal("disabled breaker refused an attempt")
		}
		b.fail(now, false)
	}
	if b.State() != BreakerClosed {
		t.Fatal("disabled breaker left closed state")
	}
	var nb *breaker
	if admitted, _ := nb.allow(now); !admitted || !nb.canRoute(now) {
		t.Fatal("nil breaker refused an attempt")
	}
	nb.ok(now, false)
	nb.fail(now, false)
	nb.drop(false)
	if nb.State() != BreakerClosed || nb.retryAfter(now) != 0 {
		t.Fatal("nil breaker reported non-closed state")
	}
}

// TestBreakerMinSamplesClampedToWindow pins the defaults footgun: a
// window smaller than the (defaulted) MinSamples must clamp, not
// silently disable the breaker.
func TestBreakerMinSamplesClampedToWindow(t *testing.T) {
	b := newBreaker(BreakerPolicy{Window: 8}) // MinSamples defaults to 10 > 8
	if b.pol.MinSamples != 8 {
		t.Fatalf("MinSamples = %d, want clamped to window 8", b.pol.MinSamples)
	}
	now := time.Now()
	for i := 0; i < 8; i++ {
		b.allow(now)
		b.fail(now, false)
	}
	if b.State() != BreakerOpen {
		t.Fatal("breaker with window < default MinSamples never opened")
	}
}

// TestBreakerSlidingWindowEvicts pins the ring semantics: old failures
// age out as new outcomes arrive, so a burst of long-past failures
// cannot combine with fresh ones to open.
func TestBreakerSlidingWindowEvicts(t *testing.T) {
	b, _ := bfix(t)
	now := time.Now()
	// 3 failures, then 8 successes push them all out of the window-8.
	for i := 0; i < 3; i++ {
		b.allow(now)
		b.fail(now, false)
	}
	for i := 0; i < 8; i++ {
		b.allow(now)
		b.ok(now, false)
	}
	// 3 fresh failures: window now holds 3/8 = 37.5% < 50%. Without
	// eviction the stale 3 would make it 6 and trip.
	for i := 0; i < 3; i++ {
		b.allow(now)
		b.fail(now, false)
	}
	if got := b.State(); got != BreakerClosed {
		t.Fatalf("state = %s, want closed (stale failures must age out)", breakerStateName(got))
	}
}

// TestWorkerRoutableComposes pins Routable = Healthy ∧ breaker-admitting
// and that KeyedCandidates fails open: breaker-blocked workers rank
// after routable ones but before ejected ones, and nothing disappears.
func TestWorkerRoutableComposes(t *testing.T) {
	f := newGateFixture(t, 3, Options{})
	table := f.gw.Table()
	now := time.Now()
	all := table.Workers()
	for _, w := range all {
		if !w.Routable(now) {
			t.Fatalf("worker %s not routable at start", w.ID)
		}
	}
	// Trip worker 0's breaker by hand.
	w0 := all[0]
	for i := 0; i < w0.breaker.pol.MinSamples; i++ {
		w0.breaker.allow(now)
		w0.breaker.fail(now, false)
	}
	if w0.Routable(now) {
		t.Fatal("breaker-open worker still Routable")
	}
	if !w0.Healthy() {
		t.Fatal("breaker must not affect health ejection")
	}
	cands := table.KeyedCandidates("somekey")
	if len(cands) != len(all) {
		t.Fatalf("KeyedCandidates dropped workers: got %d, want %d", len(cands), len(all))
	}
	// w0 must be last among the healthy (fail open: still a candidate).
	for i, c := range cands[:len(cands)-1] {
		if c == w0 {
			t.Fatalf("breaker-open worker at position %d, want last", i)
		}
	}
	if cands[len(cands)-1] != w0 {
		t.Fatal("breaker-open worker not demoted to the tail")
	}
	// PickUnkeyed avoids it while alternatives exist.
	for i := 0; i < 20; i++ {
		if wk := table.PickUnkeyed(nil); wk == w0 {
			t.Fatal("PickUnkeyed chose a breaker-open worker with routable alternatives")
		}
	}
	// ...but falls back to it when everything else was tried.
	tried := map[*Worker]bool{all[1]: true, all[2]: true}
	if wk := table.PickUnkeyed(tried); wk != w0 {
		t.Fatalf("PickUnkeyed fallback = %v, want the breaker-open worker", wk)
	}
}
