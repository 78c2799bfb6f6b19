package cluster

import (
	"testing"
	"time"
)

// breakerModel is the breaker's documented contract as a sequential
// reference: closed admits and opens exactly when the window's failure
// ratio is met over at least MinSamples outcomes; open admits nothing
// until Cooldown has passed and then admits the one half-open probe;
// half-open admits no second probe until the first is settled or
// dropped; and only the probe's own outcome closes or re-opens it.
type breakerModel struct {
	pol      BreakerPolicy
	state    int32
	window   []bool // outcomes, oldest first, at most pol.Window
	openedAt time.Time
	probing  bool
}

func (m *breakerModel) allow(now time.Time) (admitted, probe bool) {
	switch m.state {
	case BreakerClosed:
		return true, false
	case BreakerOpen:
		if now.Sub(m.openedAt) < m.pol.Cooldown {
			return false, false
		}
		m.state, m.probing = BreakerHalfOpen, true
		return true, true
	default:
		if m.probing {
			return false, false
		}
		m.probing = true
		return true, true
	}
}

// settle applies one admitted attempt's outcome: ok, failed, or neither
// (dropped).
func (m *breakerModel) settle(now time.Time, probe, dropped, failed bool) {
	if probe {
		m.probing = false
		switch {
		case dropped:
		case failed:
			m.state, m.openedAt = BreakerOpen, now
		default:
			m.state, m.window = BreakerClosed, nil
		}
		return
	}
	if dropped {
		return
	}
	m.window = append(m.window, failed)
	if len(m.window) > m.pol.Window {
		m.window = m.window[1:]
	}
	fails := 0
	for _, f := range m.window {
		if f {
			fails++
		}
	}
	if failed && m.state == BreakerClosed && len(m.window) >= m.pol.MinSamples &&
		float64(fails) >= m.pol.FailureRatio*float64(len(m.window)) {
		m.state, m.openedAt = BreakerOpen, now
	}
}

// FuzzBreaker decodes bytes into allow / ok / fail / drop / advance-clock
// operations and checks the breaker against breakerModel after each
// one. The first three bytes pick the policy; every settle names one of
// the attempts still outstanding, so a late outcome from an attempt
// admitted while closed can land while the breaker is half-open.
func FuzzBreaker(f *testing.F) {
	f.Add([]byte{3, 1, 1, 0, 2, 0, 2, 0, 2, 4, 0, 1})
	f.Add([]byte{7, 3, 2, 0, 0, 0, 2, 2, 2, 9, 0, 3, 0, 1})
	f.Add([]byte{1, 0, 0, 0, 2, 0xf9, 0, 0, 3, 0, 1})
	// Window 1: two attempts admitted while closed, one fails and opens
	// the breaker, the cooldown passes, the probe is admitted, and then
	// the other closed-era attempt succeeds: the breaker must stay
	// half-open until the probe itself settles.
	f.Add([]byte("000229Y2y0"))
	const cooldown = 160 * time.Millisecond
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) < 3 {
			return
		}
		w := 1 + int(ops[0]%8)
		pol := BreakerPolicy{
			Window:       w,
			MinSamples:   1 + int(ops[1])%w,
			FailureRatio: float64(1+ops[2]%4) / 4,
			Cooldown:     cooldown,
		}
		ops = ops[3:]
		if len(ops) > 256 {
			ops = ops[:256]
		}
		b := newBreaker(pol)
		edges := map[[2]int32]bool{
			{BreakerClosed, BreakerOpen}:     true,
			{BreakerOpen, BreakerHalfOpen}:   true,
			{BreakerHalfOpen, BreakerClosed}: true,
			{BreakerHalfOpen, BreakerOpen}:   true,
		}
		b.onTransition = func(from, to int32) {
			if !edges[[2]int32{from, to}] {
				t.Fatalf("transition %s -> %s is not a documented edge",
					breakerStateName(from), breakerStateName(to))
			}
		}
		m := &breakerModel{pol: pol}
		now := time.Unix(0, 0)
		var outstanding []bool // admitted, unsettled attempts: is each the probe?
		for i, op := range ops {
			kind, arg := op%5, int(op/5)
			switch kind {
			case 0:
				got, gotProbe := b.allow(now)
				want, probe := m.allow(now)
				if got != want || gotProbe != probe {
					t.Fatalf("op %d: allow = %v, probe %v in model state %s, want %v, probe %v",
						i, got, gotProbe, breakerStateName(m.state), want, probe)
				}
				if got {
					outstanding = append(outstanding, probe)
				}
			case 1, 2, 3:
				if len(outstanding) == 0 {
					continue
				}
				j := arg % len(outstanding)
				probe := outstanding[j]
				outstanding = append(outstanding[:j], outstanding[j+1:]...)
				switch kind {
				case 1:
					b.ok(now, probe)
				case 2:
					b.fail(now, probe)
				default:
					b.drop(probe)
				}
				m.settle(now, probe, kind == 3, kind == 2)
			case 4:
				now = now.Add(time.Duration(arg) * cooldown / 16)
			}
			if got := b.State(); got != m.state {
				t.Fatalf("op %d (kind %d): state %s, model %s",
					i, kind, breakerStateName(got), breakerStateName(m.state))
			}
		}
	})
}
