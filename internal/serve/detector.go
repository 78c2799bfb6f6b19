package serve

import (
	"fmt"
	"time"

	"repro/internal/lathist"
)

// DefaultAnomalyInterval is the watchdog's sample period when
// Options.AnomalyInterval is unset.
const DefaultAnomalyInterval = time.Second

const (
	// minWindow: an interval with fewer completions yields no P99 sample
	// — ten requests cannot tell a tail from noise — so an idle server
	// produces no latency signal at all.
	minWindow = 10
	// spikeWarmup: intervals with a P99 needed to seed the baseline
	// before spike detection arms.
	spikeWarmup = 5
	// ewmaShift: baseline += (p99 - baseline) >> ewmaShift. Shift 3
	// (alpha 1/8) makes the baseline track minutes-scale drift while
	// staying far behind a seconds-scale spike.
	ewmaShift = 3
)

// The watchdog's thresholds are fixed — no randomness, no knobs — so a
// given metrics sequence always classifies the same way and the tests
// can drive a detector tick by tick. One spiking tick fires, so the
// dump still holds the spike; the floor keeps a quiet server whose P99
// wobbles between 40µs and 200µs from tripping. One full queue is
// backpressure working, three ticks of it an incident, and a 30-tick
// cooldown makes one incident one dump.
const (
	spikeFactor   = 4                     // a P99 above spikeFactor × its baseline spikes...
	spikeFloor    = 10 * time.Millisecond // ...when it also exceeds spikeFloor
	spikeRun      = 1                     // consecutive spiking ticks that complete a spike
	hotRun        = 3                     // consecutive ticks of saturation growth that complete a hot run
	cooldownTicks = 30                    // ticks held after any verdict
)

// verdict is what one tick completes.
type verdict int

const (
	hold  verdict = iota
	spike         // P99 over its baseline for spikeRun ticks
	hot           // saturation growth for hotRun ticks
)

// detector turns a watcher's Metrics samples into verdicts. Each tick it
// takes the P99 of the requests completed since the previous tick — the
// difference of two lifetime latency histograms, a window by time — and
// judges it against an EWMA of earlier ticks' P99s. Runs accumulate
// through the cooldown, so a condition spanning its end is judged on its
// full length, and the baseline absorbs every non-spiking tick, so a
// gradual regime change stops looking anomalous. Not safe for concurrent
// use; one watcher goroutine owns each detector.
type detector struct {
	last lathist.Counts // Metrics.Latency at the previous tick
	// p99 is the last tick's interval P99, 0 below minWindow completions.
	p99           time.Duration
	baseline      time.Duration
	warm          int // ticks absorbed into the baseline
	lastSaturated uint64
	spikeRun      int
	hotRun        int
	cooldown      int
}

// observe feeds one tick.
func (d *detector) observe(m Metrics) verdict {
	win := m.Latency.Sub(d.last)
	d.last = m.Latency
	d.p99 = 0
	if win.Total() >= minWindow {
		d.p99 = win.Quantile(0.99)
	}
	spiking := d.warm >= spikeWarmup && d.p99 > spikeFloor &&
		d.p99 > spikeFactor*d.baseline
	// Skip the spiking tick itself (it would drag the baseline toward the
	// anomaly); absorb everything else.
	if d.p99 > 0 && !spiking {
		d.warm++
		if d.baseline == 0 {
			d.baseline = d.p99
		} else {
			d.baseline += (d.p99 - d.baseline) >> ewmaShift
		}
	}
	satGrew := m.Saturated > d.lastSaturated
	d.lastSaturated = m.Saturated
	d.spikeRun = extend(d.spikeRun, spiking)
	d.hotRun = extend(d.hotRun, satGrew)

	if d.cooldown > 0 {
		d.cooldown--
		return hold
	}
	var v verdict
	switch {
	case d.spikeRun >= spikeRun:
		v, d.spikeRun = spike, 0
	case d.hotRun >= hotRun:
		v, d.hotRun = hot, 0
	default:
		return hold
	}
	d.cooldown = cooldownTicks
	return v
}

// extend lengthens a run of consecutive ticks on which ok held, or ends
// it.
func extend(run int, ok bool) int {
	if ok {
		return run + 1
	}
	return 0
}

// watchAnomalies is the watchdog goroutine: it samples the aggregate
// Metrics every AnomalyInterval, feeds the detector, and invokes
// Options.OnAnomaly on a P99 spike or sustained saturation. Started by
// New only when OnAnomaly is set; exits when the server shuts down.
func (s *Server) watchAnomalies() {
	iv := s.opts.AnomalyInterval
	if iv <= 0 {
		iv = DefaultAnomalyInterval
	}
	tick := time.NewTicker(iv)
	defer tick.Stop()
	var det detector
	for {
		select {
		case <-s.quit:
			return
		case <-tick.C:
			m := s.Metrics()
			switch det.observe(m) {
			case spike:
				s.opts.OnAnomaly(fmt.Sprintf("p99-spike: %v against baseline %v", det.p99, det.baseline), m)
			case hot:
				s.opts.OnAnomaly(fmt.Sprintf("sustained-saturation: rejections grew %d samples running (total %d)",
					hotRun, m.Saturated), m)
			}
		}
	}
}
