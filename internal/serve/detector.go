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

// thresholds configure a detector. Both sets are fixed — no randomness,
// no knobs — so a given metrics sequence always classifies the same way
// and the tests can drive a detector tick by tick.
type thresholds struct {
	factor   int           // a P99 above factor × its baseline spikes...
	floor    time.Duration // ...when it also exceeds floor
	spikeRun int           // consecutive spiking ticks that complete a spike
	hotRun   int           // consecutive ticks of saturation growth or load that complete a hot run
	coldRun  int           // consecutive calm ticks that complete a cold run; 0 never does
	cooldown int           // ticks held after any verdict
}

var (
	// anomalyThresholds arm the watchdog. One spiking tick fires, so the
	// dump still holds the spike; the floor keeps a quiet server whose
	// P99 wobbles between 40µs and 200µs from tripping. One full queue is
	// backpressure working, three ticks of it an incident, and a 30-tick
	// cooldown makes one incident one dump.
	anomalyThresholds = thresholds{factor: 4, floor: 10 * time.Millisecond, spikeRun: 1, hotRun: 3, cooldown: 30}
	// scaleThresholds arm the autoscaler: a gentler factor, because
	// scaling should engage before the incident rather than report it;
	// three hot ticks grow the pool and eight calm ones shrink it (eager
	// up, reluctant down), with four ticks between decisions for the
	// signals to absorb the new shard count.
	scaleThresholds = thresholds{factor: 2, spikeRun: 3, hotRun: 3, coldRun: 8, cooldown: 4}
)

// verdict is what one tick completes.
type verdict int

const (
	hold  verdict = iota
	spike         // P99 over its baseline for spikeRun ticks
	hot           // saturation growth or load for hotRun ticks
	cold          // calm for coldRun ticks
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
	th   thresholds
	last lathist.Counts // Metrics.Latency at the previous tick
	// p99 is the last tick's interval P99, 0 below minWindow completions.
	p99           time.Duration
	baseline      time.Duration
	warm          int // ticks absorbed into the baseline
	lastSaturated uint64
	spikeRun      int
	hotRun        int
	coldRun       int
	cooldown      int
}

// observe feeds one tick. loaded and calm are the watcher's own load
// signals; a watcher without any passes false for both.
func (d *detector) observe(m Metrics, loaded, calm bool) verdict {
	win := m.Latency.Sub(d.last)
	d.last = m.Latency
	d.p99 = 0
	if win.Total() >= minWindow {
		d.p99 = win.Quantile(0.99)
	}
	spiking := d.warm >= spikeWarmup && d.p99 > d.th.floor &&
		d.p99 > time.Duration(d.th.factor)*d.baseline
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
	d.hotRun = extend(d.hotRun, satGrew || loaded)
	d.coldRun = extend(d.coldRun, calm && !satGrew && !spiking)

	if d.cooldown > 0 {
		d.cooldown--
		return hold
	}
	var v verdict
	switch {
	case d.spikeRun >= d.th.spikeRun:
		v, d.spikeRun = spike, 0
	case d.hotRun >= d.th.hotRun:
		v, d.hotRun = hot, 0
	case d.th.coldRun > 0 && d.coldRun >= d.th.coldRun:
		v, d.coldRun = cold, 0
	default:
		return hold
	}
	d.cooldown = d.th.cooldown
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
	det := detector{th: anomalyThresholds}
	for {
		select {
		case <-s.quit:
			return
		case <-tick.C:
			m := s.Metrics()
			switch det.observe(m, false, false) {
			case spike:
				s.opts.OnAnomaly(fmt.Sprintf("p99-spike: %v against baseline %v", det.p99, det.baseline), m)
			case hot:
				s.opts.OnAnomaly(fmt.Sprintf("sustained-saturation: rejections grew %d samples running (total %d)",
					anomalyThresholds.hotRun, m.Saturated), m)
			}
		}
	}
}
