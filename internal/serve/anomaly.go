package serve

import (
	"fmt"
	"time"
)

// DefaultAnomalyInterval is the watchdog's sample period when
// Options.AnomalyInterval is unset.
const DefaultAnomalyInterval = time.Second

// Anomaly detector tuning. The detector is deliberately deterministic —
// fixed factors and run lengths, no randomness — so that a given metrics
// sequence always classifies the same way and the unit tests can drive
// it sample by sample.
const (
	// spikeFactor: P99 must exceed the EWMA baseline by this multiple.
	spikeFactor = 4
	// spikeFloor: and must also exceed this absolute floor, so a quiet
	// server whose P99 wobbles between 40µs and 200µs never trips.
	spikeFloor = 10 * time.Millisecond
	// spikeWarmup: samples with a nonzero P99 needed to seed the
	// baseline before spike detection arms.
	spikeWarmup = 5
	// ewmaShift: baseline += (p99 - baseline) >> ewmaShift. Shift 3
	// (alpha 1/8) makes the baseline track minutes-scale drift while
	// staying far behind a seconds-scale spike.
	ewmaShift = 3
	// satRunLength: consecutive samples in which the Saturated counter
	// grew before sustained saturation fires. One full queue is
	// backpressure working; three sample periods of it is an incident.
	satRunLength = 3
	// cooldownSamples: samples to stay quiet after firing, so one
	// incident produces one dump, not one per tick.
	cooldownSamples = 30
)

// anomalyDetector classifies a stream of Metrics samples into discrete
// anomaly events. Two triggers:
//
//   - P99 spike: the recent-window P99 exceeds spikeFactor times its
//     own EWMA baseline and the absolute spikeFloor, while the server
//     has work queued or in flight.
//   - Sustained saturation: ErrSaturated rejections grew in each of
//     satRunLength consecutive samples.
//
// After either fires the detector holds a cooldown before it can fire
// again, and the baseline keeps updating throughout so a regime change
// (permanently slower requests) stops looking anomalous once absorbed.
// Not safe for concurrent use; the watchdog goroutine owns it.
type anomalyDetector struct {
	baseline      time.Duration // EWMA of recent-window P99
	warm          int           // nonzero-P99 samples seen so far
	lastSaturated uint64
	satRun        int
	cooldown      int
}

// observe feeds one Metrics sample and reports whether it completes an
// anomaly, with a short machine-greppable reason.
func (d *anomalyDetector) observe(m Metrics) (reason string, fired bool) {
	p99 := m.Latency.P99

	// Saturation run-length accounting happens every sample, cooldown
	// or not, so a rejection burst that spans the cooldown boundary is
	// judged on its full length.
	growing := m.Saturated > d.lastSaturated
	d.lastSaturated = m.Saturated
	if growing {
		d.satRun++
	} else {
		d.satRun = 0
	}

	// A high P99 with no live work behind it is a fossil: the latency
	// window only refreshes on completions, so after a slow burst an
	// idle server keeps reporting the burst's P99. Judged as a spike it
	// would never be absorbed into the baseline (spiking samples skip the
	// update) and would re-fire after every cooldown for as long as the
	// server stays idle — the same guard as scaleDetector.observe.
	idle := m.QueueDepth == 0 && m.InFlight == 0
	spiking := !idle && d.warm >= spikeWarmup && d.baseline > 0 &&
		p99 > spikeFloor && p99 > spikeFactor*d.baseline

	// Baseline update: skip the sample that is itself a spike (it would
	// drag the baseline toward the anomaly), absorb everything else.
	if p99 > 0 && !spiking {
		d.warm++
		if d.baseline == 0 {
			d.baseline = p99
		} else {
			d.baseline += (p99 - d.baseline) >> ewmaShift
		}
	}

	if d.cooldown > 0 {
		d.cooldown--
		return "", false
	}
	switch {
	case spiking:
		d.cooldown = cooldownSamples
		return fmt.Sprintf("p99-spike: %v against baseline %v", p99, d.baseline), true
	case d.satRun >= satRunLength:
		d.cooldown = cooldownSamples
		d.satRun = 0
		return fmt.Sprintf("sustained-saturation: rejections grew %d samples running (total %d)",
			satRunLength, m.Saturated), true
	}
	return "", false
}

// watchAnomalies is the watchdog goroutine: it samples the aggregate
// Metrics every AnomalyInterval, feeds the detector, and invokes
// Options.OnAnomaly when an anomaly fires. Started by New only when
// OnAnomaly is set; exits when the server shuts down.
func (s *Server) watchAnomalies() {
	iv := s.opts.AnomalyInterval
	if iv <= 0 {
		iv = DefaultAnomalyInterval
	}
	tick := time.NewTicker(iv)
	defer tick.Stop()
	var det anomalyDetector
	for {
		select {
		case <-s.quit:
			return
		case <-tick.C:
			m := s.Metrics()
			if reason, ok := det.observe(m); ok {
				s.opts.OnAnomaly(reason, m)
			}
		}
	}
}
