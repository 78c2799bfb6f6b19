package serve

import (
	"strings"
	"testing"
	"time"

	"repro/internal/microbench"
)

// p99Sample is a sample from a server with live work: one request in
// flight, so the P99 is current rather than a fossil.
func p99Sample(p99 time.Duration) Metrics {
	return Metrics{InFlight: 1, Latency: microbench.Stats{P99: p99}}
}

// TestAnomalyP99Spike: a stable baseline, then a 20x spike — the
// detector must stay quiet through warmup and fire exactly once.
func TestAnomalyP99Spike(t *testing.T) {
	var d anomalyDetector
	for i := 0; i < 10; i++ {
		if reason, fired := d.observe(p99Sample(5 * time.Millisecond)); fired {
			t.Fatalf("fired on steady baseline sample %d: %s", i, reason)
		}
	}
	reason, fired := d.observe(p99Sample(100 * time.Millisecond))
	if !fired || !strings.HasPrefix(reason, "p99-spike") {
		t.Fatalf("spike not detected: fired=%v reason=%q", fired, reason)
	}
	// Cooldown: the continuing spike must not re-fire immediately.
	for i := 0; i < cooldownSamples; i++ {
		if reason, fired := d.observe(p99Sample(100 * time.Millisecond)); fired {
			t.Fatalf("re-fired during cooldown sample %d: %s", i, reason)
		}
	}
}

// TestAnomalyIdleFossilP99FiresOnce: a slow burst fires once; the idle
// server that follows keeps reporting the burst's P99 (the window only
// refreshes on completions), and that fossil must be absorbed, not
// re-fired after every cooldown.
func TestAnomalyIdleFossilP99FiresOnce(t *testing.T) {
	var d anomalyDetector
	fired := 0
	feed := func(m Metrics) {
		if _, ok := d.observe(m); ok {
			fired++
		}
	}
	for i := 0; i < 10; i++ {
		feed(p99Sample(5 * time.Millisecond))
	}
	feed(p99Sample(200 * time.Millisecond)) // the burst, with work in flight
	fossil := Metrics{Latency: microbench.Stats{P99: 200 * time.Millisecond}}
	for i := 0; i < 10*(cooldownSamples+1); i++ {
		feed(fossil)
	}
	if fired != 1 {
		t.Fatalf("fired %d times across a burst and an idle fossil P99, want exactly 1", fired)
	}
}

// TestAnomalySpikeBelowFloorIgnored: a quiet server whose P99 wobbles
// in the microseconds never trips, however large the ratio.
func TestAnomalySpikeBelowFloorIgnored(t *testing.T) {
	var d anomalyDetector
	for i := 0; i < 10; i++ {
		d.observe(p99Sample(50 * time.Microsecond))
	}
	if reason, fired := d.observe(p99Sample(2 * time.Millisecond)); fired {
		t.Fatalf("fired below the absolute floor: %s", reason)
	}
}

// TestAnomalyBaselineAbsorbsDrift: latency that grows gradually is a
// regime change, not a spike — the EWMA must track it.
func TestAnomalyBaselineAbsorbsDrift(t *testing.T) {
	var d anomalyDetector
	p99 := 5 * time.Millisecond
	for i := 0; i < 200; i++ {
		if reason, fired := d.observe(p99Sample(p99)); fired {
			t.Fatalf("fired on gradual drift at sample %d (p99=%v): %s", i, p99, reason)
		}
		p99 += p99 / 50 // +2% per sample, ~50x over the run
	}
}

// TestAnomalySustainedSaturation: the Saturated counter growing for
// satRunLength consecutive samples fires; an isolated burst does not.
func TestAnomalySustainedSaturation(t *testing.T) {
	var d anomalyDetector
	// One-sample burst, then flat: no anomaly.
	d.observe(Metrics{Saturated: 10})
	for i := 0; i < 5; i++ {
		if reason, fired := d.observe(Metrics{Saturated: 10}); fired {
			t.Fatalf("fired on a one-sample burst: %s", reason)
		}
	}
	// Growth on every sample: fires once the run length is reached.
	sat := uint64(10)
	fired := false
	var reason string
	for i := 0; i < satRunLength+1 && !fired; i++ {
		sat += 5
		reason, fired = d.observe(Metrics{Saturated: sat})
	}
	if !fired || !strings.HasPrefix(reason, "sustained-saturation") {
		t.Fatalf("sustained saturation not detected: fired=%v reason=%q", fired, reason)
	}
}

// TestAnomalyWatchdogFires wires a real server with an aggressive
// interval and drives saturation through the detector's run length,
// asserting the OnAnomaly callback lands.
func TestAnomalyWatchdogFires(t *testing.T) {
	hit := make(chan string, 1)
	s := MustNew(Options{
		Backend: "go", Threads: 1, Shards: 1,
		QueueDepth: 1, MaxInFlight: 1, Batch: 1,
		AnomalyInterval: 2 * time.Millisecond,
		OnAnomaly: func(reason string, m Metrics) {
			select {
			case hit <- reason:
			default:
			}
		},
	})
	defer s.Close()

	// Hold the single execution slot so every TrySubmit below saturates,
	// growing the Saturated counter continuously across watchdog samples.
	release := make(chan struct{})
	started := make(chan struct{})
	_, err := Do(s.Submitter(), nil, func() (int, error) {
		close(started)
		<-release
		return 0, nil
	}, Req{NonBlocking: true})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	defer close(release)

	timeout := time.After(5 * time.Second)
	for {
		select {
		case reason := <-hit:
			if !strings.HasPrefix(reason, "sustained-saturation") {
				t.Fatalf("anomaly reason = %q, want sustained-saturation", reason)
			}
			return
		case <-timeout:
			t.Fatal("watchdog never fired under sustained saturation")
		default:
			// Keep the rejection counter growing; the first submission
			// or two may still fit the depth-1 queue, the rest saturate.
			_, _ = Do(s.Submitter(), nil, func() (int, error) { return 0, nil }, Req{NonBlocking: true})
			time.Sleep(200 * time.Microsecond)
		}
	}
}
