package serve

import (
	"strings"
	"testing"
	"time"

	"repro/internal/lathist"
)

// feed drives a detector tick by tick the way the watchdog does: each
// tick adds one interval's completions to a lifetime histogram and hands
// the detector the cumulative sample.
type feed struct {
	d   detector
	lat lathist.Hist
	m   Metrics
}

// tick completes n requests at lat and feeds the sample.
func (f *feed) tick(lat time.Duration, n int) verdict {
	for i := 0; i < n; i++ {
		f.lat.Observe(lat)
	}
	f.m.Latency = f.lat.Snapshot()
	return f.d.observe(f.m)
}

// busy is a tick whose window holds a hundred requests at lat.
func (f *feed) busy(lat time.Duration) verdict { return f.tick(lat, 100) }

// empty is a tick in which nothing completed.
func (f *feed) empty() verdict { return f.tick(0, 0) }

// TestAnomalyP99Spike: a steady baseline, then a 20x spike. The detector
// stays quiet through warmup, completes a spike after spikeRun spiking
// ticks, and holds through the cooldown while the spike continues.
func TestAnomalyP99Spike(t *testing.T) {
	var f feed
	for i := 0; i < 10; i++ {
		if v := f.busy(5 * time.Millisecond); v != hold {
			t.Fatalf("verdict %d on steady baseline tick %d", v, i)
		}
	}
	for i := 1; i < spikeRun; i++ {
		if v := f.busy(100 * time.Millisecond); v != hold {
			t.Fatalf("verdict %d on spiking tick %d of %d", v, i, spikeRun)
		}
	}
	if v := f.busy(100 * time.Millisecond); v != spike {
		t.Fatalf("no spike after %d spiking ticks: verdict %d", spikeRun, v)
	}
	for i := 0; i < cooldownTicks; i++ {
		if v := f.busy(100 * time.Millisecond); v != hold {
			t.Fatalf("verdict %d during cooldown tick %d", v, i)
		}
	}
}

// TestAnomalyIdleFossilP99FiresOnce: a slow burst, then 10×(cooldown+1)
// empty windows — exactly one fire. An empty window carries no P99, so
// the idle server after the burst has no latency signal to re-fire on.
func TestAnomalyIdleFossilP99FiresOnce(t *testing.T) {
	var f feed
	fired := 0
	count := func(v verdict) {
		if v != hold {
			fired++
		}
	}
	for i := 0; i < 10; i++ {
		count(f.busy(5 * time.Millisecond))
	}
	for i := 0; i < spikeRun; i++ {
		count(f.busy(200 * time.Millisecond))
	}
	for i := 0; i < 10*(cooldownTicks+1); i++ {
		count(f.empty())
	}
	if fired != 1 {
		t.Fatalf("fired %d times across a burst and %d empty windows, want exactly 1", fired, 10*(cooldownTicks+1))
	}
}

// TestAnomalySpikeBelowFloorIgnored: a quiet server whose P99 wobbles
// in the microseconds never trips the watchdog, however large the ratio.
func TestAnomalySpikeBelowFloorIgnored(t *testing.T) {
	var f feed
	for i := 0; i < 10; i++ {
		f.busy(50 * time.Microsecond)
	}
	if v := f.busy(2 * time.Millisecond); v != hold {
		t.Fatalf("verdict %d below the absolute floor", v)
	}
}

// TestAnomalyBaselineAbsorbsDrift: latency that grows gradually is a
// regime change, not a spike — the EWMA must track it.
func TestAnomalyBaselineAbsorbsDrift(t *testing.T) {
	t.Run("anomaly", func(t *testing.T) {
		var f feed
		p99 := 5 * time.Millisecond
		for i := 0; i < 200; i++ {
			if v := f.busy(p99); v != hold {
				t.Fatalf("verdict %d on gradual drift at tick %d (p99=%v)", v, i, p99)
			}
			p99 += p99 / 50 // +2% per tick, ~50x over the run
		}
	})
}

// TestAnomalySustainedSaturation: the Saturated counter growing for
// hotRun consecutive ticks completes a hot run; an isolated burst does
// not.
func TestAnomalySustainedSaturation(t *testing.T) {
	t.Run("anomaly", func(t *testing.T) {
		var f feed
		f.m.Saturated = 10 // a one-tick burst, then flat
		for i := 0; i < 6; i++ {
			if v := f.empty(); v != hold {
				t.Fatalf("verdict %d after a one-tick burst", v)
			}
		}
		for i := 1; i <= hotRun; i++ {
			f.m.Saturated += 5
			want := hold
			if i == hotRun {
				want = hot
			}
			if v := f.empty(); v != want {
				t.Fatalf("growing tick %d: verdict %d, want %d", i, v, want)
			}
		}
	})
}

// TestAnomalyWatchdogFires wires a real server with an aggressive
// interval and drives saturation through the detector's run length,
// asserting the OnAnomaly callback lands.
func TestAnomalyWatchdogFires(t *testing.T) {
	hit := make(chan string, 1)
	s := MustNew(Options{
		Backend: "go", Threads: 1, Shards: 1,
		QueueDepth: 1, MaxInFlight: 1,
		AnomalyInterval: 2 * time.Millisecond,
		OnAnomaly: func(reason string, m Metrics) {
			select {
			case hit <- reason:
			default:
			}
		},
	})
	defer s.Close()

	// Hold the single execution slot so every non-blocking Do below
	// saturates, growing the Saturated counter continuously across
	// watchdog samples.
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
