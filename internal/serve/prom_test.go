package serve

import (
	"context"
	"strings"
	"testing"
	"time"

	"repro/internal/lathist"
	"repro/internal/prom"
)

// TestWritePromExposition drives a real server, renders the scrape
// page, and checks it against the line-format linter plus the values
// the counters must carry — the golden contract lwtserved's /metrics
// serves.
func TestWritePromExposition(t *testing.T) {
	s := MustNew(Options{Backend: "go", Threads: 2, Shards: 2})
	defer s.Close()
	const n = 10
	for i := 0; i < n; i++ {
		f, err := Do(s.Submitter(), context.Background(), func() (int, error) { return i, nil }, Req{})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Wait(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	agg, per := s.Snapshot()
	var b strings.Builder
	if _, err := WriteProm(&b, View{Aggregate: agg, Shards: per}); err != nil {
		t.Fatal(err)
	}
	page := b.String()

	if err := prom.Lint(strings.NewReader(page)); err != nil {
		t.Fatalf("exposition fails lint: %v\npage:\n%s", err, page)
	}

	// Families the scrape must carry.
	for _, fam := range []string{
		"lwt_serve_info", "lwt_serve_uptime_seconds",
		"lwt_serve_shards", "lwt_serve_scale_events_total",
		"lwt_serve_submitted_total", "lwt_serve_completed_total",
		"lwt_serve_steals_total", "lwt_serve_pump_parks_total",
		"lwt_serve_queue_depth", "lwt_serve_inflight", "lwt_serve_ioparked",
		"lwt_serve_latency_seconds", "lwt_sched_pushes_total", "lwt_sched_steals_total",
		"lwt_sched_parks_total",
		"lwt_serve_expired_total",
	} {
		if !strings.Contains(page, "# TYPE "+fam+" ") {
			t.Errorf("family %s missing from exposition", fam)
		}
	}

	// Completed across shards must sum to n.
	var completed float64
	for _, m := range per {
		v, ok := prom.Value(page, "lwt_serve_completed_total",
			map[string]string{"backend": "go", "shard": shardLabel(m.Shard)})
		if !ok {
			t.Fatalf("no completed_total sample for shard %d", m.Shard)
		}
		completed += v
	}
	if completed != n {
		t.Fatalf("completed across shards = %v, want %d", completed, n)
	}

	// Histogram +Inf bucket and _count must also account for every
	// completion, and _sum must be positive.
	var inf, cnt, sum float64
	for _, m := range per {
		labels := map[string]string{"shard": shardLabel(m.Shard)}
		if v, ok := prom.Value(page, "lwt_serve_latency_seconds_bucket",
			map[string]string{"shard": shardLabel(m.Shard), "le": "+Inf"}); ok {
			inf += v
		}
		if v, ok := prom.Value(page, "lwt_serve_latency_seconds_count", labels); ok {
			cnt += v
		}
		if v, ok := prom.Value(page, "lwt_serve_latency_seconds_sum", labels); ok {
			sum += v
		}
	}
	if inf != n || cnt != n {
		t.Fatalf("histogram +Inf=%v count=%v, want both %d", inf, cnt, n)
	}
	if sum <= 0 {
		t.Fatalf("latency sum = %v, want > 0", sum)
	}

	// The aggregate view agrees with the page.
	if agg.Completed != n {
		t.Fatalf("aggregate Completed = %d, want %d", agg.Completed, n)
	}
	if agg.Latency.Total() != n {
		t.Fatalf("aggregate latency count = %d, want %d", agg.Latency.Total(), n)
	}
	if agg.Sched.Pushes == 0 {
		t.Fatal("aggregate Sched.Pushes = 0, want > 0 after 10 requests")
	}
}

func shardLabel(i int) string {
	if i < 0 {
		return "-1"
	}
	return string(rune('0' + i))
}

// TestHistogramBuckets pins the fold onto lwt_serve_latency_seconds'
// power-of-two le bounds: a value equal to a bound lands in that bound's
// bucket (le is <=), one past it in the next, and a value beyond the
// last bound only in +Inf.
func TestHistogramBuckets(t *testing.T) {
	first := time.Duration(1) << latencyMinExp
	var h lathist.Hist
	h.Observe(time.Nanosecond)  // below every bound
	h.Observe(first)            // exactly the first bound
	h.Observe(first + 1)        // just past it
	h.Observe(10 * time.Second) // beyond the last bound
	cum := latencyBuckets(h.Snapshot())
	if n := latencyMaxExp - latencyMinExp + 2; len(cum) != n {
		t.Fatalf("%d cumulative buckets, want %d (one per power of two plus +Inf)", len(cum), n)
	}
	last := len(cum) - 1
	for i, want := range map[int]uint64{0: 2, 1: 3, last - 1: 3, last: 4} {
		if cum[i] != want {
			t.Errorf("bucket %d cumulative = %d, want %d", i, cum[i], want)
		}
	}
}
