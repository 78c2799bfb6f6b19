package serve

import (
	"io"
	"strconv"
	"time"

	"repro/internal/lathist"
	"repro/internal/prom"
)

// View pairs one server's aggregate and per-shard metrics snapshot for
// Prometheus export — the two values Server.Snapshot returns.
type View struct {
	Aggregate Metrics
	Shards    []Metrics
}

// WriteProm renders serving metrics as one Prometheus text exposition
// page: lifetime counters, instantaneous gauges, the end-to-end latency
// histogram, and the backend scheduler-pool counters, all labeled
// {backend, shard} so PromQL can sum or break down freely. It accepts
// several views (lwtserved runs one server per backend) and keeps each
// metric family's samples in a single contiguous block across all of
// them, as the exposition format requires. Counter samples are
// per-shard only — emitting aggregates alongside would double sum()
// queries.
func WriteProm(w io.Writer, views ...View) (int64, error) {
	pw := prom.NewWriter()
	pw.Family("lwt_serve_info", "Serving pool identity; value is always 1.", prom.Gauge)
	for _, v := range views {
		pw.Sample("lwt_serve_info", 1,
			"backend", v.Aggregate.Backend, "router", v.Aggregate.Router,
			"shards", strconv.Itoa(v.Aggregate.Shards))
	}
	pw.Family("lwt_serve_uptime_seconds", "Time since the server started.", prom.Gauge)
	for _, v := range views {
		pw.Sample("lwt_serve_uptime_seconds", v.Aggregate.Uptime.Seconds(),
			"backend", v.Aggregate.Backend)
	}
	pw.Family("lwt_serve_shards", "Shards currently in the routing set (autoscaling moves it).", prom.Gauge)
	for _, v := range views {
		pw.Sample("lwt_serve_shards", float64(v.Aggregate.Shards),
			"backend", v.Aggregate.Backend)
	}
	pw.Family("lwt_serve_scale_events_total", "Autoscaler routing-set changes, by direction.", prom.Counter)
	for _, v := range views {
		pw.Sample("lwt_serve_scale_events_total", float64(v.Aggregate.ScaleUps),
			"backend", v.Aggregate.Backend, "direction", "up")
		pw.Sample("lwt_serve_scale_events_total", float64(v.Aggregate.ScaleDowns),
			"backend", v.Aggregate.Backend, "direction", "down")
	}

	counters := []struct {
		name, help string
		get        func(Metrics) uint64
	}{
		{"lwt_serve_submitted_total", "Requests accepted into a shard queue.", func(m Metrics) uint64 { return m.Submitted }},
		{"lwt_serve_completed_total", "Request bodies finished, including failures and panics.", func(m Metrics) uint64 { return m.Completed }},
		{"lwt_serve_saturated_total", "Submissions fast-rejected with ErrSaturated.", func(m Metrics) uint64 { return m.Saturated }},
		{"lwt_serve_canceled_total", "Submissions that gave up while blocked on a full queue (never accepted).", func(m Metrics) uint64 { return m.Canceled }},
		{"lwt_serve_expired_total", "Accepted requests shed before launch: deadline passed or context cancelled while queued.", func(m Metrics) uint64 { return m.Expired }},
		{"lwt_serve_rejected_total", "Queued requests failed with ErrClosed at shutdown.", func(m Metrics) uint64 { return m.Rejected }},
		{"lwt_serve_failed_total", "Request bodies that returned an error.", func(m Metrics) uint64 { return m.Failed }},
		{"lwt_serve_panicked_total", "Request bodies whose panic was captured.", func(m Metrics) uint64 { return m.Panicked }},
		{"lwt_serve_steals_total", "Unkeyed queued requests this shard stole from another shard and ran.", func(m Metrics) uint64 { return m.Steals }},
		{"lwt_serve_pump_parks_total", "Times the shard's pump spent its spin budget with nothing to launch and parked its main thread until a push, completion or shutdown woke it.", func(m Metrics) uint64 { return m.PumpParks }},
	}
	gauges := []struct {
		name, help string
		get        func(Metrics) int
	}{
		{"lwt_serve_queue_depth", "Requests waiting in the shard's submission queue.", func(m Metrics) int { return m.QueueDepth }},
		{"lwt_serve_inflight", "Launched-but-unfinished work units on the shard.", func(m Metrics) int { return m.InFlight }},
		{"lwt_serve_ioparked", "In-flight work units parked on the async-I/O reactor.", func(m Metrics) int { return m.IOParked }},
	}
	sched := []struct {
		name, help string
		get        func(Metrics) uint64
	}{
		{"lwt_sched_pushes_total", "Work units pushed into the backend's scheduler pools.", func(m Metrics) uint64 { return m.Sched.Pushes }},
		{"lwt_sched_pops_total", "Work units popped by their owning executor.", func(m Metrics) uint64 { return m.Sched.Pops }},
		{"lwt_sched_steals_total", "Work units stolen from another executor's pool.", func(m Metrics) uint64 { return m.Sched.Steals }},
		{"lwt_sched_contended_total", "Pool operations that hit contention.", func(m Metrics) uint64 { return m.Sched.Contended }},
		{"lwt_sched_empty_pops_total", "Pool polls that found nothing to run.", func(m Metrics) uint64 { return m.Sched.EmptyPops }},
		{"lwt_sched_parks_total", "Times an executor spent its spin budget of empty polls and went to sleep until the next push.", func(m Metrics) uint64 { return m.Sched.Parks }},
	}

	shardLabels := func(m Metrics) []string {
		return []string{"backend", m.Backend, "shard", strconv.Itoa(m.Shard)}
	}
	for _, c := range counters {
		pw.Family(c.name, c.help, prom.Counter)
		for _, v := range views {
			for _, m := range v.Shards {
				pw.Sample(c.name, float64(c.get(m)), shardLabels(m)...)
			}
		}
	}
	for _, g := range gauges {
		pw.Family(g.name, g.help, prom.Gauge)
		for _, v := range views {
			for _, m := range v.Shards {
				pw.Sample(g.name, float64(g.get(m)), shardLabels(m)...)
			}
		}
	}
	for _, c := range sched {
		pw.Family(c.name, c.help, prom.Counter)
		for _, v := range views {
			for _, m := range v.Shards {
				pw.Sample(c.name, float64(c.get(m)), shardLabels(m)...)
			}
		}
	}

	pw.Family("lwt_serve_latency_seconds",
		"End-to-end request latency, submission call to completion.", prom.Histogram)
	bounds := make([]float64, 0, latencyMaxExp-latencyMinExp+1)
	for e := latencyMinExp; e <= latencyMaxExp; e++ {
		bounds = append(bounds, (time.Duration(1) << e).Seconds())
	}
	for _, v := range views {
		for _, m := range v.Shards {
			pw.Histogram("lwt_serve_latency_seconds", bounds, latencyBuckets(m.Latency),
				m.Latency.Sum().Seconds(), shardLabels(m)...)
		}
	}
	return pw.WriteTo(w)
}

// lwt_serve_latency_seconds folds each shard's lathist counts onto the
// power-of-two le bounds 2^latencyMinExp ns (~16µs) to 2^latencyMaxExp
// ns (~4.3s). Every power of two is a lathist bucket bound, so the fold
// is exact and the server keeps one bucket array, not two.
const latencyMinExp, latencyMaxExp = 14, 32

// latencyBuckets returns the cumulative counts WriteProm exports: entry
// i counts the requests at or below 2^(latencyMinExp+i) ns, the final
// entry every request.
func latencyBuckets(c lathist.Counts) []uint64 {
	cum := make([]uint64, 0, latencyMaxExp-latencyMinExp+2)
	for e := latencyMinExp; e <= latencyMaxExp; e++ {
		cum = append(cum, c.CountLE(time.Duration(1)<<e))
	}
	return append(cum, c.Total())
}
