package serve

import (
	"sync/atomic"
	"time"

	"repro/internal/trace"
)

// DefaultScaleInterval is the autoscaler's sample period when
// AutoScale.Interval is unset.
const DefaultScaleInterval = 500 * time.Millisecond

// scaleLaneExec is the flight-recorder lane id of the autoscaler's
// trace ring — far below the per-shard lanes at -(shard+1), so dumps
// never confuse the two.
const scaleLaneExec = -4096

// AutoScale configures the shard autoscaler. The zero value leaves it
// off: the autoscaler arms only when MaxShards exceeds Options.Shards.
//
// The controller samples the aggregate Metrics every Interval and feeds
// the anomaly watchdog's detector under scaleThresholds: three samples
// running of queued work at the per-shard in-flight cap or of growing
// ErrSaturated rejections, or three of an interval P99 over twice its
// EWMA baseline, grow the routing set by one shard; a pool that stays
// calm for eight samples shrinks by one.
//
// New starts all MaxShards shards up front; the ones beyond
// Options.Shards are headroom and start parked (zero CPU), outside the
// routing set, which is a prefix of the shard array. Growth never
// remaps keys: keyed submissions hash over the base Options.Shards
// only, so headroom shards carry unkeyed traffic. Shrink is a graceful
// routing-level drain — the shard leaves the routing set first, then its
// pump runs down whatever it had accepted and parks again, still owning
// its queues, so a submission that raced the scale-down is served, not
// stranded. Every shard, in the set or out, is finalized at Close.
type AutoScale struct {
	// MaxShards is the routing set's ceiling. <= Options.Shards means
	// autoscaling off.
	MaxShards int
	// Interval is the controller's sample period; <= 0 means
	// DefaultScaleInterval.
	Interval time.Duration
}

// watchScale is the autoscaler's controller goroutine: it samples the
// aggregate Metrics every Scale.Interval, feeds the detector, and
// applies its verdicts. Started by New only when Scale.MaxShards >
// Shards; exits when the server shuts down.
func (s *Server) watchScale() {
	tick := time.NewTicker(s.opts.Scale.Interval)
	defer tick.Stop()
	det := detector{th: scaleThresholds}
	for {
		select {
		case <-s.quit:
			return
		case <-tick.C:
			m := s.Metrics()
			loaded, calm := scaleLoad(m, s.opts.MaxInFlight)
			switch det.observe(m, loaded, calm) {
			case spike, hot:
				s.grow()
			case cold:
				s.shrink()
			}
		}
	}
}

// scaleLoad reads the autoscaler's own signals off an aggregate sample,
// per shard, on the depth the p2c routers balance: queued work at or
// past the in-flight cap means the executors cannot absorb arrivals
// (loaded); an empty queue with executors under half the cap means the
// pool can spare a shard (calm).
func scaleLoad(m Metrics, maxInFlight int) (loaded, calm bool) {
	shards := float64(max(m.Shards, 1))
	loaded = float64(m.QueueDepth)/shards >= float64(maxInFlight)
	calm = m.QueueDepth == 0 && float64(m.InFlight)/shards < float64(maxInFlight)/2
	return loaded, calm
}

// grow adds the next headroom shard to the routing set; shrink removes
// the newest one. Each is one CAS on live within [base, len(all)]: the
// shards themselves were started by New and stay up until Close, so
// scaling moves routing, never a runtime. A shard joining the set is
// kicked: its pump wakes and, with stealing on, takes a share of the
// backlog that made the pool grow before it parks again. A shard
// leaving the set is not told anything: with no new traffic routed to
// it, its pump runs down its queues and parks. Base shards never leave
// — they are the keyed-affinity domain. Each reports whether the set
// changed.
func (s *Server) grow() bool { return s.resize(1, &s.scaleUps) }

func (s *Server) shrink() bool { return s.resize(-1, &s.scaleDowns) }

func (s *Server) resize(delta int32, events *atomic.Uint64) bool {
	n := s.live.Load()
	next := n + delta
	if s.closed.Load() || next < int32(s.base) || next > int32(len(s.all)) || !s.live.CompareAndSwap(n, next) {
		return false
	}
	if delta > 0 {
		s.all[next-1].kick()
	}
	events.Add(1)
	s.scaleRing.Instant(trace.KindUser, uint64(next))
	return true
}
