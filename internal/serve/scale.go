package serve

import (
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
// Growth never remaps keys: keyed submissions hash over the base
// Options.Shards only, so dynamic shards carry unkeyed traffic. Shrink
// is a graceful routing-level drain — the shard leaves the routing set
// first, then its pump runs down whatever it had accepted; because the
// pump keeps owning its queues afterwards (parked warm, zero CPU), a
// submission that raced the scale-down is served, not stranded, and a
// later grow revives the shard instead of paying another backend
// initialization. Every shard, in the set or out, is finalized at
// Close.
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

// grow adds one shard to the routing set: a previously scaled-down
// shard is revived in place (its runtime stayed warm), otherwise a new
// shard and backend runtime are started. Reports whether the set grew.
func (s *Server) grow() bool {
	s.scaleMu.Lock()
	defer s.scaleMu.Unlock()
	if s.closed.Load() {
		return false
	}
	cur := s.shards()
	if len(cur) >= s.opts.Scale.MaxShards {
		return false
	}
	var sh *shard
	for _, c := range s.all {
		if !inSet(cur, c) {
			sh = c // revive: drained earlier, runtime still live
			break
		}
	}
	if sh == nil {
		sh = s.newShard(len(s.all))
		ready := make(chan error, 1)
		go sh.pump(ready)
		if err := <-ready; err != nil {
			// The pump closed sh.done and the ring on its error path;
			// the shard was never published anywhere.
			return false
		}
		s.all = append(s.all, sh)
	}
	next := append(append(make([]*shard, 0, len(cur)+1), cur...), sh)
	s.publish(next)
	s.scaleUps.Add(1)
	s.scaleRing.Instant(trace.KindUser, uint64(len(next)))
	return true
}

// shrink removes the newest dynamic shard from the routing set. Base
// shards never leave — they are the keyed-affinity domain. The removed
// shard's pump is not told anything: with no new traffic routed to it,
// it runs down its queues and parks; see AutoScale for why it stays
// warm. Reports whether the set shrank.
func (s *Server) shrink() bool {
	s.scaleMu.Lock()
	defer s.scaleMu.Unlock()
	if s.closed.Load() {
		return false
	}
	cur := s.shards()
	if len(cur) <= s.base {
		return false
	}
	i := len(cur) - 1
	if cur[i].id < s.base {
		return false // base shard at the tail; routing set never reorders, so this cannot happen
	}
	next := append(make([]*shard, 0, i), cur[:i]...)
	s.publish(next)
	s.scaleDowns.Add(1)
	s.scaleRing.Instant(trace.KindUser, uint64(len(next)))
	return true
}

func inSet(set []*shard, sh *shard) bool {
	for _, v := range set {
		if v == sh {
			return true
		}
	}
	return false
}
