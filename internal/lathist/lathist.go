// Package lathist is a lock-free latency histogram: a fixed array of
// log-linear nanosecond buckets, four per power of two, recorded with
// one atomic add each and read as cumulative snapshots. Two snapshots
// subtract to the observations made between them, so a reader that keeps
// its previous snapshot gets a window by time — the interval since it
// last looked — instead of a window by count.
package lathist

import (
	"encoding/json"
	"math"
	"math/bits"
	"sync/atomic"
	"time"
)

const (
	// subBits: 1<<subBits sub-buckets per power of two. A bucket spans at
	// most a quarter of its lower edge, which bounds a quantile's relative
	// error at 25 %.
	subBits = 2
	// maxExp: bucket bounds reach 2^maxExp ns (~18 minutes); anything
	// slower is counted in the last bucket.
	maxExp = 40
	// NumBuckets is the histogram's bucket count: upper bounds 1, 2, 3,
	// 4 ns, then four per power of two up to 2^maxExp ns.
	NumBuckets = maxExp<<subBits - 4
)

// Hist counts latencies. The zero value is an empty histogram ready for
// use; Observe and Snapshot may run concurrently from any goroutines.
type Hist struct {
	n   [NumBuckets]atomic.Uint64
	sum atomic.Int64
}

// Observe records one latency with two atomic adds, no loop and no lock.
// Negative durations count as zero.
func (h *Hist) Observe(d time.Duration) {
	d = max(d, 0)
	h.n[index(d)].Add(1)
	h.sum.Add(int64(d))
}

// Snapshot returns the counts observed so far. Buckets are read one by
// one while writers continue, so a snapshot taken under load may miss
// observations racing it, never count one twice.
func (h *Hist) Snapshot() Counts {
	var c Counts
	for i := range h.n {
		c.n[i] = h.n[i].Load()
	}
	c.sum = time.Duration(h.sum.Load())
	return c
}

// Counts is a point-in-time copy of a Hist: cumulative since the
// histogram was created, or a difference of two such copies (Sub).
type Counts struct {
	n   [NumBuckets]uint64
	sum time.Duration
}

// Add returns c plus o: the counts of two histograms merged.
func (c Counts) Add(o Counts) Counts {
	for i := range c.n {
		c.n[i] += o.n[i]
	}
	c.sum += o.sum
	return c
}

// Sub returns the observations in c that are not in prev, an earlier
// snapshot of the same histogram.
func (c Counts) Sub(prev Counts) Counts {
	for i := range c.n {
		c.n[i] -= prev.n[i]
	}
	c.sum -= prev.sum
	return c
}

// Total returns the number of observations.
func (c Counts) Total() uint64 {
	var t uint64
	for _, v := range c.n {
		t += v
	}
	return t
}

// Sum returns the sum of every observed latency.
func (c Counts) Sum() time.Duration { return c.sum }

// Quantile returns the nearest-rank q-quantile, reported as the upper
// bound of the bucket holding it: never below the true value and at most
// 25 % above it. q is clamped to [0, 1]; an empty Counts returns 0.
func (c Counts) Quantile(q float64) time.Duration {
	total := c.Total()
	if total == 0 {
		return 0
	}
	q = min(max(q, 0), 1)
	rank := max(uint64(math.Ceil(q*float64(total))), 1)
	var run uint64
	for i, v := range c.n {
		if run += v; run >= rank {
			return upper(i)
		}
	}
	return upper(NumBuckets - 1) // unreachable: run ends at total
}

// CountLE returns the number of observations at or below d. It is exact
// when d is a bucket bound, as every power of two is, and otherwise
// rounds d down to the nearest bound.
func (c Counts) CountLE(d time.Duration) uint64 {
	var run uint64
	for i, v := range c.n {
		if upper(i) > d {
			break
		}
		run += v
	}
	return run
}

// MarshalJSON renders the summary a JSON reader wants rather than the
// bucket array: count, sum and the P50/P99 bounds, in nanoseconds.
func (c Counts) MarshalJSON() ([]byte, error) {
	return json.Marshal(struct {
		Count uint64 `json:"count"`
		Sum   int64  `json:"sum_ns"`
		P50   int64  `json:"p50_ns"`
		P99   int64  `json:"p99_ns"`
	}{c.Total(), int64(c.sum), int64(c.Quantile(0.5)), int64(c.Quantile(0.99))})
}

// index returns the bucket of d >= 0. Buckets are closed above: bucket i
// holds the values in (upper(i-1), upper(i)], and 0 shares the first
// bucket with 1 ns.
func index(d time.Duration) int {
	x := uint64(max(d, 1)) - 1
	e := bits.Len64(x >> subBits) // 0 below 4 ns: one bucket per value there
	if e >= maxExp-1 {
		return NumBuckets - 1
	}
	return e<<subBits | int(x>>max(e-1, 0))&(1<<subBits-1)
}

// upper returns the largest value bucket i holds.
func upper(i int) time.Duration {
	j := i + 1
	e := j >> subBits
	if e == 0 {
		return time.Duration(j)
	}
	return time.Duration(uint64(1<<subBits|j&(1<<subBits-1)) << (e - 1))
}
