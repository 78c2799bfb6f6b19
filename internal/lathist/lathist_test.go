package lathist

import (
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/microbench"
)

// TestConcurrentObserveSumsExactly: observations racing from several
// goroutines are all counted, in the total and in the sum.
func TestConcurrentObserveSumsExactly(t *testing.T) {
	const workers, per = 8, 5000
	var h Hist
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Observe(time.Duration(w*per + i))
			}
		}(w)
	}
	wg.Wait()
	c := h.Snapshot()
	const n = workers * per
	if c.Total() != n {
		t.Fatalf("Total = %d, want %d", c.Total(), n)
	}
	if want := time.Duration(n * (n - 1) / 2); c.Sum() != want {
		t.Fatalf("Sum = %d, want %d", c.Sum(), want)
	}
}

// TestQuantileWithinBucketError: on 10^5 log-uniform samples between
// 1µs and 10s, each quantile is the bound of the bucket holding the
// exact nearest-rank value, so at or above it and at most 25 % above.
func TestQuantileWithinBucketError(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	lo, hi := math.Log(1e3), math.Log(1e10)
	xs := make([]time.Duration, 100_000)
	var h Hist
	for i := range xs {
		xs[i] = time.Duration(math.Exp(lo + rng.Float64()*(hi-lo)))
		h.Observe(xs[i])
	}
	c := h.Snapshot()
	for _, q := range []float64{0, 0.01, 0.25, 0.5, 0.9, 0.99, 0.999, 1} {
		exact, got := microbench.Quantile(xs, q), c.Quantile(q)
		if got < exact || float64(got) > 1.25*float64(exact) {
			t.Errorf("Quantile(%v) = %v, exact %v: outside [exact, 1.25 exact]", q, got, exact)
		}
	}
}

// TestSubIsTheInterval: the difference of two snapshots holds exactly
// the observations made between them.
func TestSubIsTheInterval(t *testing.T) {
	var h, between Hist
	for i := 1; i <= 1000; i++ {
		h.Observe(time.Duration(i) * time.Microsecond)
	}
	before := h.Snapshot()
	for i := 1; i <= 500; i++ {
		d := time.Duration(i*i) * time.Microsecond
		h.Observe(d)
		between.Observe(d)
	}
	if got, want := h.Snapshot().Sub(before), between.Snapshot(); got != want {
		t.Fatalf("Sub: total %d sum %v, want total %d sum %v", got.Total(), got.Sum(), want.Total(), want.Sum())
	}
}

// TestEdgeValuesLandInEndBuckets: 0 and 1 ns land in the first bucket,
// math.MaxInt64 in the last, and each bucket's bound is the largest
// value it holds.
func TestEdgeValuesLandInEndBuckets(t *testing.T) {
	for _, tc := range []struct {
		d    time.Duration
		want int
	}{{-1, 0}, {0, 0}, {1, 0}, {math.MaxInt64, NumBuckets - 1}} {
		if got := index(tc.d); got != tc.want {
			t.Errorf("index(%d) = %d, want %d", tc.d, got, tc.want)
		}
	}
	for i := 0; i < NumBuckets-1; i++ {
		if index(upper(i)) != i || index(upper(i)+1) != i+1 {
			t.Fatalf("bucket %d: bound %d does not close it", i, upper(i))
		}
	}
	if upper(NumBuckets-1) != 1<<maxExp {
		t.Fatalf("last bound = %d, want 2^%d ns", upper(NumBuckets-1), maxExp)
	}
	var h Hist
	h.Observe(0)
	h.Observe(1)
	if got := h.Snapshot().Quantile(1); got != 1 {
		t.Fatalf("max of {0, 1ns} = %v, want 1ns", got)
	}
	h.Observe(math.MaxInt64)
	if got := h.Snapshot().Quantile(1); got != 1<<maxExp {
		t.Fatalf("max with MaxInt64 = %v, want the last bound 2^%d ns", got, maxExp)
	}
}
