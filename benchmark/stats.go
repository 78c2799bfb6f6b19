package main

import (
	"math"
	"sort"
	"time"
)

// numWindows is how many equal windows a measured phase is cut into.
// Every timing metric is the median over the windows of the window's
// own statistic, so a stall or a slow stretch moves one window's value
// and leaves the median where it was.
const numWindows = 6

// sample is one correct reply: when it arrived (offset from the start
// of the measured phase) and how long the caller waited for it.
type sample struct {
	done time.Duration
	lat  time.Duration
}

// window is the part of a measured phase that fell into one of its
// equal slices: the latencies of the replies completing there, sorted,
// and when the first and the last of them completed.
type window struct {
	lats        []float64
	first, last time.Duration
}

// rate is the window's completions per second, taken between its first
// and last completion so that it is a measured time and not a count
// over a nominal length. A window with fewer than two replies has none.
func (w window) rate() float64 {
	if len(w.lats) < 2 || w.last <= w.first {
		return 0
	}
	return float64(len(w.lats)-1) / (w.last - w.first).Seconds()
}

// cutWindows distributes samples over n windows of length win by
// completion time. Samples completing outside [0, n*win) are dropped:
// they are the tail after the phase ended.
func cutWindows(samples []sample, win time.Duration, n int) []window {
	out := make([]window, n)
	for _, s := range samples {
		if s.done < 0 {
			continue
		}
		i := int(s.done / win)
		if i >= n {
			continue
		}
		w := &out[i]
		if len(w.lats) == 0 || s.done < w.first {
			w.first = s.done
		}
		w.last = max(w.last, s.done)
		w.lats = append(w.lats, float64(s.lat))
	}
	for _, w := range out {
		sort.Float64s(w.lats)
	}
	return out
}

// quantile returns the q-quantile of sorted by the nearest-rank rule,
// lowered where needed so that at least ten samples lie beyond the
// reported one: a percentile with fewer than ten samples above it is
// an order statistic of the extreme tail and does not repeat. It also
// returns the quantile actually reported. With fewer than eleven
// samples it falls back to the plain nearest rank.
func quantile(sorted []float64, q float64) (v, effective float64) {
	n := len(sorted)
	if n == 0 {
		return math.NaN(), q
	}
	i := int(math.Ceil(q*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	if i > n-1 {
		i = n - 1
	}
	if q > 0.5 && n >= 11 && i > n-11 {
		i = n - 11
	}
	return sorted[i], float64(i+1) / float64(n)
}

// pct returns the q-quantile of xs by the ten-beyond rule, or 0 for no
// samples (a layer the workload does not cross).
func pct(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	v, _ := quantile(s, q)
	return v
}

// median returns the median of xs (mean of the middle two for an even
// count) without reordering the caller's slice.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// windowStats is what one measured phase reduces to.
type windowStats struct {
	rate    float64 // median over windows of correct replies per second
	p50     float64 // median over windows of the window p50, nanoseconds
	p99     float64 // median over windows of the window p99 (ten-beyond rule), nanoseconds
	p99Q    float64 // lowest quantile any window actually reported for p99
	minN    int     // smallest window sample count
	samples int     // samples inside the windows
}

// reduceWindows turns the windows into the phase's statistics. scale
// is how many replies each recorded sample stands for (1 unless the
// recorder subsamples).
func reduceWindows(windows []window, scale float64) windowStats {
	rates := make([]float64, 0, len(windows))
	p50s := make([]float64, 0, len(windows))
	p99s := make([]float64, 0, len(windows))
	st := windowStats{p99Q: 1, minN: math.MaxInt}
	for _, w := range windows {
		st.samples += len(w.lats)
		st.minN = min(st.minN, len(w.lats))
		rates = append(rates, w.rate()*scale)
		if len(w.lats) == 0 {
			continue
		}
		v, _ := quantile(w.lats, 0.50)
		p50s = append(p50s, v)
		v, q := quantile(w.lats, 0.99)
		p99s = append(p99s, v)
		if q < st.p99Q {
			st.p99Q = q
		}
	}
	st.rate, st.p50, st.p99 = median(rates), median(p50s), median(p99s)
	return st
}

// quartileSpread is the distance between the first and third quartile
// of xs as a share of their median, by the same exclusive method as
// Python's statistics.quantiles(xs, n=4), which is what the acceptance
// procedure for this benchmark uses.
func quartileSpread(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(k int) float64 { // k-th quartile cut point
		pos := float64(k) * float64(n+1) / 4
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	m := median(s)
	if m == 0 {
		return 0
	}
	return (at(3) - at(1)) / math.Abs(m)
}
