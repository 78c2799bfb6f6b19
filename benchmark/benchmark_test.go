package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
	"time"
)

func TestCutWindowsAndMedianOfWindows(t *testing.T) {
	win := time.Second
	var samples []sample
	// Three windows, ten replies each at 100 ms spacing; window 1 holds
	// a stall that makes its latencies ten times the others'.
	for w := 0; w < 3; w++ {
		for i := 0; i < 10; i++ {
			lat := time.Millisecond
			if w == 1 {
				lat = 10 * time.Millisecond
			}
			samples = append(samples, sample{done: time.Duration(w)*win + time.Duration(i)*100*time.Millisecond, lat: lat})
		}
	}
	samples = append(samples,
		sample{done: 3 * win, lat: time.Hour}, // at the end of the phase: outside
		sample{done: -1, lat: time.Hour})      // before it: outside
	ws := cutWindows(samples, win, 3)
	for i, w := range ws {
		if len(w.lats) != 10 {
			t.Fatalf("window %d holds %d samples, want 10", i, len(w.lats))
		}
		// Nine gaps of 100 ms: 9 / 0.9 s.
		if got := w.rate(); math.Abs(got-10) > 1e-9 {
			t.Errorf("window %d rate %v, want 10", i, got)
		}
	}
	st := reduceWindows(ws, 1)
	if st.p50 != float64(time.Millisecond) || st.p99 != float64(time.Millisecond) {
		t.Errorf("median of windows p50 %v p99 %v: the stalled window moved it", st.p50, st.p99)
	}
	if st.samples != 30 || st.minN != 10 {
		t.Errorf("samples %d minN %d, want 30 and 10", st.samples, st.minN)
	}
	if got := reduceWindows(ws, 31).rate; math.Abs(got-310) > 1e-9 {
		t.Errorf("subsampled rate %v, want 310", got)
	}
}

func TestQuantileTenBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		return xs
	}
	cases := []struct {
		n     int
		q     float64
		want  float64
		wantQ float64
	}{
		{1000, 0.99, 990, 0.99}, // exactly ten beyond
		{2000, 0.99, 1980, 0.99},
		{500, 0.99, 490, 0.98}, // lowered: 495 would leave five beyond
		{100, 0.99, 90, 0.90},
		{100, 0.50, 50, 0.50},
		{11, 0.99, 1, 1.0 / 11},
		{5, 0.99, 5, 1}, // too few to apply the rule
	}
	for _, c := range cases {
		v, q := quantile(seq(c.n), c.q)
		if v != c.want || math.Abs(q-c.wantQ) > 1e-12 {
			t.Errorf("quantile(1..%d, %v) = %v at %v, want %v at %v", c.n, c.q, v, q, c.want, c.wantQ)
		}
		if c.n >= 11 && float64(c.n)-v < 10 {
			t.Errorf("quantile(1..%d, %v) = %v leaves fewer than ten beyond", c.n, c.q, v)
		}
	}
	if v, _ := quantile(nil, 0.5); !math.IsNaN(v) {
		t.Errorf("quantile of nothing = %v, want NaN", v)
	}
}

func TestMedianAndQuartileSpread(t *testing.T) {
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("median odd = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v", got)
	}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25].
	xs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	if got, want := quartileSpread(xs), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("quartileSpread = %v, want %v", got, want)
	}
}

func TestKeyStreamReproducible(t *testing.T) {
	draw := func(seed int64, caller int, zipf bool) []int {
		ks := newKeyStream(seed, caller, gateKeys, zipf)
		out := make([]int, 4000)
		for i := range out {
			out[i] = ks.next()
		}
		return out
	}
	for _, zipf := range []bool{true, false} {
		a, b := draw(7, 0, zipf), draw(7, 0, zipf)
		other, otherCaller := draw(8, 0, zipf), draw(7, 1, zipf)
		same, sameCaller, keyed, low := true, true, 0, 0
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("zipf=%v: request %d differs between two streams of one seed", zipf, i)
			}
			same = same && a[i] == other[i]
			sameCaller = sameCaller && a[i] == otherCaller[i]
			if (a[i] >= 0) != (i%2 == 1) {
				t.Fatalf("zipf=%v: request %d keyed=%v breaks the unkeyed, keyed alternation", zipf, i, a[i] >= 0)
			}
			if a[i] >= gateKeys {
				t.Fatalf("key %d out of range", a[i])
			}
			if a[i] >= 0 {
				keyed++
				if a[i] < 8 {
					low++
				}
			}
		}
		if same || sameCaller {
			t.Errorf("zipf=%v: another seed or caller replays the same stream", zipf)
		}
		if keyed != len(a)/2 {
			t.Errorf("zipf=%v: %d keyed of %d, want exactly half", zipf, keyed, len(a))
		}
		// Zipf(1.1) puts over half its mass on the first eight of 256
		// keys; uniform puts 1/32 there.
		if share := float64(low) / float64(keyed); zipf != (share > 0.4) {
			t.Errorf("zipf=%v: share of the eight hottest keys %.2f", zipf, share)
		}
	}
}

func TestParseProc(t *testing.T) {
	// A command name with spaces and parentheses, as the kernel prints it.
	stat := "4242 (lwt (served) x) S 1 4242 4242 0 -1 4194560 1234 0 0 0 250 50 0 0 20 0 7 0 123456 1000000 2000 18446744073709551615 0 0 0 0 0 0 0 0 0 0 0 0 17 1 0 0 0 0 0"
	cpu, err := parseStatCPU(stat)
	if err != nil || cpu != 3*time.Second {
		t.Errorf("parseStatCPU = %v, %v; want 3s (250+50 ticks)", cpu, err)
	}
	if comm, state := parseStatComm(stat); comm != "lwt (served) x" || state != "S" {
		t.Errorf("parseStatComm = %q, %q", comm, state)
	}
	if comm, state := parseStatComm("7 (lwtgate) Z 1"); comm != "lwtgate" || state != "Z" {
		t.Errorf("parseStatComm of a zombie = %q, %q", comm, state)
	}
	for _, bad := range []string{"", "1 (x) S 1 2", "1 (x) S 1 2 3 4 5 6 7 8 9 10 x 12 13"} {
		if _, err := parseStatCPU(bad); err == nil {
			t.Errorf("parseStatCPU(%q) accepted", bad)
		}
	}
	status := "Name:\tlwtserved\nVmPeak:\t  900000 kB\nVmHWM:\t   15360 kB\nVmRSS:\t   12000 kB\n"
	hwm, err := parseVmHWM(status)
	if err != nil || hwm != 15<<20 {
		t.Errorf("parseVmHWM = %v, %v; want 15 MiB", hwm, err)
	}
	for _, bad := range []string{"Name:\tx\n", "VmHWM:\t12 MB\n", "VmHWM:\tlots kB\n"} {
		if _, err := parseVmHWM(bad); err == nil {
			t.Errorf("parseVmHWM(%q) accepted", bad)
		}
	}
	// The real files of this process parse.
	if _, err := pidCPU(os.Getpid()); err != nil {
		t.Error(err)
	}
	if rss, err := pidPeakRSS(os.Getpid()); err != nil || rss == 0 {
		t.Errorf("own peak RSS %d, %v", rss, err)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Trace: 1, ID: 1, Name: "client.request", Phase: "p", Start: 0, End: 100},
		{Trace: 1, ID: 2, Parent: 1, Name: "worker.handle", Phase: "p", Start: 60, End: 100},
		// Overlapping children count once; a child reaching outside its
		// parent is clipped to it.
		{Trace: 3, ID: 3, Name: "client.request", Phase: "p", Start: 1000, End: 1100},
		{Trace: 3, ID: 4, Parent: 3, Name: "a", Phase: "p", Start: 1010, End: 1050},
		{Trace: 3, ID: 5, Parent: 3, Name: "b", Phase: "p", Start: 1040, End: 1070},
		{Trace: 3, ID: 6, Parent: 3, Name: "c", Phase: "p", Start: 1090, End: 1200},
		{Trace: 3, ID: 7, Parent: 4, Name: "d", Phase: "p", Start: 1010, End: 1020},
		// A parent that was not recorded leaves the span a root.
		{Trace: 8, ID: 8, Parent: 99, Name: "client.request", Phase: "q", Start: 0, End: 5},
	}
	self := selfTimes(spans)
	want := map[uint64]int64{1: 60, 2: 40, 3: 30, 4: 30, 5: 30, 6: 110, 7: 10, 8: 5}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], w)
		}
	}
	got := selfOf(spans, "client.request", "p")
	if len(got) != 2 || got[0] != 60 || got[1] != 30 {
		t.Errorf("selfOf(client.request, p) = %v, want [60 30]", got)
	}
}

// TestContractMatchesCode keeps BENCHMARK.json and the metric tables
// in this package from drifting apart: the driver refuses a run whose
// metrics are not exactly the contract's.
func TestContractMatchesCode(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark directory:", err)
	}
	var c struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &c); err != nil {
		t.Fatal(err)
	}
	ws := workloads(2)
	if len(c.Workloads) != len(ws) {
		t.Fatalf("%d workloads in the contract, %d in code", len(c.Workloads), len(ws))
	}
	for i, w := range ws {
		if c.Workloads[i].Name != w.name {
			t.Errorf("workload %d: contract %q, code %q", i, c.Workloads[i].Name, w.name)
		}
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in the contract, %d in code", kind, len(got), len(want))
		}
		for i, d := range want {
			if got[i].Name != d.name || got[i].Unit != d.unit {
				t.Errorf("%s metric %d: contract %s [%s], code %s [%s]", kind, i, got[i].Name, got[i].Unit, d.name, d.unit)
			}
		}
	}
	check("end_to_end", c.EndToEnd, endToEnd)
	check("per_layer", c.PerLayer, perLayer)
}
