package prom

import (
	"math"
	"strings"
	"testing"
	"unicode/utf8"
)

// TestWriterGolden pins the exact page a small Writer produces — the
// byte-stable contract the daemons' handcrafted exposition relies on.
func TestWriterGolden(t *testing.T) {
	w := NewWriter()
	w.Family("demo_requests_total", "Requests seen.", Counter)
	w.Sample("demo_requests_total", 42, "shard", "0")
	w.Sample("demo_requests_total", 7, "shard", "1")
	w.Family("demo_depth", "Queue depth.", Gauge)
	w.Sample("demo_depth", 3)

	want := `# HELP demo_requests_total Requests seen.
# TYPE demo_requests_total counter
demo_requests_total{shard="0"} 42
demo_requests_total{shard="1"} 7
# HELP demo_depth Queue depth.
# TYPE demo_depth gauge
demo_depth 3
`
	if got := w.String(); got != want {
		t.Fatalf("golden mismatch:\ngot:\n%s\nwant:\n%s", got, want)
	}
	if err := Lint(strings.NewReader(w.String())); err != nil {
		t.Fatalf("golden page fails lint: %v", err)
	}
}

func TestWriterFamilyDeclaredOnce(t *testing.T) {
	w := NewWriter()
	w.Family("f_total", "x", Counter)
	w.Family("f_total", "x", Counter)
	if n := strings.Count(w.String(), "# TYPE f_total"); n != 1 {
		t.Fatalf("TYPE emitted %d times, want 1", n)
	}
}

func TestWriterHistogram(t *testing.T) {
	w := NewWriter()
	w.Family("lat_seconds", "Latency.", Histogram)
	w.Histogram("lat_seconds", []float64{0.001, 0.01}, []uint64{2, 5, 9}, 0.123, "shard", "0")
	page := w.String()
	if err := Lint(strings.NewReader(page)); err != nil {
		t.Fatalf("lint: %v", err)
	}
	for _, want := range []struct {
		le string
		v  float64
	}{{"0.001", 2}, {"0.01", 5}, {"+Inf", 9}} {
		v, ok := Value(page, "lat_seconds_bucket", map[string]string{"shard": "0", "le": want.le})
		if !ok || v != want.v {
			t.Fatalf("bucket le=%s: got %v ok=%v, want %v", want.le, v, ok, want.v)
		}
	}
	if v, ok := Value(page, "lat_seconds_count", nil); !ok || v != 9 {
		t.Fatalf("count: got %v ok=%v, want 9", v, ok)
	}
	if v, ok := Value(page, "lat_seconds_sum", nil); !ok || math.Abs(v-0.123) > 1e-9 {
		t.Fatalf("sum: got %v ok=%v", v, ok)
	}
}

func TestWriterEscaping(t *testing.T) {
	w := NewWriter()
	w.Family("esc", "help with \\ and\nnewline", Gauge)
	w.Sample("esc", 1, "l", "va\"l\nue")
	if err := Lint(strings.NewReader(w.String())); err != nil {
		t.Fatalf("escaped page fails lint: %v\n%s", err, w.String())
	}
	if want := `esc{l="va\"l\nue"} 1`; !strings.Contains(w.String(), want+"\n") {
		t.Fatalf("escaped sample missing %q:\n%s", want, w.String())
	}
}

// FuzzPromRoundTrip: whatever UTF-8 a label value holds and whatever
// finite value a sample carries, the Writer's page passes Lint and
// Value reads the sample back by that label.
func FuzzPromRoundTrip(f *testing.F) {
	for _, v := range []string{"a}b", "\t", "\n", `\`, `"`, `a,b="c"`, "", "π}\\n"} {
		f.Add(v, 1.5)
	}
	f.Fuzz(func(t *testing.T, label string, value float64) {
		if !utf8.ValidString(label) || math.IsNaN(value) || math.IsInf(value, 0) {
			t.Skip()
		}
		w := NewWriter()
		w.Family("m_total", "Fuzzed.", Counter)
		w.Sample("m_total", value, "backend", label, "shard", "0")
		page := w.String()
		if err := Lint(strings.NewReader(page)); err != nil {
			t.Fatalf("lint: %v\npage:\n%s", err, page)
		}
		got, ok := Value(page, "m_total", map[string]string{"backend": label, "shard": "0"})
		if !ok || got != value {
			t.Fatalf("Value(backend=%q) = %v, %v; want %v\npage:\n%s", label, got, ok, value, page)
		}
	})
}

// TestLintRejects feeds the linter the malformations it exists to catch.
func TestLintRejects(t *testing.T) {
	cases := map[string]string{
		"bad name":           "2bad_name 1\n",
		"bad value":          "ok_name one\n",
		"unquoted label":     "ok_name{l=3} 1\n",
		"bad label name":     "ok_name{2l=\"x\"} 1\n",
		"unknown type":       "# TYPE t gaugex\n",
		"duplicate type":     "# TYPE t gauge\n# TYPE t gauge\n",
		"type after samples": "t 1\n# TYPE t gauge\n",
		"bucket without le":  "# TYPE h histogram\nh_bucket 1\nh_sum 0\nh_count 1\n",
		"histogram no sum":   "# TYPE h histogram\nh_bucket{le=\"+Inf\"} 1\nh_count 1\n",
		"malformed comment":  "# NOPE x y\n",
		"garbage line":       "!!!\n",
	}
	for name, page := range cases {
		if err := Lint(strings.NewReader(page)); err == nil {
			t.Errorf("%s: lint accepted %q", name, page)
		}
	}
}

func TestLintAcceptsInfAndTimestamps(t *testing.T) {
	page := "# TYPE g gauge\ng +Inf\ng2 1 1712345678\n"
	if err := Lint(strings.NewReader(page)); err != nil {
		t.Fatalf("lint: %v", err)
	}
}

func TestValueLabelSubset(t *testing.T) {
	page := "m{a=\"1\",b=\"2\"} 5\nm{a=\"1\",b=\"3\"} 7\n"
	if v, ok := Value(page, "m", map[string]string{"b": "3"}); !ok || v != 7 {
		t.Fatalf("got %v ok=%v, want 7", v, ok)
	}
	if _, ok := Value(page, "m", map[string]string{"b": "9"}); ok {
		t.Fatal("matched nonexistent label value")
	}
}
