// Package prom implements the minimal subset of the Prometheus text
// exposition format (version 0.0.4) that the daemons need to publish
// metrics without depending on a client library: HELP/TYPE family
// headers, escaped labels, and counter/gauge/histogram samples. It also
// ships a strict line-format linter (Lint) used by the tests and CI to
// keep the handcrafted output scrape-compatible — the linter is the
// contract that stands in for a real Prometheus server in this
// dependency-free repo.
//
// A Writer is not safe for concurrent use; build one per scrape.
// Label pairs are emitted in the order given, which keeps output
// byte-stable for golden tests (Prometheus itself is order-agnostic).
package prom

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"regexp"
	"strconv"
	"strings"
)

// Metric family types accepted by TYPE lines.
const (
	Counter   = "counter"
	Gauge     = "gauge"
	Histogram = "histogram"
	Untyped   = "untyped"
)

// Writer accumulates one exposition page. Families must be declared
// before their samples; redeclaring a family is a no-op so helpers can
// defensively re-announce.
type Writer struct {
	b        strings.Builder
	declared map[string]string // family name -> type
}

// NewWriter returns an empty exposition page builder.
func NewWriter() *Writer {
	return &Writer{declared: make(map[string]string)}
}

// Family writes the # HELP and # TYPE header for a metric family once.
// For histograms, name is the family base name (without _bucket/_sum/
// _count).
func (w *Writer) Family(name, help, typ string) {
	if _, ok := w.declared[name]; ok {
		return
	}
	w.declared[name] = typ
	fmt.Fprintf(&w.b, "# HELP %s %s\n", name, escapeHelp(help))
	fmt.Fprintf(&w.b, "# TYPE %s %s\n", name, typ)
}

// Sample writes one sample line. Labels are alternating key, value
// pairs, emitted in the order given; a stray odd key is ignored.
func (w *Writer) Sample(name string, value float64, labels ...string) {
	w.b.WriteString(name)
	if len(labels) >= 2 {
		w.b.WriteByte('{')
		for i := 0; i+1 < len(labels); i += 2 {
			if i > 0 {
				w.b.WriteByte(',')
			}
			w.b.WriteString(labels[i])
			w.b.WriteString(`="`)
			w.b.WriteString(labelEscaper.Replace(labels[i+1]))
			w.b.WriteByte('"')
		}
		w.b.WriteByte('}')
	}
	w.b.WriteByte(' ')
	w.b.WriteString(formatValue(value))
	w.b.WriteByte('\n')
}

// Histogram writes a full histogram — cumulative _bucket series with
// "le" labels (bounds in seconds, final bucket +Inf), then _sum and
// _count. cum[i] is the cumulative count of observations <= bounds[i];
// len(cum) must be len(bounds)+1, with the final entry the total count.
// The family must have been declared with type Histogram.
func (w *Writer) Histogram(name string, bounds []float64, cum []uint64, sum float64, labels ...string) {
	for i, c := range cum {
		le := "+Inf"
		if i < len(bounds) {
			le = formatValue(bounds[i])
		}
		w.Sample(name+"_bucket", float64(c), append(append([]string{}, labels...), "le", le)...)
	}
	w.Sample(name+"_sum", sum, labels...)
	var total uint64
	if len(cum) > 0 {
		total = cum[len(cum)-1]
	}
	w.Sample(name+"_count", float64(total), labels...)
}

// String returns the page built so far.
func (w *Writer) String() string { return w.b.String() }

// WriteTo writes the page to wr.
func (w *Writer) WriteTo(wr io.Writer) (int64, error) {
	n, err := io.WriteString(wr, w.b.String())
	return int64(n), err
}

// ContentType is the value to send in the Content-Type header.
const ContentType = "text/plain; version=0.0.4; charset=utf-8"

func formatValue(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func escapeHelp(s string) string {
	return strings.NewReplacer(`\`, `\\`, "\n", `\n`).Replace(s)
}

// A label value escapes exactly what the 0.0.4 format allows it to:
// backslash, double quote and newline. Every other byte, a tab or a '}'
// included, is written as is.
var (
	labelEscaper   = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	labelUnescaper = strings.NewReplacer(`\\`, `\`, `\"`, `"`, `\n`, "\n")
)

var (
	nameRe = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	// lineRe splits a sample line into name, label body and value. The
	// body is quote-aware: a quoted label value may hold '}' and ','
	// and the three escapes labelEscaper writes, nothing else.
	lineRe  = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{((?:[^"}]|"(?:[^"\\]|\\[\\"n])*")*)\})? (\S+)( [0-9-]+)?$`)
	labelRe = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*$`)
)

// Lint checks a text exposition page against the 0.0.4 line format:
// every non-comment line must be a well-formed sample whose name is
// legal, whose labels parse, and whose value is a float; TYPE lines
// must use a known type, appear at most once per family, and precede
// that family's samples; histogram families must expose _bucket series
// carrying an "le" label plus _sum and _count. Returns the first
// violation with its line number, or nil for a clean page.
func Lint(r io.Reader) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	typed := make(map[string]string)  // family -> declared type
	sampled := make(map[string]bool)  // family base -> has samples
	bucketLE := make(map[string]bool) // histogram family -> saw le label
	sumSeen := make(map[string]bool)
	countSeen := make(map[string]bool)
	ln := 0
	for sc.Scan() {
		ln++
		line := sc.Text()
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			f := strings.SplitN(line, " ", 4)
			if len(f) < 3 || (f[1] != "HELP" && f[1] != "TYPE") {
				return fmt.Errorf("line %d: malformed comment %q", ln, line)
			}
			if !nameRe.MatchString(f[2]) {
				return fmt.Errorf("line %d: bad metric name %q", ln, f[2])
			}
			if f[1] == "TYPE" {
				if len(f) < 4 {
					return fmt.Errorf("line %d: TYPE without a type", ln)
				}
				switch f[3] {
				case Counter, Gauge, Histogram, Untyped, "summary":
				default:
					return fmt.Errorf("line %d: unknown type %q", ln, f[3])
				}
				if _, dup := typed[f[2]]; dup {
					return fmt.Errorf("line %d: duplicate TYPE for %q", ln, f[2])
				}
				if sampled[f[2]] {
					return fmt.Errorf("line %d: TYPE for %q after its samples", ln, f[2])
				}
				typed[f[2]] = f[3]
			}
			continue
		}
		m := lineRe.FindStringSubmatch(line)
		if m == nil {
			return fmt.Errorf("line %d: malformed sample %q", ln, line)
		}
		name, labels, value := m[1], m[3], m[4]
		if _, err := strconv.ParseFloat(strings.TrimPrefix(value, "+"), 64); err != nil {
			return fmt.Errorf("line %d: bad value %q: %v", ln, value, err)
		}
		hasLE := false
		if labels != "" {
			for _, kv := range splitLabels(labels) {
				eq := strings.Index(kv, "=")
				if eq < 0 {
					return fmt.Errorf("line %d: malformed label %q", ln, kv)
				}
				k, v := kv[:eq], kv[eq+1:]
				if !labelRe.MatchString(k) {
					return fmt.Errorf("line %d: bad label name %q", ln, k)
				}
				if len(v) < 2 || v[0] != '"' || v[len(v)-1] != '"' {
					return fmt.Errorf("line %d: unquoted label value %q", ln, v)
				}
				if k == "le" {
					hasLE = true
				}
			}
		}
		base := name
		for _, suf := range []string{"_bucket", "_sum", "_count"} {
			if b := strings.TrimSuffix(name, suf); b != name && typed[b] == Histogram {
				base = b
				switch suf {
				case "_bucket":
					if !hasLE {
						return fmt.Errorf("line %d: histogram bucket %q without le label", ln, name)
					}
					bucketLE[b] = true
				case "_sum":
					sumSeen[b] = true
				case "_count":
					countSeen[b] = true
				}
			}
		}
		sampled[base] = true // untyped samples are legal in the format
	}
	if err := sc.Err(); err != nil {
		return err
	}
	for fam, t := range typed {
		if t == Histogram && sampled[fam] {
			if !bucketLE[fam] {
				return fmt.Errorf("histogram %q has no _bucket series with le", fam)
			}
			if !sumSeen[fam] || !countSeen[fam] {
				return fmt.Errorf("histogram %q missing _sum or _count", fam)
			}
		}
	}
	return nil
}

// splitLabels splits a label body on commas that are outside quotes.
func splitLabels(s string) []string {
	var out []string
	depth := false
	start := 0
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '\\':
			i++
		case '"':
			depth = !depth
		case ',':
			if !depth {
				out = append(out, s[start:i])
				start = i + 1
			}
		}
	}
	if start < len(s) {
		out = append(out, s[start:])
	}
	return out
}

// Value extracts one sample's value from an exposition page: name is
// the full sample name (including any _bucket/_sum suffix) and want is
// a label subset that must all match. Returns the first matching
// sample. Intended for tests and smoke checks, not for scraping.
func Value(page, name string, want map[string]string) (float64, bool) {
	for _, line := range strings.Split(page, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		m := lineRe.FindStringSubmatch(line)
		if m == nil || m[1] != name {
			continue
		}
		got := make(map[string]string)
		if m[3] != "" {
			for _, kv := range splitLabels(m[3]) {
				if eq := strings.Index(kv, "="); eq >= 0 {
					v := kv[eq+1:]
					if len(v) >= 2 && v[0] == '"' && v[len(v)-1] == '"' {
						v = labelUnescaper.Replace(v[1 : len(v)-1])
					}
					got[kv[:eq]] = v
				}
			}
		}
		ok := true
		for k, v := range want {
			if got[k] != v {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		v, err := strconv.ParseFloat(strings.TrimPrefix(m[4], "+"), 64)
		if err != nil {
			return 0, false
		}
		return v, true
	}
	return 0, false
}
