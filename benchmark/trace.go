package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync/atomic"
	"time"
)

// span is one timed interval the benchmark recorded around its own
// call into a layer. Spans of one request share Trace; Parent is the
// span that caused this one (0 for the root). Times are nanoseconds
// since the tracer was created.
type span struct {
	Trace  uint64 `json:"trace"`
	ID     uint64 `json:"span"`
	Parent uint64 `json:"parent,omitempty"`
	Name   string `json:"name"`
	Phase  string `json:"phase"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Worker string `json:"worker,omitempty"`
}

// tracer hands out span ids and a common time origin. Spans themselves
// are kept by whoever records them (one slice per caller, so recording
// takes no lock) and written out when the run ends.
type tracer struct {
	origin time.Time
	last   atomic.Uint64
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

func (t *tracer) id() uint64 { return t.last.Add(1) }

func (t *tracer) at(when time.Time) int64 { return int64(when.Sub(t.origin)) }

// selfTimes returns, per span id, the span's duration minus the part
// of its interval that its child spans cover. Children are clipped to
// the parent and overlapping children are counted once.
func selfTimes(spans []span) map[uint64]int64 {
	type iv struct{ lo, hi int64 }
	kids := make(map[uint64][]iv)
	byID := make(map[uint64]span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	for _, s := range spans {
		p, ok := byID[s.Parent]
		if s.Parent == 0 || !ok {
			continue
		}
		lo, hi := max(s.Start, p.Start), min(s.End, p.End)
		if hi > lo {
			kids[s.Parent] = append(kids[s.Parent], iv{lo, hi})
		}
	}
	self := make(map[uint64]int64, len(spans))
	for _, s := range spans {
		ks := kids[s.ID]
		sort.Slice(ks, func(i, j int) bool { return ks[i].lo < ks[j].lo })
		covered, edge := int64(0), s.Start
		for _, k := range ks {
			if k.hi <= edge {
				continue
			}
			covered += k.hi - max(k.lo, edge)
			edge = k.hi
		}
		self[s.ID] = s.End - s.Start - covered
	}
	return self
}

// selfOf returns the self times, as float nanoseconds, of the spans
// with the given name and phase.
func selfOf(spans []span, name, phase string) []float64 {
	self := selfTimes(spans)
	var out []float64
	for _, s := range spans {
		if s.Name == name && s.Phase == phase {
			out = append(out, float64(self[s.ID]))
		}
	}
	return out
}

// writeSpans writes one JSON object per line.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err = enc.Encode(&spans[i]); err != nil {
			break
		}
	}
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
