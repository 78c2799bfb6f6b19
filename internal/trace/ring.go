package trace

import (
	"sync/atomic"
	"time"
)

// slot is one fixed-size ring entry. Every field is an atomic word so a
// writer publishes without locks and a concurrent reader's loads are
// race-free; consistency comes from the seq protocol, not from the
// individual fields.
//
// seq encodes the slot's state: 0 = never written, odd (2c+1) = claim c
// is being written, even (2c+2) = claim c is published. A reader
// accepts a slot only when it observes the same even seq before and
// after loading the fields.
type slot struct {
	seq   atomic.Uint64
	word  atomic.Uint64 // kind (low 8 bits) | label code (next 16 bits)
	unit  atomic.Uint64
	start atomic.Int64 // ns since the recorder's epoch
	dur   atomic.Int64 // ns; 0 for instants
}

// Ring is one bounded event lane of the flight recorder. An executor
// loop acquires a ring for its lifetime (Recorder.Ring) and is its only
// writer — the Chase–Lev shape: the cursor is owner-local, so claiming
// a slot costs two plain atomic stores, no interlocked instruction.
// Serve's request lanes (Recorder.SharedRing) are written by whichever
// executor completes a request; there a fetch-add claims the slot and a
// CAS takes ownership. Both paths publish with the same seq protocol
// and overwrite the oldest entry once the ring has wrapped.
//
// All methods are safe on a nil *Ring and do nothing — a disabled
// recorder hands out nil rings, so instrumentation sites need no
// configuration checks beyond the pointer they already hold.
type Ring struct {
	rec  *Recorder
	name string
	exec int
	mw   bool // multi-writer: claim via fetch-add + CAS instead of owner-local stores

	// cursor is the next claim index, monotonic over the ring's life.
	// It sits alone on its cache line: every writer bumps it, and the
	// slots after it must not share the line.
	_      [7]uint64
	cursor atomic.Uint64
	_      [7]uint64

	// dropped counts abandoned emits: a writer that stalled long enough
	// to be lapped a full ring finds its claimed slot re-claimed and
	// gives the event up rather than corrupt the newer entry.
	dropped atomic.Uint64

	mask  uint64
	slots []slot
}

// Name reports the lane name the ring was acquired under.
func (r *Ring) Name() string {
	if r == nil {
		return ""
	}
	return r.name
}

// Exec reports the executor identifier the ring was acquired under.
func (r *Ring) Exec() int {
	if r == nil {
		return 0
	}
	return r.exec
}

// Now returns the recorder's monotonic clock reading in nanoseconds —
// the start argument Interval expects. 0 on a nil ring.
func (r *Ring) Now() int64 {
	if r == nil {
		return 0
	}
	return r.rec.Now()
}

// Instant records a zero-duration event.
func (r *Ring) Instant(k Kind, unit uint64) {
	if r == nil {
		return
	}
	r.emit(k, unit, r.rec.Now(), 0, 0)
}

// Interval records an event spanning from start (a Now reading taken
// when the interval began) to the present.
func (r *Ring) Interval(k Kind, unit uint64, start int64) {
	if r == nil {
		return
	}
	now := r.rec.Now()
	r.emit(k, unit, start, now-start, 0)
}

// EmitAt records an event from wall-clock values the caller already
// holds (a time.Time taken at interval start, a measured duration)
// without reading the clock again — the zero-extra-cost path for sites
// that time the interval anyway.
func (r *Ring) EmitAt(k Kind, unit uint64, start time.Time, dur time.Duration) {
	if r == nil {
		return
	}
	r.emit(k, unit, int64(start.Sub(r.rec.epoch)), int64(dur), 0)
}

// Emit records a fully specified event: start and dur in nanoseconds on
// the recorder's clock, label an interned code or 0.
func (r *Ring) Emit(k Kind, unit uint64, start, dur int64, label uint16) {
	if r == nil {
		return
	}
	r.emit(k, unit, start, dur, label)
}

// emit is the hot path: claim, own, publish.
func (r *Ring) emit(k Kind, unit uint64, start, dur int64, label uint16) {
	var c uint64
	var s *slot
	if r.mw {
		c = r.cursor.Add(1) - 1
		s = &r.slots[c&r.mask]
		// Take ownership of the slot: its seq must still be whatever
		// state the previous lap left (even or zero). A failed CAS means
		// another writer lapped us — a full ring of events passed while
		// this emit was stalled — and the newer claim owns the slot;
		// abandoning the event keeps published slots consistent (a
		// reader can never decode a half-A-half-B entry).
		old := s.seq.Load()
		if old%2 == 1 || old > 2*c || !s.seq.CompareAndSwap(old, 2*c+1) {
			r.dropped.Add(1)
			return
		}
	} else {
		// Owner-local claim: only this goroutine advances the cursor, so
		// a load + store replaces the interlocked fetch-add, and the odd
		// seq store alone fences concurrent readers off the slot.
		c = r.cursor.Load()
		r.cursor.Store(c + 1)
		s = &r.slots[c&r.mask]
		s.seq.Store(2*c + 1)
	}
	s.word.Store(uint64(uint8(k)) | uint64(label)<<8)
	s.unit.Store(unit)
	s.start.Store(start)
	s.dur.Store(dur)
	s.seq.Store(2*c + 2)
}

// Dropped reports abandoned emits (writers lapped mid-write). Under
// sane load this stays 0; a growing count means the ring is far too
// small for the event rate.
func (r *Ring) Dropped() uint64 {
	if r == nil {
		return 0
	}
	return r.dropped.Load()
}

// Written reports total claims over the ring's life; min(Written, size)
// entries are currently retained.
func (r *Ring) Written() uint64 {
	if r == nil {
		return 0
	}
	return r.cursor.Load()
}

// reset clears the ring for reuse by a new owner: stale entries from
// the previous lane must not decode under the new lane's name.
func (r *Ring) reset(name string, exec int) {
	r.name = name
	r.exec = exec
	r.cursor.Store(0)
	r.dropped.Store(0)
	for i := range r.slots {
		r.slots[i].seq.Store(0)
	}
}

// decoded is one consistently read slot plus its claim order.
type decoded struct {
	order uint64
	ev    Event
}

// snapshot decodes every published slot that can be read consistently,
// in claim order. Torn slots (a writer racing the read) are skipped —
// the next snapshot will see them published.
func (r *Ring) snapshot() []decoded {
	if r == nil {
		return nil
	}
	out := make([]decoded, 0, len(r.slots))
	for i := range r.slots {
		s := &r.slots[i]
		s1 := s.seq.Load()
		if s1 == 0 || s1%2 == 1 {
			continue
		}
		word := s.word.Load()
		unit := s.unit.Load()
		start := s.start.Load()
		dur := s.dur.Load()
		if s.seq.Load() != s1 {
			continue // overwritten mid-read
		}
		k := Kind(word & 0xFF)
		if int(k) >= numKinds || dur < 0 {
			continue // implausible decode; treat as torn
		}
		out = append(out, decoded{
			order: (s1 - 2) / 2,
			ev: Event{
				Lane:  r.name,
				Exec:  r.exec,
				Kind:  k,
				Unit:  unit,
				Start: r.rec.epoch.Add(time.Duration(start)),
				Dur:   time.Duration(dur),
				Label: labelName(uint16(word >> 8)),
			},
		})
	}
	return out
}
