package queue

import (
	"sync/atomic"

	"repro/internal/ult"
)

// segShift sets the segment size of the lock-free FIFO: 512 cells per
// segment keeps the amortized allocation cost to a few bytes per push
// (one ~12 KiB segment per 512 pushes) while bounding the memory a
// bursty producer pins.
const (
	segShift = 9
	segSize  = 1 << segShift
)

// fifoCell is one single-use slot of a segment. The unit field is a plain
// interface value: the producer publishes it with the release store on
// ready, and the unique consumer (the winner of the head CAS) reads it
// after the acquire load of ready, so the access is fully synchronized
// without boxing the unit behind an extra pointer.
type fifoCell struct {
	ready atomic.Uint32
	u     ult.Unit
}

// fifoSeg is a fixed block of consecutive queue positions
// [base, base+segSize). Segments are used exactly once and abandoned to
// the garbage collector when consumed, which is what makes the queue
// ABA-free: a position, and hence a cell, is never reused.
type fifoSeg struct {
	base  uint64
	next  atomic.Pointer[fifoSeg]
	cells [segSize]fifoCell
}

// FIFO is a lock-free, unbounded, multi-producer multi-consumer
// first-in first-out work-unit queue — the container behind the private
// per-thread pools and the global shared queues of the Go-scheduler and
// gcc-OpenMP models.
//
// Producers claim a position with one fetch-add and publish into the
// owning segment's cell; consumers claim the head position with a CAS.
// Order is the ticket order of the fetch-add, i.e. strict arrival order.
// A consumer that observes the head cell claimed-but-unpublished treats
// the queue as momentarily empty rather than spinning on the producer.
//
// The zero value is an empty, usable queue.
type FIFO struct {
	// head is CAS-claimed by consumers, tail fetch-added by producers;
	// padding keeps the two ends on separate cache lines.
	head    atomic.Uint64 // next position to pop
	_       [7]uint64
	tail    atomic.Uint64 // next position to push (ticket counter)
	_       [7]uint64
	headSeg atomic.Pointer[fifoSeg]
	tailSeg atomic.Pointer[fifoSeg] // hint near the tail; may lag
	stats   Stats
}

// NewFIFO returns an empty FIFO with its first segment preallocated.
// The argument is accepted for signature compatibility with the mutex
// containers; segments have a fixed size.
func NewFIFO(n int) *FIFO {
	q := &FIFO{}
	q.reserve()
	return q
}

// reserve installs the first segment so the first push does not pay the
// installation CAS.
func (q *FIFO) reserve() {
	q.headSeg.CompareAndSwap(nil, &fifoSeg{})
}

// firstSeg returns the segment chain's root, installing it on first use
// (zero-value queues).
func (q *FIFO) firstSeg() *fifoSeg {
	if s := q.headSeg.Load(); s != nil {
		return s
	}
	q.reserve()
	return q.headSeg.Load()
}

// segFor walks to the segment containing pos, installing missing
// segments along the way. start must be a segment with base <= pos whose
// chain is intact, which both headSeg (never advanced past the head) and
// a base-checked tailSeg hint guarantee.
func (q *FIFO) segFor(start *fifoSeg, pos uint64) *fifoSeg {
	s := start
	for s.base+segSize <= pos {
		next := s.next.Load()
		if next == nil {
			fresh := &fifoSeg{base: s.base + segSize}
			if !s.next.CompareAndSwap(nil, fresh) {
				next = s.next.Load()
			} else {
				next = fresh
			}
		}
		s = next
	}
	return s
}

// Push appends a unit to the tail.
func (q *FIFO) Push(u ult.Unit) {
	pos := q.tail.Add(1) - 1
	start := q.tailSeg.Load()
	if start == nil || start.base > pos {
		start = q.firstSeg()
	}
	s := q.segFor(start, pos)
	// Advance the tail hint; losing the CAS just means another producer
	// installed an equally good or better hint.
	if hint := q.tailSeg.Load(); hint == nil || hint.base < s.base {
		q.tailSeg.CompareAndSwap(hint, s)
	}
	c := &s.cells[pos-s.base]
	c.u = u
	c.ready.Store(1)
	q.stats.Pushes.Add(1)
}

// PushBatch appends every unit in us with a single multi-ticket
// reservation: one fetch-add claims len(us) consecutive cells, then the
// producer publishes into them in order. Consumers already treat a
// claimed-but-unpublished head cell as momentarily empty, so the batch
// needs no extra synchronization; the per-unit cost drops to one cell
// publication (the bulk-creation path of the loop and task figures).
func (q *FIFO) PushBatch(us []ult.Unit) {
	n := uint64(len(us))
	if n == 0 {
		return
	}
	pos := q.tail.Add(n) - n
	start := q.tailSeg.Load()
	if start == nil || start.base > pos {
		start = q.firstSeg()
	}
	s := q.segFor(start, pos)
	for i, u := range us {
		p := pos + uint64(i)
		if p >= s.base+segSize {
			s = q.segFor(s, p)
		}
		c := &s.cells[p-s.base]
		c.u = u
		c.ready.Store(1)
	}
	if hint := q.tailSeg.Load(); hint == nil || hint.base < s.base {
		q.tailSeg.CompareAndSwap(hint, s)
	}
	q.stats.Pushes.Add(n)
}

// Pop removes the oldest unit, or returns nil if the queue is empty (or
// the unit at the head has been claimed by a producer that has not yet
// published it).
func (q *FIFO) Pop() ult.Unit {
	for {
		pos := q.head.Load()
		if pos >= q.tail.Load() {
			q.stats.EmptyPops.Add(1)
			return nil
		}
		s := q.firstSeg()
		if s.base > pos {
			// The root advanced past pos: other consumers already moved
			// the head beyond our snapshot, so the CAS below would fail
			// anyway. Reload and retry.
			q.stats.Contended.Add(1)
			continue
		}
		s = q.segFor(s, pos)
		c := &s.cells[pos-s.base]
		if c.ready.Load() == 0 {
			q.stats.EmptyPops.Add(1)
			return nil
		}
		if !q.head.CompareAndSwap(pos, pos+1) {
			q.stats.Contended.Add(1)
			continue
		}
		u := c.u
		c.u = nil // release the unit before the segment is abandoned
		if pos+1-s.base == segSize {
			q.advanceRoot()
		}
		q.stats.Pops.Add(1)
		return u
	}
}

// advanceRoot drops fully consumed segments from the chain root so the
// garbage collector can reclaim them. It catches the root up to the
// segment containing the head, which keeps the root at most a couple of
// segments behind even when boundary-crossing pops race.
func (q *FIFO) advanceRoot() {
	for {
		hs := q.headSeg.Load()
		if hs == nil || q.head.Load() < hs.base+segSize {
			return
		}
		next := hs.next.Load()
		if next == nil {
			return
		}
		q.headSeg.CompareAndSwap(hs, next)
	}
}

// Len reports the number of queued units (approximate under concurrency).
func (q *FIFO) Len() int {
	t := q.tail.Load()
	h := q.head.Load()
	if h >= t {
		return 0
	}
	return int(t - h)
}

// Stats exposes the queue's counters.
func (q *FIFO) Stats() *Stats { return &q.stats }
