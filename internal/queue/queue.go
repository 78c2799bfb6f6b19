// Package queue provides the work-unit containers used by the runtime
// emulations: per-thread FIFO queues, owner-LIFO/thief-FIFO deques for work
// stealing, and a single shared MPMC queue modelling the global run queues
// of the Go scheduler and the gcc OpenMP task runtime.
//
// The paper repeatedly attributes performance artifacts to queue choice —
// the contention of Go's single shared queue (§III-F, §VI), the mutex
// protection MassiveThreads' steals require (§III-C), the per-thread
// queues plus stealing of the icc task runtime (§II.A) — so the containers
// here expose contention counters that tests and benchmarks can assert on.
//
// Two implementations exist for each container shape:
//
//   - The default FIFO (segmented ticket MPMC, fifo.go) and Deque
//     (Chase–Lev, chaselev.go) run the scheduling hot paths without locks:
//     owner-side deque operations are plain atomics, steals are a single
//     CAS, and pushes to the shared queue are one fetch-add.
//   - MutexFIFO and MutexDeque (this file) are the original mutex-guarded
//     containers. They remain the measured baseline for the lock-free
//     ablations and serve the one shape the lock-free deque cannot: fully
//     concurrent multi-producer bottom pushes plus PushTop reinsertion,
//     which the LIFO scheduling policy requires.
package queue

import (
	"sync"
	"sync/atomic"

	"repro/internal/ult"
)

// Stats aggregates container event counters. All fields are atomics and
// safe for concurrent use from any goroutine — the lock-free containers
// update them outside any critical section.
type Stats struct {
	// Pushes counts successful insertions.
	Pushes atomic.Uint64
	// Pops counts successful removals by the owner side.
	Pops atomic.Uint64

	// The owner-side counters above and the thief-side counters below
	// live on separate cache lines: spinning thieves bump Contended and
	// EmptyPops at full speed, and without the split every owner-side
	// push would pay a coherence miss on the shared line.
	_ [6]uint64

	// Steals counts successful removals by the thief side (deques only).
	Steals atomic.Uint64
	// Contended counts operations that did not succeed on the first
	// attempt: a mutex acquisition that had to wait (mutex containers) or
	// a CAS that lost a race (lock-free containers). Either way it is a
	// direct measure of queue contention.
	Contended atomic.Uint64
	// EmptyPops counts removal attempts that found the container empty.
	EmptyPops atomic.Uint64

	_ [5]uint64
}

// ContentionRatio reports contended operations per successful operation —
// the figure the paper's queue-contention arguments are about. For the
// lock-free containers the numerator is the CAS-failure count, so the
// ratio stays comparable across implementations.
func (s *Stats) ContentionRatio() float64 {
	ops := s.Pushes.Load() + s.Pops.Load() + s.Steals.Load()
	if ops == 0 {
		return 0
	}
	return float64(s.Contended.Load()) / float64(ops)
}

// Counts is a plain-value snapshot of Stats, safe to copy, sum across
// pools, and serialize — the export shape the serving tier's metrics
// ride (serve Metrics, Prometheus /metrics).
type Counts struct {
	// Pushes counts successful insertions.
	Pushes uint64 `json:"pushes"`
	// Pops counts successful owner-side removals.
	Pops uint64 `json:"pops"`
	// Steals counts successful thief-side removals.
	Steals uint64 `json:"steals"`
	// Contended counts first-attempt failures (lost CAS or waited lock).
	Contended uint64 `json:"contended"`
	// EmptyPops counts removal attempts that found the pool empty.
	EmptyPops uint64 `json:"empty_pops"`
	// Parks counts executors going to sleep after their spin budget of
	// empty polls (ult.ExecStats.Parks). Pools do not know it: Snapshot
	// leaves it zero and each runtime's SchedStats adds its executors'.
	Parks uint64 `json:"parks"`
}

// Snapshot reads the counters into a value. Each field is read with one
// atomic load; the snapshot is per-field consistent, not cross-field.
func (s *Stats) Snapshot() Counts {
	if s == nil {
		return Counts{}
	}
	return Counts{
		Pushes:    s.Pushes.Load(),
		Pops:      s.Pops.Load(),
		Steals:    s.Steals.Load(),
		Contended: s.Contended.Load(),
		EmptyPops: s.EmptyPops.Load(),
	}
}

// Plus returns the field-wise sum, for aggregating per-pool counts.
func (c Counts) Plus(o Counts) Counts {
	return Counts{
		Pushes:    c.Pushes + o.Pushes,
		Pops:      c.Pops + o.Pops,
		Steals:    c.Steals + o.Steals,
		Contended: c.Contended + o.Contended,
		EmptyPops: c.EmptyPops + o.EmptyPops,
		Parks:     c.Parks + o.Parks,
	}
}

// lockCounting acquires mu, bumping the contention counter when the lock
// was not immediately available.
func lockCounting(mu *sync.Mutex, st *Stats) {
	if mu.TryLock() {
		return
	}
	st.Contended.Add(1)
	mu.Lock()
}

// MutexFIFO is a mutex-protected first-in first-out work-unit queue — the
// original container behind the private per-thread pools, kept as the
// measured baseline for BenchmarkQueueOps.
//
// The zero value is an empty, usable queue.
type MutexFIFO struct {
	mu    sync.Mutex
	buf   []ult.Unit
	head  int
	count int
	stats Stats
}

// NewMutexFIFO returns an empty MutexFIFO with capacity preallocated for
// n units.
func NewMutexFIFO(n int) *MutexFIFO {
	return &MutexFIFO{buf: make([]ult.Unit, nextPow2(n))}
}

func nextPow2(n int) int {
	c := 8
	for c < n {
		c <<= 1
	}
	return c
}

// Push appends a unit to the tail.
func (q *MutexFIFO) Push(u ult.Unit) {
	lockCounting(&q.mu, &q.stats)
	q.grow()
	q.buf[(q.head+q.count)&(len(q.buf)-1)] = u
	q.count++
	q.stats.Pushes.Add(1)
	q.mu.Unlock()
}

// grow doubles the ring when full. Caller holds the lock.
func (q *MutexFIFO) grow() {
	if q.buf == nil {
		q.buf = make([]ult.Unit, 8)
		return
	}
	if q.count < len(q.buf) {
		return
	}
	nb := make([]ult.Unit, len(q.buf)*2)
	for i := 0; i < q.count; i++ {
		nb[i] = q.buf[(q.head+i)&(len(q.buf)-1)]
	}
	q.buf = nb
	q.head = 0
}

// Pop removes and returns the head unit, or nil if the queue is empty.
func (q *MutexFIFO) Pop() ult.Unit {
	lockCounting(&q.mu, &q.stats)
	defer q.mu.Unlock()
	if q.count == 0 {
		q.stats.EmptyPops.Add(1)
		return nil
	}
	u := q.buf[q.head]
	q.buf[q.head] = nil
	q.head = (q.head + 1) & (len(q.buf) - 1)
	q.count--
	q.stats.Pops.Add(1)
	return u
}

// Len reports the number of queued units.
func (q *MutexFIFO) Len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.count
}

// Stats exposes the queue's counters.
func (q *MutexFIFO) Stats() *Stats { return &q.stats }

// MutexDeque is a mutex-protected double-ended work-stealing queue: the
// owner pushes and pops at the bottom (LIFO, good locality for recursive
// work), thieves steal from the top (FIFO, oldest — typically largest —
// work). This is the structure the paper describes for MassiveThreads
// workers ("the steals require mutex protection", §III-C); the lock-free
// Deque is the alternative design point, and BenchmarkQueueOps quantifies
// what the mutex costs.
//
// Unlike the lock-free Deque, every operation is safe from any goroutine,
// and PushTop can reinsert a unit at the steal end — the two properties
// the LIFO scheduling policy needs (shared pools push from many streams;
// yielded units re-enter at the oldest position).
//
// The zero value is an empty, usable deque.
type MutexDeque struct {
	mu    sync.Mutex
	buf   []ult.Unit
	head  int // top: steal end
	count int
	stats Stats
}

// NewMutexDeque returns an empty deque with room for n units preallocated.
func NewMutexDeque(n int) *MutexDeque {
	return &MutexDeque{buf: make([]ult.Unit, nextPow2(n))}
}

// PushBottom inserts a unit at the owner end.
func (d *MutexDeque) PushBottom(u ult.Unit) {
	lockCounting(&d.mu, &d.stats)
	d.grow()
	d.buf[(d.head+d.count)&(len(d.buf)-1)] = u
	d.count++
	d.stats.Pushes.Add(1)
	d.mu.Unlock()
}

func (d *MutexDeque) grow() {
	if d.buf == nil {
		d.buf = make([]ult.Unit, 8)
		return
	}
	if d.count < len(d.buf) {
		return
	}
	nb := make([]ult.Unit, len(d.buf)*2)
	for i := 0; i < d.count; i++ {
		nb[i] = d.buf[(d.head+i)&(len(d.buf)-1)]
	}
	d.buf = nb
	d.head = 0
}

// PopBottom removes the most recently pushed unit (owner side), or nil.
func (d *MutexDeque) PopBottom() ult.Unit {
	lockCounting(&d.mu, &d.stats)
	defer d.mu.Unlock()
	if d.count == 0 {
		d.stats.EmptyPops.Add(1)
		return nil
	}
	i := (d.head + d.count - 1) & (len(d.buf) - 1)
	u := d.buf[i]
	d.buf[i] = nil
	d.count--
	d.stats.Pops.Add(1)
	return u
}

// PushBottomBatch inserts every unit in us at the owner end under one
// lock acquisition — the batch form of PushBottom.
func (d *MutexDeque) PushBottomBatch(us []ult.Unit) {
	if len(us) == 0 {
		return
	}
	lockCounting(&d.mu, &d.stats)
	for _, u := range us {
		d.grow()
		d.buf[(d.head+d.count)&(len(d.buf)-1)] = u
		d.count++
	}
	d.stats.Pushes.Add(uint64(len(us)))
	d.mu.Unlock()
}

// PushTop inserts a unit at the steal end — the oldest position. Used to
// requeue units that yielded, so newest-first owners do not redispatch
// the yielder immediately and starve the units it yielded to.
func (d *MutexDeque) PushTop(u ult.Unit) {
	lockCounting(&d.mu, &d.stats)
	d.grow()
	d.head = (d.head - 1) & (len(d.buf) - 1)
	d.buf[d.head] = u
	d.count++
	d.stats.Pushes.Add(1)
	d.mu.Unlock()
}

// StealTop removes the oldest unit (thief side), or nil.
func (d *MutexDeque) StealTop() ult.Unit {
	lockCounting(&d.mu, &d.stats)
	defer d.mu.Unlock()
	if d.count == 0 {
		d.stats.EmptyPops.Add(1)
		return nil
	}
	u := d.buf[d.head]
	d.buf[d.head] = nil
	d.head = (d.head + 1) & (len(d.buf) - 1)
	d.count--
	d.stats.Steals.Add(1)
	return u
}

// PopFront removes the oldest unit from the owner side (FIFO service order,
// used by runtimes that schedule their private pool in arrival order).
func (d *MutexDeque) PopFront() ult.Unit {
	lockCounting(&d.mu, &d.stats)
	defer d.mu.Unlock()
	if d.count == 0 {
		d.stats.EmptyPops.Add(1)
		return nil
	}
	u := d.buf[d.head]
	d.buf[d.head] = nil
	d.head = (d.head + 1) & (len(d.buf) - 1)
	d.count--
	d.stats.Pops.Add(1)
	return u
}

// Len reports the number of queued units.
func (d *MutexDeque) Len() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.count
}

// Stats exposes the deque's counters.
func (d *MutexDeque) Stats() *Stats { return &d.stats }
