// Package barrier implements the synchronization barriers whose costs the
// paper measures: the central (mutex + condition variable) barrier used by
// gcc OpenMP and Converse Threads — whose join time grows linearly with
// the number of threads (Figure 3) — and a sense-reversing spin barrier as
// the cheaper alternative for active wait policies.
package barrier

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// spinYield gives the Go scheduler a chance to run sibling goroutines
// while a spin barrier busy-waits.
func spinYield() { runtime.Gosched() }

// Barrier is a reusable rendezvous for a fixed number of participants.
type Barrier interface {
	// Wait blocks until all participants have arrived, then releases
	// them. The barrier resets automatically for the next round.
	Wait()
	// Parties reports the number of participants.
	Parties() int
}

// Central is a mutex/condvar barrier with generation counting. Every
// arrival serializes on one lock, which is what makes its cost linear in
// the participant count.
type Central struct {
	mu      sync.Mutex
	cond    *sync.Cond
	parties int
	waiting int
	gen     uint64
	// Arrivals counts total Wait calls, for tests and overhead studies.
	Arrivals atomic.Uint64
}

// NewCentral returns a central barrier for n participants. It panics if
// n < 1.
func NewCentral(n int) *Central {
	if n < 1 {
		panic("barrier: need at least one participant")
	}
	b := &Central{parties: n}
	b.cond = sync.NewCond(&b.mu)
	return b
}

// Wait implements Barrier.
func (b *Central) Wait() {
	b.Arrivals.Add(1)
	b.mu.Lock()
	gen := b.gen
	b.waiting++
	if b.waiting == b.parties {
		b.waiting = 0
		b.gen++
		b.mu.Unlock()
		b.cond.Broadcast()
		return
	}
	for gen == b.gen {
		b.cond.Wait()
	}
	b.mu.Unlock()
}

// Parties implements Barrier.
func (b *Central) Parties() int { return b.parties }

// Spin is a sense-reversing spin barrier: arrivals decrement an atomic
// counter and spin on a global sense flag. No lock is taken, so it scales
// better than Central while burning CPU — the trade the OMP_WAIT_POLICY
// active setting makes.
type Spin struct {
	parties int32
	count   atomic.Int32
	sense   atomic.Uint32
}

// NewSpin returns a spin barrier for n participants. It panics if n < 1.
func NewSpin(n int) *Spin {
	if n < 1 {
		panic("barrier: need at least one participant")
	}
	b := &Spin{parties: int32(n)}
	b.count.Store(int32(n))
	return b
}

// Wait implements Barrier.
func (b *Spin) Wait() {
	sense := b.sense.Load()
	if b.count.Add(-1) == 0 {
		b.count.Store(b.parties)
		b.sense.Add(1)
		return
	}
	for b.sense.Load() == sense {
		// Busy wait; the scheduler point keeps the spin from starving
		// sibling goroutines on oversubscribed machines.
		spinYield()
	}
}

// Parties implements Barrier.
func (b *Spin) Parties() int { return int(b.parties) }
