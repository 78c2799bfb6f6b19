package aio

import (
	"sync"
	"sync/atomic"
	"time"
)

// op is one pending operation. Descriptors are pooled; the completion
// word is generation-counted exactly like the ult package's DoneAt so a
// recycled descriptor can never satisfy a stale wait: comp holds the
// generation at which the op completed, and each reuse bumps gen first.
//
// Ownership protocol: the issuing unit owns every plain field until the
// op is published (to the reactor under its mutex, or into a completion
// closure); after that exactly one completer calls complete() — the
// state CAS elects it — which publishes n/err, stores the completion
// word, and unparks. The issuer reclaims ownership when it observes
// doneAt(gen) and only then releases the descriptor back to the pool.
type op struct {
	parker Parker // nil in poll mode: completion without unpark

	gen  uint64        // bumped on each acquire (owner-side, pre-publication)
	comp atomic.Uint64 // == gen when this incarnation completed

	state atomic.Uint32 // 0 pending, 1 completed (single-completer election)

	// Results, published before the completion store.
	n   int
	err error

	// Timer waits: position in the reactor's heap.
	when time.Time
	hidx int

	// I/O waits: the bounded attempt (deadline set budget out) its
	// completer goroutine retries until it reports done.
	attempt func(budget time.Duration) (done bool, n int, err error)
}

// doneAt reports whether the incarnation issued at generation g has
// completed.
func (o *op) doneAt(g uint64) bool { return o.comp.Load() == g }

// complete publishes the result and wakes the waiter. The CAS elects a
// single completer; late or duplicate completions (a cancelled timer, a
// racing readiness path) are dropped. The parker is copied out before
// the completion store: after that store the waiter may observe
// completion, release the descriptor, and recycle it.
func (o *op) complete(n int, err error) {
	if !o.state.CompareAndSwap(0, 1) {
		return
	}
	p := o.parker
	o.n, o.err = n, err
	o.comp.Store(o.gen)
	if p != nil {
		p.Unpark()
	}
}

var opPool = sync.Pool{New: func() any { return new(op) }}

// acquire takes a pooled descriptor and opens a fresh incarnation.
func acquire(parker Parker) *op {
	o := opPool.Get().(*op)
	o.gen++
	o.state.Store(0)
	o.parker = parker
	o.n, o.err = 0, nil
	o.hidx = -1
	o.attempt = nil
	return o
}

// release recycles a descriptor whose completion the issuer has
// observed.
func release(o *op) {
	o.parker = nil
	o.attempt = nil
	opPool.Put(o)
}

// timerHeap is a min-heap of timer ops ordered by deadline.
type timerHeap []*op

func (h timerHeap) Len() int           { return len(h) }
func (h timerHeap) Less(i, j int) bool { return h[i].when.Before(h[j].when) }
func (h timerHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i]; h[i].hidx = i; h[j].hidx = j }
func (h *timerHeap) Push(x any)        { o := x.(*op); o.hidx = len(*h); *h = append(*h, o) }
func (h *timerHeap) Pop() any {
	old := *h
	n := len(old)
	o := old[n-1]
	old[n-1] = nil
	o.hidx = -1
	*h = old[:n-1]
	return o
}
