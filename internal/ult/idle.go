package ult

import (
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/trace"
)

// spinBudget is how many consecutive empty polls an executor yields
// through before it parks: a few microseconds, about what a park and its
// wake cost. An executor whose next unit arrives within it behaves as
// under a busy-wait policy; one that has gone a full budget without work
// costs nothing until the next push. It is one value for every runtime —
// and for the serving tier's shard pumps, which read it through
// SpinBudget — a variable rather than a constant only so the lost-wakeup
// stress test in internal/semantics can force it to 0; nothing else
// writes it.
var spinBudget uint32 = 64

// SpinBudget reports the idle policy's spin budget: how many empty polls
// a waiter yields through before it parks. Main-thread waiters outside
// the dispatch loops (the serving tier's shard pumps) spend the same
// budget before their own park, so one policy covers both.
func SpinBudget() uint32 { return spinBudget }

// Idler is one wake domain: the executors that pop from one pool (or from
// pools they may steal from each other) park on it, and every path that
// makes a unit runnable in that domain calls Wake after the push. The
// zero value is ready to use.
//
// An executor captures the epoch, polls for work once more, and parks only
// if the epoch has not moved since (Executor.Run's idle step): a push that lands
// after that last empty poll advances the epoch, so the park returns at
// once instead of sleeping through work.
type Idler struct {
	epoch    atomic.Uint64
	sleepers atomic.Int32
	mu       sync.Mutex
	cond     sync.Cond // L is bound to mu by the first park
	closed   atomic.Bool
}

// Wake advances the epoch and releases every parked executor. With nobody
// asleep it is one atomic add and one atomic load, so it can sit on every
// push path.
func (d *Idler) Wake() {
	d.epoch.Add(1)
	if d.sleepers.Load() == 0 {
		return
	}
	// A sleeper registers and checks the epoch under mu, so once mu is
	// ours it is either inside Wait (the broadcast reaches it) or it saw
	// the new epoch.
	d.mu.Lock()
	d.cond.Broadcast()
	d.mu.Unlock()
}

// Close is the domain's stop signal: it releases every sleeper for good,
// later parks return false without blocking, and the dispatch loops
// (Executor.Run) return at their next empty poll. Runtimes call it from
// Finalize.
func (d *Idler) Close() {
	d.mu.Lock()
	d.closed.Store(true)
	d.cond.Broadcast()
	d.mu.Unlock()
}

// Closed reports whether Close has been called.
func (d *Idler) Closed() bool { return d.closed.Load() }

// Epoch reads the wake epoch. A waiter outside the dispatch loops (the
// Converse master) captures it, polls once more, and parks on it with
// Park — the same order Executor.Run's idle step keeps.
func (d *Idler) Epoch() uint64 { return d.epoch.Load() }

// Park blocks until the epoch differs from the one captured, or Close. It
// reports false once the idler is closed.
func (d *Idler) Park(epoch uint64) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.cond.L == nil {
		d.cond.L = &d.mu
	}
	d.sleepers.Add(1)
	for d.epoch.Load() == epoch && !d.closed.Load() {
		d.cond.Wait()
	}
	d.sleepers.Add(-1)
	return !d.closed.Load()
}

// idle is the empty-poll step of the dispatch loop (Run) — the one idle
// policy all five runtimes share. Run calls it whenever its source came
// up empty and the domain is still open, and polls again when it
// returns. While under the spin budget the executor yields its OS thread
// so sibling executors progress. With the budget spent it captures d's
// epoch and returns for one last poll — so the epoch is always read
// before the attempt that decides to sleep, and a busy loop never reads
// it at all — and if that poll is empty too it opens the trace idle
// episode and parks until a push into the domain (or Close) moves the
// epoch. A dispatch restores the budget, and so does a park: the wake
// means work was pushed, even if a sibling wins it.
func (e *Executor) idle(d *Idler, bat *trace.Batcher) {
	e.stats.IdleSpins.Add(1)
	switch {
	case e.empties < spinBudget:
		e.empties++
		bat.Idle()
		runtime.Gosched()
	case e.empties == spinBudget:
		e.empties++
		e.epoch = d.epoch.Load()
	default:
		e.empties = 0
		bat.IdleNow()
		e.stats.Parks.Add(1)
		d.Park(e.epoch)
	}
}
