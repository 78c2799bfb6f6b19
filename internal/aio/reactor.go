package aio

import (
	"container/heap"
	"sync"
	"time"
)

// Reactor is the timer heap behind Sleep and SleepCancel: one goroutine
// that completes each sleep at its deadline. One reactor serves every
// runtime in the process. Reads and writes never reach it — each runs on
// a completer goroutine of its own (see the package doc).
//
// The reactor goroutine is started lazily by Default and runs for the
// life of the process: operations are rare enough at idle (the loop
// blocks on its wake channel when there is nothing pending) that tearing
// it down would only complicate the goroutine-leak story.
type Reactor struct {
	mu     sync.Mutex
	timers timerHeap
	wake   chan struct{}
}

var (
	defaultOnce    sync.Once
	defaultReactor *Reactor
)

// Default returns the process-wide reactor, starting it on first use.
func Default() *Reactor {
	defaultOnce.Do(func() {
		defaultReactor = newReactor()
		go defaultReactor.loop()
	})
	return defaultReactor
}

func newReactor() *Reactor {
	return &Reactor{wake: make(chan struct{}, 1)}
}

// wakeup nudges the loop out of its wait; duplicate nudges coalesce.
func (r *Reactor) wakeup() {
	select {
	case r.wake <- struct{}{}:
	default:
	}
}

// addTimer schedules o to complete at when.
func (r *Reactor) addTimer(o *op, when time.Time) {
	o.when = when
	r.mu.Lock()
	heap.Push(&r.timers, o)
	r.mu.Unlock()
	r.wakeup()
}

// removeTimer drops o from the heap if it is still queued — the
// cancel path's cleanup. Best-effort: an op the loop already popped
// (hidx == -1) is completing concurrently through the CAS election and
// needs no removal.
func (r *Reactor) removeTimer(o *op) {
	r.mu.Lock()
	if o.hidx >= 0 {
		heap.Remove(&r.timers, o.hidx)
	}
	r.mu.Unlock()
}

// loop is the reactor body: expire timers, sleep until the next deadline
// or wakeup.
func (r *Reactor) loop() {
	tm := time.NewTimer(time.Hour)
	defer tm.Stop()
	for {
		r.expireTimers(time.Now())

		d, block := r.nextWait(time.Now())
		if block {
			<-r.wake
			continue
		}
		if d <= 0 {
			continue
		}
		if !tm.Stop() {
			select {
			case <-tm.C:
			default:
			}
		}
		tm.Reset(d)
		select {
		case <-tm.C:
		case <-r.wake:
		}
	}
}

// nextWait computes how long the loop may sleep: until the next timer;
// block=true means no timer is pending and the loop should wait for a
// wakeup.
func (r *Reactor) nextWait(now time.Time) (d time.Duration, block bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.timers) == 0 {
		return 0, true
	}
	d = r.timers[0].when.Sub(now)
	if d < time.Microsecond {
		d = time.Microsecond
	}
	return d, false
}

// expireTimers completes every timer whose deadline has passed.
// Completion runs outside the lock: Unpark may spin briefly until the
// resumed-into pool's unit has parked, and the resumed unit may
// immediately issue another operation against this reactor.
func (r *Reactor) expireTimers(now time.Time) {
	var due []*op
	r.mu.Lock()
	for len(r.timers) > 0 && !r.timers[0].when.After(now) {
		due = append(due, heap.Pop(&r.timers).(*op))
	}
	r.mu.Unlock()
	for _, o := range due {
		o.complete(0, nil)
	}
}
