package ult

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// chanQueue is a Source over a buffered channel: safe to push from any
// goroutine (resumers, waiters), popped by the executors that step it.
type chanQueue chan *ULT

func (q chanQueue) push(t *ULT) { q <- t }

func (q chanQueue) source() Source {
	return Source{
		Next: func() Unit {
			select {
			case t := <-q:
				return t
			default:
				return nil
			}
		},
		Requeue: q.push,
	}
}

// joinVia is a parking join in the shape the runtimes use after a direct
// switch: requeue a joinee that yielded back, then park in its waiter slot
// until the finishing unit resumes the joiner into q.
func joinVia(self, target *ULT, q chanQueue) DispatchResult {
	res := self.DispatchFrom(target)
	if res == DispatchYielded {
		q.push(target)
	}
	for !target.Done() {
		if ParkJoinStep(self, target, func(j *ULT, _ *Executor) { q.push(j) }) {
			break
		}
	}
	return res
}

// stepUntil steps e over q until done reports true, failing the test if
// that takes longer than a generous watchdog.
func stepUntil(t *testing.T, e *Executor, q chanQueue, done func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	src := q.source()
	for !done() {
		if !e.Step(src, nil) {
			if time.Now().After(deadline) {
				t.Fatal("units did not finish")
			}
			runtime.Gosched()
		}
	}
}

// A joinee that yields from a direct switch hands control back to its
// joiner, not to the scheduler; the joiner requeues it, parks, and returns
// only once the joinee completed.
func TestDispatchFromYieldingJoinee(t *testing.T) {
	e := NewExecutor(0)
	q := make(chanQueue, 8)
	var order []string
	target := New(func(self *ULT) {
		order = append(order, "target-1")
		self.Yield()
		order = append(order, "target-2")
	})
	joiner := New(func(self *ULT) {
		if res := joinVia(self, target, q); res != DispatchYielded {
			panic("direct switch to a yielding joinee did not report a yield")
		}
		if !target.Done() {
			panic("joiner returned before the joinee completed")
		}
		order = append(order, "joiner")
	})
	MarkReady(joiner)
	MarkReady(target)
	q.push(joiner)
	q.push(target)
	stepUntil(t, e, q, joiner.Done)
	want := []string{"target-1", "target-2", "joiner"}
	if len(order) != len(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
	if target.Owner() != e {
		t.Fatal("joinee did not run on the joiner's executor")
	}
}

// A joinee that blocks (a timed sleep resumed from another goroutine)
// leaves the joiner parked until the joinee is resumed and finishes.
func TestDispatchFromBlockedJoinee(t *testing.T) {
	e := NewExecutor(0)
	q := make(chanQueue, 8)
	var slept atomic.Bool
	target := New(func(self *ULT) {
		go func() {
			time.Sleep(time.Millisecond)
			ResumeAndRequeue(self, q.push)
		}()
		self.Suspend()
		slept.Store(true)
	})
	var sawSlept bool
	joiner := New(func(self *ULT) {
		if res := joinVia(self, target, q); res != DispatchBlocked {
			panic("direct switch to a sleeping joinee did not report a block")
		}
		sawSlept = slept.Load()
	})
	MarkReady(joiner)
	MarkReady(target)
	q.push(joiner)
	stepUntil(t, e, q, joiner.Done)
	if !sawSlept {
		t.Fatal("joiner returned before the joinee woke and finished")
	}
}

// A joinee that panics completes with the panic as its error, and the
// joiner carries on from the direct switch.
func TestDispatchFromPanickingJoinee(t *testing.T) {
	e := NewExecutor(0)
	q := make(chanQueue, 8)
	target := New(func(*ULT) { panic("boom") })
	var after bool
	joiner := New(func(self *ULT) {
		if res := self.DispatchFrom(target); res != DispatchDone {
			panic("panicking joinee did not complete")
		}
		after = true
	})
	MarkReady(joiner)
	MarkReady(target)
	q.push(joiner)
	stepUntil(t, e, q, joiner.Done)
	if !after {
		t.Fatal("joiner did not carry on after the joinee panicked")
	}
	if target.Err() == nil {
		t.Fatal("joinee's panic was not recorded")
	}
	if joiner.Err() != nil {
		t.Fatalf("joiner inherited an error: %v", joiner.Err())
	}
}

// A 20-deep chain of joiners, each direct-switching to the next, whose
// leaf yields once: the yield unwinds every level into a parked join,
// and the leaf's completion resumes them one by one.
func TestDispatchFromNestedChain(t *testing.T) {
	const depth = 20
	e := NewExecutor(0)
	q := make(chanQueue, 4*depth)
	var finished atomic.Int32
	var level func(k int) *ULT
	level = func(k int) *ULT {
		return New(func(self *ULT) {
			if k == depth {
				self.Yield()
			} else {
				child := level(k + 1)
				MarkReady(child)
				q.push(child)
				joinVia(self, child, q)
				if !child.Done() {
					panic("join returned before the child completed")
				}
			}
			finished.Add(1)
		})
	}
	root := level(1)
	MarkReady(root)
	q.push(root)
	stepUntil(t, e, q, root.Done)
	if got := finished.Load(); got != depth {
		t.Fatalf("%d of %d levels finished", got, depth)
	}
}

// A direct switch leaves the joinee's pool entry stale: a later pop finds
// the unit no longer Ready and skips it without dispatching, and the
// descriptor is kept out of the reuse pool, so the stale pointer can
// never claim a later incarnation.
func TestDispatchFromStaleEntrySkippedNeverRecycled(t *testing.T) {
	e := NewExecutor(0)
	q := make(chanQueue, 8)
	target := New(func(*ULT) {})
	joiner := New(func(self *ULT) { self.DispatchFrom(target) })
	MarkReady(joiner)
	MarkReady(target)
	q.push(joiner)
	q.push(target) // the entry the direct switch leaves stale
	src := q.source()
	if !e.Step(src, nil) || !joiner.Done() || !target.Done() {
		t.Fatal("direct switch did not run both units")
	}
	dispatches := e.Stats().Dispatches.Load()
	if !e.Step(src, nil) {
		t.Fatal("stale entry not popped")
	}
	if got := e.Stats().Dispatches.Load(); got != dispatches {
		t.Fatalf("stale entry dispatched (%d -> %d dispatches)", dispatches, got)
	}
	if e.Step(src, nil) {
		t.Fatal("queue not empty after the stale entry")
	}
	if !target.noRecycle.Load() {
		t.Fatal("direct-switched descriptor left recyclable")
	}
	if err := target.Free(); err != nil {
		t.Fatal(err)
	}
	if err := joiner.Free(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2*ultFreeCap/64; i++ {
		if u := New(func(*ULT) {}); u == target {
			t.Fatal("direct-switched descriptor was recycled")
		}
	}
}

// Hammer the publish-after-switch rule: every suspend hands the unit to
// a resumer goroutine that requeues it at once, racing the switch back
// to the executor, while two executors step the shared queue. A Blocked
// status published before the unit is off its coroutine lets the other
// executor resume the coroutine while it is still running.
func TestSuspendResumeHammer(t *testing.T) {
	for _, procs := range []int{1, runtime.GOMAXPROCS(0)} {
		prev := runtime.GOMAXPROCS(procs)
		hammerSuspendResume(t)
		runtime.GOMAXPROCS(prev)
	}
}

func hammerSuspendResume(t *testing.T) {
	const units, rounds = 32, 100
	q := make(chanQueue, 2*units)
	resumer := make(chan *ULT, units)
	var done, overlaps atomic.Int32
	for i := 0; i < units; i++ {
		var running atomic.Int32 // this unit's concurrent runs
		u := New(func(self *ULT) {
			for r := 0; r < rounds; r++ {
				if running.Add(1) != 1 {
					overlaps.Add(1)
				}
				running.Add(-1)
				resumer <- self
				self.Suspend()
			}
			done.Add(1)
		})
		MarkReady(u)
		q.push(u)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case u := <-resumer:
				ResumeAndRequeue(u, q.push)
			case <-stop:
				return
			}
		}
	}()
	var failed atomic.Bool
	for x := 0; x < 2; x++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			e := NewExecutor(id)
			src := q.source()
			deadline := time.Now().Add(10 * time.Second)
			for done.Load() < units {
				if !e.Step(src, nil) {
					if time.Now().After(deadline) {
						failed.Store(true)
						return
					}
					runtime.Gosched()
				}
			}
		}(x)
	}
	for done.Load() < units && !failed.Load() {
		time.Sleep(time.Millisecond)
	}
	close(stop)
	wg.Wait()
	if failed.Load() {
		t.Fatalf("%d of %d units finished before the watchdog", done.Load(), units)
	}
	if n := overlaps.Load(); n != 0 {
		t.Fatalf("%d overlapping runs of one unit", n)
	}
}
