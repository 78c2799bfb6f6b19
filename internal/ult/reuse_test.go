package ult

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// settledGoroutines reports the goroutine count once collected garbage
// and runnable goroutines have settled.
func settledGoroutines() int {
	runtime.GC()
	runtime.Gosched()
	return runtime.NumGoroutine()
}

// A steady-state create/dispatch/free cycle reuses a pooled coroutine
// instead of starting a new one. The count may wobble by the handful of
// descriptors whose terminal release lags a beat behind Free, but it must
// not grow with the cycle count.
func TestCoroutineReuseKeepsGoroutinesFlat(t *testing.T) {
	e := NewExecutor(0)
	// Warm the freelist so the loop below runs recycled.
	for i := 0; i < 100; i++ {
		u := New(func(self *ULT) {})
		MarkReady(u)
		e.dispatch(u)
		if err := u.Free(); err != nil {
			t.Fatalf("warmup free: %v", err)
		}
	}
	base := settledGoroutines()
	const cycles = 10_000
	for i := 0; i < cycles; i++ {
		u := New(func(self *ULT) {})
		MarkReady(u)
		if res := e.dispatch(u); res != DispatchDone {
			t.Fatalf("cycle %d: dispatch = %v", i, res)
		}
		if err := u.Free(); err != nil {
			t.Fatalf("cycle %d: free: %v", i, err)
		}
	}
	after := settledGoroutines()
	if after > base+50 {
		t.Fatalf("goroutines grew from %d to %d across %d cycles", base, after, cycles)
	}
}

// A recycled descriptor's generation-counted completion word must answer
// for the new incarnation, not the old one.
func TestCompletionWordPerIncarnation(t *testing.T) {
	e := NewExecutor(0)
	u := New(func(self *ULT) {})
	MarkReady(u)
	e.dispatch(u)
	if !u.Done() {
		t.Fatal("completed unit not Done")
	}
	if err := u.Free(); err != nil {
		t.Fatal(err)
	}
	// Hunt the descriptor out of the freelist.
	var recycled *ULT
	for i := 0; i < 100 && recycled == nil; i++ {
		v := New(func(self *ULT) {})
		if v == u {
			recycled = v
		}
		runtime.Gosched()
	}
	if recycled == nil {
		t.Skip("descriptor not recycled; nothing to check")
	}
	if recycled.Done() {
		t.Fatal("fresh incarnation reports Done from the previous one")
	}
	MarkReady(recycled)
	e.dispatch(recycled)
	if !recycled.Done() {
		t.Fatal("second incarnation never published completion")
	}
}

// NewWith must run the package-level body with its argument, without the
// closure New would need.
func TestNewWithBody(t *testing.T) {
	e := NewExecutor(0)
	type payload struct{ hits int }
	p := &payload{}
	u := NewWith(func(self *ULT, arg any) {
		arg.(*payload).hits++
	}, p)
	MarkReady(u)
	if res := e.dispatch(u); res != DispatchDone {
		t.Fatalf("dispatch = %v", res)
	}
	if p.hits != 1 {
		t.Fatalf("body ran %d times, want 1", p.hits)
	}
	if err := u.Free(); err != nil {
		t.Fatal(err)
	}
}

// SetWaiter's contract: a successful registration runs the waiter exactly
// once on completion; registration after completion fails; a second
// waiter is refused.
func TestSetWaiterLifecycle(t *testing.T) {
	e := NewExecutor(0)
	var fired atomic.Int32
	u := New(func(self *ULT) {})
	w := &DoneWaiter{Fn: func(owner *Executor) {
		if owner != e {
			panic("waiter ran with the wrong executor")
		}
		fired.Add(1)
	}}
	if !u.SetWaiter(w) {
		t.Fatal("SetWaiter failed on a fresh unit")
	}
	if u.SetWaiter(&DoneWaiter{Fn: func(*Executor) {}}) {
		t.Fatal("second SetWaiter won an occupied slot")
	}
	MarkReady(u)
	e.dispatch(u)
	if fired.Load() != 1 {
		t.Fatalf("waiter fired %d times, want 1", fired.Load())
	}
	if u.SetWaiter(w) {
		t.Fatal("SetWaiter succeeded after completion")
	}
}

// The parking join end to end: a joiner suspends in the target's slot and
// the finishing unit resumes it.
func TestParkingJoinResumesJoiner(t *testing.T) {
	e := NewExecutor(0)
	queue := make(chan *ULT, 4)

	target := New(func(self *ULT) {})
	var joined atomic.Bool
	joiner := New(func(self *ULT) {
		if target.Done() {
			joined.Store(true)
			return
		}
		w := &DoneWaiter{Fn: func(*Executor) {
			ResumeAndRequeue(self, func(j *ULT) { queue <- j })
		}}
		if target.SetWaiter(w) {
			self.Suspend()
		}
		if !target.Done() {
			panic("resumed before target completion")
		}
		joined.Store(true)
	})
	MarkReady(joiner)
	MarkReady(target)

	if res := e.dispatch(joiner); res != DispatchBlocked {
		t.Fatalf("joiner dispatch = %v, want blocked", res)
	}
	if res := e.dispatch(target); res != DispatchDone {
		t.Fatalf("target dispatch = %v, want done", res)
	}
	select {
	case j := <-queue:
		if res := e.dispatch(j); res != DispatchDone {
			t.Fatalf("redispatch = %v, want done", res)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("finishing unit never requeued the joiner")
	}
	if !joined.Load() {
		t.Fatal("joiner did not complete")
	}
}

// Tasklets carry the same park slot; the waiter runs on the executor that
// runs the tasklet inline.
func TestTaskletSetWaiter(t *testing.T) {
	e := NewExecutor(7)
	var fired atomic.Int32
	tk := NewTasklet(func() {})
	if !tk.SetWaiter(&DoneWaiter{Fn: func(owner *Executor) {
		if owner.ID() != 7 {
			panic("wrong executor")
		}
		fired.Add(1)
	}}) {
		t.Fatal("SetWaiter failed on a fresh tasklet")
	}
	MarkReady(tk)
	if !e.RunTasklet(tk) {
		t.Fatal("tasklet refused to run")
	}
	if fired.Load() != 1 {
		t.Fatalf("waiter fired %d times, want 1", fired.Load())
	}
}

// DoneChan after completion returns the shared pre-closed channel without
// allocating; before completion it allocates one channel that finish
// closes.
func TestDoneChanLazyAllocation(t *testing.T) {
	e := NewExecutor(0)
	u := New(func(self *ULT) {})
	ch := u.DoneChan()
	select {
	case <-ch:
		t.Fatal("waiter channel closed before completion")
	default:
	}
	MarkReady(u)
	e.dispatch(u)
	select {
	case <-ch:
	case <-time.After(2 * time.Second):
		t.Fatal("waiter channel never closed")
	}
	// Post-completion calls share the sealed channel.
	if u.DoneChan() != u.DoneChan() {
		t.Fatal("post-completion DoneChan not stable")
	}
}

// An unpooled unit dispatched through a YieldTo hint must stay in the
// recycling economy: the hint leaves no stale pool entry behind, so the
// work-first creation pattern remains spawn-free.
func TestUnpooledHintKeepsDescriptorRecyclable(t *testing.T) {
	e := NewExecutor(0)
	for i := 0; i < 50; i++ {
		var target *ULT
		creator := New(func(self *ULT) {
			target = New(func(*ULT) {})
			target.MarkUnpooled()
			MarkReady(target)
			self.YieldTo(target)
		})
		MarkReady(creator)
		if res := e.dispatch(creator); res != DispatchYielded {
			t.Fatalf("creator dispatch = %v", res)
		}
		if _, h, ok := e.dispatchHint(); !ok || h != target {
			t.Fatal("hint did not dispatch the unpooled target")
		}
		if target.noRecycle.Load() {
			t.Fatal("unpooled hint dispatch poisoned recycling")
		}
		e.dispatch(creator) // run the creator to completion
		if err := target.Free(); err != nil {
			t.Fatalf("target free: %v", err)
		}
		if err := creator.Free(); err != nil {
			t.Fatalf("creator free: %v", err)
		}
	}
}

// A pooled unit dispatched through a hint must still be poisoned: its
// stale pool entry relies on claim() failing against this incarnation
// forever.
func TestPooledHintStillPoisonsRecycling(t *testing.T) {
	e := NewExecutor(0)
	var target *ULT
	creator := New(func(self *ULT) {
		target = New(func(*ULT) {})
		MarkReady(target) // conceptually pooled: no MarkUnpooled promise
		self.YieldTo(target)
	})
	MarkReady(creator)
	e.dispatch(creator)
	if _, _, ok := e.dispatchHint(); !ok {
		t.Fatal("hint not dispatched")
	}
	if !target.noRecycle.Load() {
		t.Fatal("pooled hint dispatch did not poison recycling")
	}
	e.dispatch(creator)
}
