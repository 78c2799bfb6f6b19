package ult

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestULTRunsToCompletion(t *testing.T) {
	e := NewExecutor(0)
	ran := false
	u := New(func(self *ULT) { ran = true })
	MarkReady(u)
	if res := e.dispatch(u); res != DispatchDone {
		t.Fatalf("Dispatch = %v, want DispatchDone", res)
	}
	if !ran {
		t.Fatal("ULT body did not run")
	}
	if !u.Done() {
		t.Fatalf("status = %v, want done", u.Status())
	}
	select {
	case <-u.DoneChan():
	default:
		t.Fatal("DoneChan not closed after completion")
	}
}

func TestULTStatusLifecycle(t *testing.T) {
	u := New(func(self *ULT) {})
	if got := u.Status(); got != StatusCreated {
		t.Fatalf("fresh ULT status = %v, want created", got)
	}
	MarkReady(u)
	if got := u.Status(); got != StatusReady {
		t.Fatalf("after MarkReady status = %v, want ready", got)
	}
	e := NewExecutor(0)
	e.dispatch(u)
	if got := u.Status(); got != StatusDone {
		t.Fatalf("after dispatch status = %v, want done", got)
	}
}

func TestDispatchSkipsUnclaimable(t *testing.T) {
	e := NewExecutor(0)
	u := New(func(self *ULT) {})
	// Never marked ready: claim must fail.
	if res := e.dispatch(u); res != DispatchSkipped {
		t.Fatalf("Dispatch of created-only ULT = %v, want skipped", res)
	}
	MarkReady(u)
	if res := e.dispatch(u); res != DispatchDone {
		t.Fatalf("Dispatch = %v, want done", res)
	}
	// Done units are also unclaimable.
	if res := e.dispatch(u); res != DispatchSkipped {
		t.Fatalf("re-Dispatch of done ULT = %v, want skipped", res)
	}
}

func TestYieldReturnsControl(t *testing.T) {
	e := NewExecutor(0)
	steps := 0
	u := New(func(self *ULT) {
		steps++
		self.Yield()
		steps++
		self.Yield()
		steps++
	})
	MarkReady(u)
	for i := 0; i < 2; i++ {
		if res := e.dispatch(u); res != DispatchYielded {
			t.Fatalf("dispatch %d = %v, want yielded", i, res)
		}
		if got := u.Status(); got != StatusReady {
			t.Fatalf("after yield status = %v, want ready", got)
		}
	}
	if res := e.dispatch(u); res != DispatchDone {
		t.Fatalf("final dispatch = %v, want done", res)
	}
	if steps != 3 {
		t.Fatalf("steps = %d, want 3", steps)
	}
	if got := e.Stats().Yields.Load(); got != 2 {
		t.Fatalf("yield count = %d, want 2", got)
	}
}

func TestSuspendResume(t *testing.T) {
	e := NewExecutor(0)
	var phase atomic.Int32
	u := New(func(self *ULT) {
		phase.Store(1)
		self.Suspend()
		phase.Store(2)
	})
	MarkReady(u)
	if res := e.dispatch(u); res != DispatchBlocked {
		t.Fatalf("Dispatch = %v, want blocked", res)
	}
	if got := phase.Load(); got != 1 {
		t.Fatalf("phase = %d, want 1", got)
	}
	if u.Status() != StatusBlocked {
		t.Fatalf("status = %v, want blocked", u.Status())
	}
	// A blocked unit cannot be claimed.
	if res := e.dispatch(u); res != DispatchSkipped {
		t.Fatalf("Dispatch of blocked ULT = %v, want skipped", res)
	}
	if !u.Resume() {
		t.Fatal("Resume returned false on a blocked ULT")
	}
	if u.Resume() {
		t.Fatal("second Resume returned true")
	}
	if res := e.dispatch(u); res != DispatchDone {
		t.Fatalf("post-resume dispatch = %v, want done", res)
	}
	if got := phase.Load(); got != 2 {
		t.Fatalf("phase = %d, want 2", got)
	}
}

func TestResumeOnRunnableIsNoop(t *testing.T) {
	u := New(func(self *ULT) {})
	if u.Resume() {
		t.Fatal("Resume on created ULT returned true")
	}
	MarkReady(u)
	if u.Resume() {
		t.Fatal("Resume on ready ULT returned true")
	}
}

func TestYieldToDispatchesTargetNext(t *testing.T) {
	e := NewExecutor(0)
	var order []string
	var b *ULT
	a := New(func(self *ULT) {
		order = append(order, "a1")
		self.YieldTo(b)
		order = append(order, "a2")
	})
	b = New(func(self *ULT) {
		order = append(order, "b")
	})
	MarkReady(a)
	MarkReady(b)

	if res := e.dispatch(a); res != DispatchYielded {
		t.Fatalf("dispatch a = %v, want yielded", res)
	}
	res, got, ok := e.dispatchHint()
	if !ok {
		t.Fatal("dispatchHint found no hint after YieldTo")
	}
	if got != b {
		t.Fatalf("hint dispatched %v, want b", got.ID())
	}
	if res != DispatchDone {
		t.Fatalf("hint dispatch = %v, want done", res)
	}
	// The stale pool entry for b is now unclaimable.
	if res := e.dispatch(b); res != DispatchSkipped {
		t.Fatalf("stale dispatch of b = %v, want skipped", res)
	}
	if res := e.dispatch(a); res != DispatchDone {
		t.Fatalf("final dispatch of a = %v, want done", res)
	}
	want := []string{"a1", "b", "a2"}
	for i, w := range want {
		if order[i] != w {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
	if e.Stats().HintHits.Load() != 1 {
		t.Fatalf("hint hits = %d, want 1", e.Stats().HintHits.Load())
	}
}

func TestDispatchHintEmpty(t *testing.T) {
	e := NewExecutor(0)
	if _, _, ok := e.dispatchHint(); ok {
		t.Fatal("dispatchHint reported a hint on a fresh executor")
	}
}

func TestHintOnDoneTargetFallsThrough(t *testing.T) {
	e := NewExecutor(0)
	b := New(func(self *ULT) {})
	MarkReady(b)
	e.dispatch(b) // b is done
	a := New(func(self *ULT) { self.YieldTo(b) })
	MarkReady(a)
	e.dispatch(a)
	if _, _, ok := e.dispatchHint(); ok {
		t.Fatal("dispatchHint dispatched a done target")
	}
}

func TestMigrationBetweenExecutors(t *testing.T) {
	e1 := NewExecutor(1)
	e2 := NewExecutor(2)
	var owners []int
	u := New(func(self *ULT) {
		owners = append(owners, self.owner.ID())
		self.Yield()
		owners = append(owners, self.owner.ID())
	})
	MarkReady(u)
	if res := e1.dispatch(u); res != DispatchYielded {
		t.Fatalf("dispatch on e1 = %v, want yielded", res)
	}
	if res := e2.dispatch(u); res != DispatchDone {
		t.Fatalf("dispatch on e2 = %v, want done", res)
	}
	if owners[0] != 1 || owners[1] != 2 {
		t.Fatalf("owner sequence = %v, want [1 2]", owners)
	}
	if !u.Migratable() {
		t.Fatal("default ULT should be migratable")
	}
}

func TestNewPinned(t *testing.T) {
	u := NewPinned(func(self *ULT) {})
	if u.Migratable() {
		t.Fatal("pinned ULT reports migratable")
	}
	MarkReady(u)
	NewExecutor(0).dispatch(u)
}

func TestFreeSemantics(t *testing.T) {
	e := NewExecutor(0)
	u := New(func(self *ULT) {})
	if err := u.Free(); err != ErrNotDone {
		t.Fatalf("Free before completion = %v, want ErrNotDone", err)
	}
	MarkReady(u)
	e.dispatch(u)
	if err := u.Free(); err != nil {
		t.Fatalf("Free after completion = %v, want nil", err)
	}
	if !u.Freed() {
		t.Fatal("Freed() = false after Free")
	}
	if err := u.Free(); err != ErrFreed {
		t.Fatalf("double Free = %v, want ErrFreed", err)
	}
}

func TestTaskletRunsInline(t *testing.T) {
	e := NewExecutor(0)
	n := 0
	tk := NewTasklet(func() { n++ })
	if tk.Kind() != KindTasklet {
		t.Fatalf("kind = %v, want tasklet", tk.Kind())
	}
	// Not ready yet: must be skipped.
	if e.RunTasklet(tk) {
		t.Fatal("RunTasklet executed a created-only tasklet")
	}
	MarkReady(tk)
	if !e.RunTasklet(tk) {
		t.Fatal("RunTasklet failed on a ready tasklet")
	}
	if n != 1 {
		t.Fatalf("body ran %d times, want 1", n)
	}
	if !tk.Done() {
		t.Fatal("tasklet not done after run")
	}
	if e.RunTasklet(tk) {
		t.Fatal("RunTasklet re-executed a done tasklet")
	}
	if got := e.Stats().TaskletRuns.Load(); got != 1 {
		t.Fatalf("tasklet run count = %d, want 1", got)
	}
}

func TestTaskletWithDoneChannel(t *testing.T) {
	e := NewExecutor(0)
	tk := NewTaskletWithDone(func() {})
	MarkReady(tk)
	done := make(chan struct{})
	go func() {
		<-tk.DoneChan()
		close(done)
	}()
	e.RunTasklet(tk)
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("DoneChan never closed")
	}
}

func TestTaskletWithoutDoneChannelIsNil(t *testing.T) {
	tk := NewTasklet(func() {})
	if tk.DoneChan() != nil {
		t.Fatal("plain tasklet allocated a done channel")
	}
}

func TestTaskletFree(t *testing.T) {
	e := NewExecutor(0)
	tk := NewTasklet(func() {})
	if err := tk.Free(); err != ErrNotDone {
		t.Fatalf("Free before run = %v, want ErrNotDone", err)
	}
	MarkReady(tk)
	e.RunTasklet(tk)
	if err := tk.Free(); err != nil {
		t.Fatalf("Free = %v, want nil", err)
	}
	if err := tk.Free(); err != ErrFreed {
		t.Fatalf("double Free = %v, want ErrFreed", err)
	}
}

func TestUnitIDsAreUnique(t *testing.T) {
	seen := map[uint64]bool{}
	for i := 0; i < 100; i++ {
		var u Unit
		if i%2 == 0 {
			u = New(func(self *ULT) {})
		} else {
			u = NewTasklet(func() {})
		}
		if seen[u.ID()] {
			t.Fatalf("duplicate unit ID %d", u.ID())
		}
		seen[u.ID()] = true
	}
	// Drain the spawned goroutines.
	e := NewExecutor(0)
	for id := range seen {
		_ = id
	}
	_ = e
}

func TestStatusAndKindStrings(t *testing.T) {
	cases := map[Status]string{
		StatusCreated: "created",
		StatusReady:   "ready",
		StatusRunning: "running",
		StatusBlocked: "blocked",
		StatusDone:    "done",
		Status(99):    "status(99)",
	}
	for s, want := range cases {
		if s.String() != want {
			t.Fatalf("Status(%d).String() = %q, want %q", s, s.String(), want)
		}
	}
	if KindULT.String() != "ult" || KindTasklet.String() != "tasklet" {
		t.Fatal("Kind strings wrong")
	}
}

func TestLabel(t *testing.T) {
	u := New(func(self *ULT) {})
	u.SetLabel("worker-3")
	if u.Label() != "worker-3" {
		t.Fatalf("label = %q", u.Label())
	}
	MarkReady(u)
	NewExecutor(0).dispatch(u)
}

func TestAdoptedPrimaryYieldAndDetach(t *testing.T) {
	e := NewExecutor(0)
	p := Adopt(e)
	if p.Status() != StatusRunning {
		t.Fatalf("adopted status = %v, want running", p.Status())
	}

	var mu sync.Mutex
	var order []string
	note := func(s string) { mu.Lock(); order = append(order, s); mu.Unlock() }

	w := New(func(self *ULT) { note("worker") })
	MarkReady(w)

	queue := make(chan *ULT, 4)
	queue <- w
	loopDone := make(chan struct{})
	go func() {
		defer close(loopDone)
		for {
			back, res := e.AwaitHandback()
			if res == DispatchDone {
				return // primary detached
			}
			if res == DispatchYielded {
				queue <- back
			}
			// Drain everything currently queued, ending by
			// redispatching whatever comes out (including the
			// primary, which unparks the test goroutine).
			for {
				next := <-queue
				if r := e.dispatch(next); r == DispatchYielded {
					queue <- next
				} else if next == back && r == DispatchDone {
					return
				}
				if next == back {
					break
				}
			}
		}
	}()

	note("before-yield")
	p.Yield() // parks until the loop redispatches the primary
	note("after-yield")
	p.Detach()
	<-loopDone

	mu.Lock()
	defer mu.Unlock()
	want := []string{"before-yield", "worker", "after-yield"}
	if len(order) != len(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
	if !p.Done() {
		t.Fatal("primary not done after Detach")
	}
}

func TestDetachPanicsWhenNotRunning(t *testing.T) {
	e := NewExecutor(0)
	p := Adopt(e)
	go func() {
		// Consume the handback so Detach in the main flow can finish.
		e.AwaitHandback()
	}()
	p.Detach()
	defer func() {
		if recover() == nil {
			t.Fatal("second Detach did not panic")
		}
	}()
	p.Detach()
}

func TestConcurrentExecutorsIndependent(t *testing.T) {
	const n = 8
	var wg sync.WaitGroup
	var total atomic.Int64
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			e := NewExecutor(id)
			for j := 0; j < 50; j++ {
				u := New(func(self *ULT) {
					total.Add(1)
					self.Yield()
					total.Add(1)
				})
				MarkReady(u)
				if res := e.dispatch(u); res != DispatchYielded {
					t.Errorf("dispatch = %v, want yielded", res)
					return
				}
				if res := e.dispatch(u); res != DispatchDone {
					t.Errorf("dispatch = %v, want done", res)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	if got := total.Load(); got != n*50*2 {
		t.Fatalf("total = %d, want %d", got, n*50*2)
	}
}

func TestDispatchCountsStats(t *testing.T) {
	e := NewExecutor(0)
	u := New(func(self *ULT) {
		self.Yield()
		self.Suspend()
	})
	MarkReady(u)
	e.dispatch(u) // yield
	e.dispatch(u) // suspend
	u.Resume()
	e.dispatch(u) // done
	s := e.Stats()
	if s.Dispatches.Load() != 3 {
		t.Fatalf("dispatches = %d, want 3", s.Dispatches.Load())
	}
	if s.Yields.Load() != 1 || s.Suspensions.Load() != 1 || s.Completions.Load() != 1 {
		t.Fatalf("yields/suspends/completions = %d/%d/%d, want 1/1/1",
			s.Yields.Load(), s.Suspensions.Load(), s.Completions.Load())
	}
}
