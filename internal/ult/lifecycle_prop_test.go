package ult

import (
	"testing"
	"testing/quick"
)

// Property: for any random schedule of yields and suspend/resume cycles,
// a ULT runs its body segments exactly once, in order, and every
// dispatch result matches the operation the body performed.
func TestLifecyclePropertyRandomSchedules(t *testing.T) {
	f := func(ops []uint8) bool {
		// Trim to a sane length; each op is one park point.
		if len(ops) > 16 {
			ops = ops[:16]
		}
		e := NewExecutor(0)
		var trace []int
		u := New(func(self *ULT) {
			for i, op := range ops {
				trace = append(trace, i)
				if op%2 == 0 {
					self.Yield()
				} else {
					self.Suspend()
				}
			}
			trace = append(trace, len(ops))
		})
		MarkReady(u)
		for i, op := range ops {
			var want DispatchResult
			if op%2 == 0 {
				want = DispatchYielded
			} else {
				want = DispatchBlocked
			}
			if got := e.dispatch(u); got != want {
				t.Logf("op %d: dispatch = %v, want %v", i, got, want)
				return false
			}
			if op%2 == 1 && !u.Resume() {
				t.Logf("op %d: resume failed", i)
				return false
			}
		}
		if got := e.dispatch(u); got != DispatchDone {
			t.Logf("final dispatch = %v", got)
			return false
		}
		// Segments executed exactly once, in order.
		if len(trace) != len(ops)+1 {
			return false
		}
		for i, v := range trace {
			if v != i {
				return false
			}
		}
		return u.Done() && u.Err() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// Property: tasklets are exactly-once regardless of how many executors
// race to run them.
func TestTaskletExactlyOnceProperty(t *testing.T) {
	f := func(nExec8 uint8) bool {
		n := int(nExec8%4) + 2
		execs := make([]*Executor, n)
		for i := range execs {
			execs[i] = NewExecutor(i)
		}
		runs := 0
		tk := NewTasklet(func() { runs++ })
		MarkReady(tk)
		done := make(chan bool, n)
		for _, e := range execs {
			e := e
			go func() { done <- e.RunTasklet(tk) }()
		}
		winners := 0
		for range execs {
			if <-done {
				winners++
			}
		}
		return winners == 1 && runs == 1 && tk.Done()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
