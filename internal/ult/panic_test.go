package ult

import (
	"strings"
	"testing"
)

// Failure injection: panicking work units must complete with a recorded
// error instead of killing the executor or the process.

func TestPanickingULTIsContained(t *testing.T) {
	e := NewExecutor(0)
	bad := New(func(self *ULT) { panic("injected failure") })
	MarkReady(bad)
	if res := e.dispatch(bad); res != DispatchDone {
		t.Fatalf("dispatch of panicking ULT = %v, want done", res)
	}
	if !bad.Done() {
		t.Fatal("panicking ULT not marked done")
	}
	if err := bad.Err(); err == nil || !strings.Contains(err.Error(), "injected failure") {
		t.Fatalf("Err = %v, want recorded panic", err)
	}
	// The executor must still work.
	ok := New(func(self *ULT) {})
	MarkReady(ok)
	if res := e.dispatch(ok); res != DispatchDone {
		t.Fatalf("executor broken after contained panic: %v", res)
	}
	if ok.Err() != nil {
		t.Fatalf("healthy ULT reports error %v", ok.Err())
	}
}

func TestPanickingULTAfterYield(t *testing.T) {
	e := NewExecutor(0)
	u := New(func(self *ULT) {
		self.Yield()
		panic("late failure")
	})
	MarkReady(u)
	if res := e.dispatch(u); res != DispatchYielded {
		t.Fatalf("first dispatch = %v", res)
	}
	if res := e.dispatch(u); res != DispatchDone {
		t.Fatalf("second dispatch = %v, want done", res)
	}
	if u.Err() == nil {
		t.Fatal("late panic not recorded")
	}
	// DoneChan closes even for failed units.
	select {
	case <-u.DoneChan():
	default:
		t.Fatal("DoneChan not closed after panic")
	}
}

func TestPanickingTaskletIsContained(t *testing.T) {
	e := NewExecutor(0)
	bad := NewTasklet(func() { panic(42) })
	MarkReady(bad)
	if !e.RunTasklet(bad) {
		t.Fatal("RunTasklet refused the tasklet")
	}
	if !bad.Done() {
		t.Fatal("panicking tasklet not done")
	}
	if err := bad.Err(); err == nil || !strings.Contains(err.Error(), "42") {
		t.Fatalf("Err = %v", err)
	}
	ok := NewTasklet(func() {})
	MarkReady(ok)
	if !e.RunTasklet(ok) {
		t.Fatal("executor broken after tasklet panic")
	}
}

func TestPanickingTaskletWithDoneChan(t *testing.T) {
	e := NewExecutor(0)
	tk := NewTaskletWithDone(func() { panic("boom") })
	MarkReady(tk)
	e.RunTasklet(tk)
	select {
	case <-tk.DoneChan():
	default:
		t.Fatal("DoneChan not closed after tasklet panic")
	}
}

func TestJoinersSeePanickedCompletion(t *testing.T) {
	// A joiner polling Done must be released by a panicked unit exactly
	// as by a successful one.
	e := NewExecutor(0)
	bad := New(func(self *ULT) { panic("x") })
	MarkReady(bad)
	joiner := New(func(self *ULT) {
		for !bad.Done() {
			self.Yield()
		}
	})
	MarkReady(joiner)
	for !joiner.Done() {
		e.dispatch(joiner)
		e.dispatch(bad)
	}
}
