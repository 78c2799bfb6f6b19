package ult

import (
	"runtime"
	"testing"
	"time"
)

// awaitSleepers blocks until n goroutines are registered asleep on d —
// the event the park tests synchronize on, instead of a sleep.
func awaitSleepers(t *testing.T, d *Idler, n int32) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for d.sleepers.Load() != n {
		if time.Now().After(deadline) {
			t.Fatalf("sleepers = %d, want %d", d.sleepers.Load(), n)
		}
		runtime.Gosched()
	}
}

func TestIdlerZeroValue(t *testing.T) {
	var d Idler
	d.Wake() // no sleeper, no lock, no panic
	if d.epoch.Load() != 1 {
		t.Fatalf("epoch = %d, want 1", d.epoch.Load())
	}
	d.Close()
	if d.Park(d.epoch.Load()) {
		t.Fatal("park on a closed zero-value idler returned true")
	}
}

// A Wake that lands after the epoch was captured but before the park
// must make the park return at once: this is the lost-wakeup window of
// every dispatch loop (capture, pop empty, <push+Wake>, park).
func TestIdlerWakeBetweenCaptureAndPark(t *testing.T) {
	var d Idler
	e := d.epoch.Load()
	d.Wake()
	if !d.Park(e) { // would block forever on a lost wakeup
		t.Fatal("park returned closed")
	}
	if d.sleepers.Load() != 0 {
		t.Fatalf("sleepers = %d after park returned", d.sleepers.Load())
	}
}

func TestIdlerOneWakeReleasesAllSleepers(t *testing.T) {
	const n = 8
	var d Idler
	out := make(chan bool, n)
	for i := 0; i < n; i++ {
		go func() { out <- d.Park(d.epoch.Load()) }()
	}
	awaitSleepers(t, &d, n)
	d.Wake()
	for i := 0; i < n; i++ {
		if !<-out {
			t.Fatal("park returned closed on Wake")
		}
	}
	if d.sleepers.Load() != 0 {
		t.Fatalf("sleepers = %d after wake", d.sleepers.Load())
	}
}

func TestIdlerCloseReleasesSleepersForGood(t *testing.T) {
	const n = 4
	var d Idler
	out := make(chan bool, n)
	for i := 0; i < n; i++ {
		go func() { out <- d.Park(d.epoch.Load()) }()
	}
	awaitSleepers(t, &d, n)
	d.Close()
	for i := 0; i < n; i++ {
		if <-out {
			t.Fatal("park returned true on Close")
		}
	}
	if d.Park(d.epoch.Load()) {
		t.Fatal("park after Close returned true")
	}
	d.Wake() // still harmless
}

// spendBudget makes the spin-phase calls plus the one that captures the
// epoch: the next Idle parks.
func spendBudget(e *Executor, d *Idler) {
	for i := uint32(0); i <= spinBudget; i++ {
		e.Idle(d, nil)
	}
}

// Idle spends the budget yielding, captures the epoch, polls once more
// and only then parks; a dispatch in between restores the budget.
func TestExecutorIdleSpinsThenParks(t *testing.T) {
	var d Idler
	e := NewExecutor(0)
	spendBudget(e, &d)
	if s, p := e.Stats().IdleSpins.Load(), e.Stats().Parks.Load(); s != uint64(spinBudget)+1 || p != 0 {
		t.Fatalf("budget spent: spins=%d parks=%d", s, p)
	}
	// A unit resets the count: the whole budget is available again.
	tk := NewTasklet(func() {})
	MarkReady(tk)
	if !e.RunTasklet(tk) {
		t.Fatal("tasklet did not run")
	}
	spendBudget(e, &d)
	if p := e.Stats().Parks.Load(); p != 0 {
		t.Fatalf("parked within a fresh budget (parks=%d)", p)
	}
	// Budget spent, epoch captured: this call parks until the Wake.
	done := make(chan struct{})
	go func() {
		e.Idle(&d, nil)
		close(done)
	}()
	awaitSleepers(t, &d, 1)
	d.Wake()
	<-done
	if p := e.Stats().Parks.Load(); p != 1 {
		t.Fatalf("parks = %d, want 1", p)
	}
}

// The lost-wakeup window of every dispatch loop, made deterministic: the
// executor has captured the epoch, its last poll came up empty, and the
// push (with its Wake) lands before the park. The park must not block.
func TestExecutorIdleWakeBeforeParkIsNotLost(t *testing.T) {
	var d Idler
	e := NewExecutor(0)
	spendBudget(e, &d) // epoch captured
	d.Wake()           // the push that raced the last empty poll
	e.Idle(&d, nil)    // would block forever on a lost wakeup
	if p := e.Stats().Parks.Load(); p != 1 {
		t.Fatalf("parks = %d, want 1", p)
	}
}
