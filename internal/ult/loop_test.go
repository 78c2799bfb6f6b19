package ult

import (
	"testing"
	"time"

	"repro/internal/trace"
)

// fifo is a single-goroutine Source over a slice: Next pops the head,
// Requeue appends and counts the requeue per unit.
type fifo struct {
	units    []Unit
	polls    int
	requeued map[*ULT]int
}

func (q *fifo) source() Source {
	q.requeued = map[*ULT]int{}
	return Source{
		Next: func() Unit {
			q.polls++
			if len(q.units) == 0 {
				return nil
			}
			u := q.units[0]
			q.units = q.units[1:]
			return u
		},
		Requeue: func(t *ULT) {
			q.requeued[t]++
			q.units = append(q.units, t)
		},
	}
}

func ready(us ...Unit) []Unit {
	for _, u := range us {
		MarkReady(u)
	}
	return us
}

// A YieldTo hint runs before the source is polled, and the target's pool
// entry left behind is skipped as stale — a step that still reports true.
func TestStepRunsHintBeforeNext(t *testing.T) {
	e := NewExecutor(0)
	var order []string
	var c *ULT
	a := New(func(self *ULT) {
		order = append(order, "a1")
		self.YieldTo(c)
		order = append(order, "a2")
	})
	b := New(func(*ULT) { order = append(order, "b") })
	c = New(func(*ULT) { order = append(order, "c") })
	q := &fifo{units: ready(a, b, c)}
	src := q.source()

	if !e.Step(src, nil) { // a runs and yields to c
		t.Fatal("first step found no unit")
	}
	polls := q.polls
	if !e.Step(src, nil) { // the hint: c, without polling
		t.Fatal("hint step reported empty")
	}
	if q.polls != polls {
		t.Fatalf("hint step polled the source (%d -> %d polls)", polls, q.polls)
	}
	if got := e.Stats().HintHits.Load(); got != 1 {
		t.Fatalf("hint hits = %d, want 1", got)
	}
	for e.Step(src, nil) {
	}
	want := []string{"a1", "c", "b", "a2"}
	if len(order) != len(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
	// Pops: a, b, stale c, a, then the empty poll.
	if q.polls != 5 {
		t.Fatalf("polls = %d, want 5 (a, b, stale c, a, empty)", q.polls)
	}
}

// A ULT that yields once goes through Requeue exactly once; a unit that
// finishes or a tasklet never does.
func TestStepRequeuesYieldedOnce(t *testing.T) {
	e := NewExecutor(0)
	y := New(func(self *ULT) { self.Yield() })
	d := New(func(*ULT) {})
	q := &fifo{units: ready(y, d, NewTasklet(func() {}))}
	src := q.source()
	for e.Step(src, nil) {
	}
	if q.requeued[y] != 1 || q.requeued[d] != 0 || len(q.requeued) != 1 {
		t.Fatalf("requeued = %v, want y once", q.requeued)
	}
	if !y.Done() || !d.Done() {
		t.Fatal("units not run to completion")
	}
}

// Tasklets and ULTs are noted in the batcher under their own kind, and
// counted in their own executor counters.
func TestStepNotesUnitKinds(t *testing.T) {
	rec := trace.NewRecorder(64)
	bat := rec.Ring("step", 0).Batcher()
	e := NewExecutor(0)
	q := &fifo{units: ready(
		NewTasklet(func() {}), NewTasklet(func() {}),
		New(func(*ULT) {}),
		NewTasklet(func() {}),
	)}
	src := q.source()
	for e.Step(src, bat) {
	}
	bat.Close()

	type batch struct {
		k trace.Kind
		n uint64
	}
	var got []batch
	for _, ev := range rec.Events() {
		got = append(got, batch{ev.Kind, ev.Unit})
	}
	want := []batch{{trace.KindTasklet, 2}, {trace.KindDispatch, 1}, {trace.KindTasklet, 1}}
	if len(got) != len(want) {
		t.Fatalf("events = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("events = %v, want %v", got, want)
		}
	}
	if s := e.Stats(); s.TaskletRuns.Load() != 3 || s.Dispatches.Load() != 1 {
		t.Fatalf("tasklet runs = %d, dispatches = %d, want 3, 1",
			s.TaskletRuns.Load(), s.Dispatches.Load())
	}
}

// Close does not cut the queue short: Run keeps stepping through units
// queued before it and returns at the first empty poll.
func TestRunDrainsQueuedUnitsAfterClose(t *testing.T) {
	const n = 5
	e := NewExecutor(0)
	ran := 0
	var units []Unit
	for i := 0; i < n; i++ {
		units = append(units, New(func(self *ULT) {
			self.Yield() // one requeue each, still drained
			ran++
		}))
	}
	q := &fifo{units: ready(units...)}
	var d Idler
	d.Close()
	e.Run(q.source(), &d, nil)
	if ran != n {
		t.Fatalf("ran %d of %d units queued before Close", ran, n)
	}
	if q.polls != 2*n+1 {
		t.Fatalf("polls = %d, want %d (each unit twice, one empty)", q.polls, 2*n+1)
	}
	if p := e.Stats().Parks.Load(); p != 0 {
		t.Fatalf("parks = %d on a closed domain", p)
	}
}

// A Run parked on its idler wakes for a push, and Close releases it for
// good. The watchdog turns a lost release into a failure, not a hang.
func TestCloseReleasesParkedRun(t *testing.T) {
	e := NewExecutor(0)
	var d Idler
	work := make(chan Unit, 1)
	src := Source{
		Next: func() Unit {
			select {
			case u := <-work:
				return u
			default:
				return nil
			}
		},
		Requeue: func(u *ULT) { work <- u },
	}
	done := make(chan struct{})
	go func() {
		e.Run(src, &d, nil)
		close(done)
	}()
	watchdog := time.After(30 * time.Second)

	awaitSleepers(t, &d, 1)
	ranUnit := make(chan struct{})
	tk := NewTasklet(func() { close(ranUnit) })
	MarkReady(tk)
	work <- tk
	d.Wake()
	select {
	case <-ranUnit:
	case <-watchdog:
		t.Fatal("parked Run did not wake for a push")
	}

	awaitSleepers(t, &d, 1)
	d.Close()
	select {
	case <-done:
	case <-watchdog:
		t.Fatal("Close did not release the parked Run")
	}
	if p := e.Stats().Parks.Load(); p < 2 {
		t.Fatalf("parks = %d, want >= 2", p)
	}
}
