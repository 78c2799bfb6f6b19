package ult

import "repro/internal/trace"

// Source is where an execution stream finds ready work — the one part of
// the dispatch loop that differs between the five runtimes (Table I): a
// private or shared pool, a work-stealing deque with its steal sweep, a
// processor's message queue, or the global run queue.
type Source struct {
	// Next pops the next unit to run, or returns nil when there is none.
	Next func() Unit
	// Requeue puts a ULT that yielded back where Next will find it, and
	// wakes the domain's parked executors if the push needs it.
	Requeue func(*ULT)
}

// Run is the scheduling loop of an execution stream, shared by all five
// runtimes: step while there is work, and on an empty poll either return
// — once d has been closed — or take the idle policy (idle) and poll
// again. Units queued before Close still run: the loop exits only at the
// first empty poll after it. Executors whose loop adopted a primary ULT
// call AwaitHandback first.
func (e *Executor) Run(src Source, d *Idler, bat *trace.Batcher) {
	for {
		if e.Step(src, bat) {
			continue
		}
		if d.Closed() {
			return
		}
		e.idle(d, bat)
	}
}

// Step is one dispatch: the pending YieldTo hint if it can be claimed
// (the hint bypasses the scheduler entirely), otherwise the next unit
// from src, run to its hand-back and noted in bat under its kind. A ULT
// that yielded goes back through src.Requeue, and the first pooled ULT
// after an idle spell first wakes an idle P (wakeIdleP). Step reports
// whether it took a unit — including a stale pool entry it skipped — so
// a caller polls again at once; false means src was empty.
func (e *Executor) Step(src Source, bat *trace.Batcher) bool {
	if res, h, ok := e.dispatchHint(); ok {
		if res == DispatchYielded {
			src.Requeue(h)
		}
		return true
	}
	u := src.Next()
	if u == nil {
		return false
	}
	bat.Begin()
	switch v := u.(type) {
	case *ULT:
		if e.idled {
			e.idled = false
			if v.resume == nil { // an adopted primary's channel wakes a P
				wakeIdleP()
			}
		}
		if e.dispatch(v) == DispatchYielded {
			src.Requeue(v)
		}
		bat.Note(trace.KindDispatch, 1)
	case *Tasklet:
		e.RunTasklet(v)
		bat.Note(trace.KindTasklet, 1)
	default:
		panic("ult: unknown unit type")
	}
	return true
}

// wakeIdleP has the Go runtime wake an idle P, if there is one, by
// starting a goroutine that returns at once (starting a goroutine wakes
// an idle P; a coroutine switch does not). Step calls it before running
// the first ULT after an idle spell. Such a unit was usually pushed by a
// goroutine outside the runtime — a request handler — that readied other
// goroutines on this P along the way (net/http's per-request background
// reader is one); the body now holds the P until it switches out, and a
// woken P takes those goroutines instead of leaving them queued behind
// it. A channel hand-off readies a goroutine and so wakes a P by itself,
// which is why adopted primaries are skipped.
func wakeIdleP() { go func() {}() }
