package semantics

import (
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
	_ "unsafe" // go:linkname

	"repro/internal/core"
	"repro/internal/queue"
)

// ultSpinBudget is internal/ult's spin budget, reached through linkname so
// the policy keeps no exported knob. Written only while no runtime exists.
//
//go:linkname ultSpinBudget repro/internal/ult.spinBudget
var ultSpinBudget uint32

// quiesce waits until the runtime's pool counters have stopped moving:
// with the spin budget at 0 an executor is running a unit, in transit, or
// parked, so frozen counters mean every loop that can park has. It only
// sharpens the test (the next burst then meets parked executors); no
// assertion depends on it.
func quiesce(r *core.Runtime) queue.Counts {
	last, same := r.SchedStats(), 0
	for same < 3 {
		for i := 0; i < 50; i++ {
			runtime.Gosched()
		}
		time.Sleep(200 * time.Microsecond)
		if now := r.SchedStats(); now == last {
			same++
		} else {
			last, same = now, 0
		}
	}
	return last
}

// allStacks dumps every goroutine's stack.
func allStacks() string {
	buf := make([]byte, 1<<20)
	return string(buf[:runtime.Stack(buf, true)])
}

// leftLoop names a dispatch-loop or idle-park frame still on some
// goroutine's stack, with the dump it was found in, or "" when none is.
func leftLoop() (string, string) {
	stacks := allStacks()
	for _, frame := range []string{
		"ult.(*Idler).Park", "argobots.(*XStream).loop", "gothreads.(*thread).loop",
		"qthreads.(*Worker).loop", "massivethreads.(*Worker).loop", "converse.(*Processor).loop",
	} {
		if strings.Contains(stacks, frame) {
			return frame, stacks
		}
	}
	return "", ""
}

// TestNoLostWakeups is the lost-wakeup surface of the idle policy. The
// spin budget is forced to 0, so an executor parks on its second empty
// poll in a row and every wake path is load-bearing: remove the Wake from
// any one push path and the burst that uses it hangs (the watchdog names
// it) instead of being rescued by a spinning executor. Bursts alternate with quiescence; at
// the end Finalize must return from a fully parked runtime and leave no
// dispatch loop behind. The "pump" subtests do the same for the serving
// tier's launch and drain wakes (see serveWakeups).
func TestNoLostWakeups(t *testing.T) {
	old := ultSpinBudget
	ultSpinBudget = 0
	defer func() { ultSpinBudget = old }()

	const executors, rounds, width = 4, 3, 24
	type burst struct {
		name string
		on   func(backend string) bool // nil = every backend
		run  func(r *core.Runtime, ran *atomic.Int64) (want int64)
	}
	bursts := []burst{
		{"create", nil, func(r *core.Runtime, ran *atomic.Int64) int64 {
			for i := 0; i < width; i++ {
				r.Join(r.ULTCreate(func(core.Ctx) { ran.Add(1) }))
				r.Join(r.TaskletCreate(func() { ran.Add(1) }))
			}
			return 2 * width
		}},
		{"bulk-create", nil, func(r *core.Runtime, ran *atomic.Int64) int64 {
			us := make([]func(core.Ctx), width)
			ts := make([]func(), width)
			for i := range us {
				us[i] = func(core.Ctx) { ran.Add(1) }
				ts[i] = func() { ran.Add(1) }
			}
			r.JoinAll(r.ULTCreateBulk(us))
			r.JoinAll(r.TaskletCreateBulk(ts))
			return 2 * width
		}},
		{"create-to-parked-executor", nil, func(r *core.Runtime, ran *atomic.Int64) int64 {
			for i := 0; i < r.NumExecutors(); i++ {
				r.Join(r.ULTCreateTo(i, func(core.Ctx) { ran.Add(1) }))
			}
			return int64(r.NumExecutors())
		}},
		{"yield-requeue", nil, func(r *core.Runtime, ran *atomic.Int64) int64 {
			hs := make([]core.Handle, width)
			for i := range hs {
				hs[i] = r.ULTCreate(func(c core.Ctx) {
					c.Yield()
					c.Yield()
					ran.Add(1)
				})
			}
			r.JoinAll(hs)
			return width
		}},
		{"join-inside-ult", nil, func(r *core.Runtime, ran *atomic.Int64) int64 {
			hs := make([]core.Handle, r.NumExecutors())
			for i := range hs {
				hs[i] = r.ULTCreateTo(i, func(c core.Ctx) {
					child := c.ULTCreateTo(c.ExecutorID()+1, func(core.Ctx) { ran.Add(1) })
					c.Join(child) // parks; the child's finish resumes it
					ran.Add(1)
				})
			}
			r.JoinAll(hs)
			return 2 * int64(len(hs))
		}},
		{"reactor-resume", nil, func(r *core.Runtime, ran *atomic.Int64) int64 {
			hs := make([]core.Handle, r.NumExecutors())
			for i := range hs {
				hs[i] = r.ULTCreateTo(i, func(c core.Ctx) {
					if err := core.Sleep(c, time.Millisecond); err == nil {
						ran.Add(1)
					}
				})
			}
			r.JoinAll(hs)
			return int64(len(hs))
		}},
		// Two units of one batch each hold their executor until the other
		// has started, so the batch needs two executors awake: the bulk
		// wake is load-bearing even where the creator's own executor
		// could otherwise drain the pool alone (shared pool, global
		// queue, help-first deque). Not on Converse, whose bulk ULT
		// creation is local to the master's processor.
		{"bulk-rendezvous", func(b string) bool { return b != "converse" }, func(r *core.Runtime, ran *atomic.Int64) int64 {
			var started [2]atomic.Bool
			fns := make([]func(core.Ctx), 2)
			for i := range fns {
				fns[i] = func(core.Ctx) {
					started[i].Store(true)
					for !started[1-i].Load() {
						runtime.Gosched()
					}
					ran.Add(1)
				}
			}
			r.JoinAll(r.ULTCreateBulk(fns))
			return 2
		}},
		// Parent and child each hold their worker (an OS-level yield, not
		// a ULT yield) until the other has run, so whichever of the two
		// sits in the deque — the child under help-first, the parent's
		// continuation under work-first — only runs if a parked thief is
		// woken and steals it.
		{"stolen-unit", func(b string) bool { return strings.HasPrefix(b, "massivethreads") }, func(r *core.Runtime, ran *atomic.Int64) int64 {
			steals := r.SchedStats().Steals
			var childRan, parentPast atomic.Bool
			r.Join(r.ULTCreate(func(c core.Ctx) {
				child := c.ULTCreate(func(core.Ctx) {
					childRan.Store(true)
					for !parentPast.Load() {
						runtime.Gosched()
					}
					ran.Add(1)
				})
				for !childRan.Load() {
					runtime.Gosched()
				}
				parentPast.Store(true)
				c.Join(child)
				ran.Add(1)
			}))
			if r.SchedStats().Steals == steals {
				return -1 // nothing was stolen: no count satisfies this
			}
			return 2
		}},
	}

	for _, name := range core.Backends() {
		t.Run(name, func(t *testing.T) {
			var at atomic.Value // the burst in flight, for the watchdog
			at.Store("open")
			fail := make(chan string, 1)
			done := make(chan struct{})
			// One goroutine owns the runtime end to end (the adopted-main
			// backends require it); the test goroutine is the watchdog.
			go func() {
				defer close(done)
				r := core.MustOpen(core.Config{Backend: name, Executors: executors})
				for round := 0; round < rounds; round++ {
					for _, b := range bursts {
						if b.on != nil && !b.on(name) {
							continue
						}
						quiesce(r)
						at.Store(b.name)
						var ran atomic.Int64
						if want := b.run(r, &ran); ran.Load() != want {
							fail <- b.name
							r.Finalize()
							return
						}
					}
				}
				if quiesce(r).Parks == 0 {
					fail <- "no executor ever parked"
				}
				at.Store("finalize")
				r.Finalize()
			}()
			select {
			case <-done:
			case <-time.After(60 * time.Second):
				t.Fatalf("hung in %q — a lost wakeup\n%s", at.Load(), allStacks())
			}
			select {
			case what := <-fail:
				t.Fatalf("%s: not every unit ran", what)
			default:
			}
			// Finalize returns once every loop has signalled its exit, a
			// moment before the goroutines finish unwinding; give them
			// that moment, not a lasting park.
			for try := 0; ; try++ {
				frame, stacks := leftLoop()
				if frame == "" {
					break
				}
				if try == 100 {
					t.Fatalf("a goroutine is still in %s after Finalize\n%s", frame, stacks)
				}
				time.Sleep(10 * time.Millisecond)
			}
		})
	}
	t.Run("pump", func(t *testing.T) {
		for _, name := range core.Backends() {
			t.Run(name, func(t *testing.T) { serveWakeups(t, name) })
		}
	})
}

// TestIdleExecutorsStopPolling holds on every backend at the shipped spin
// budget: once a runtime has been quiet for 50 ms its executors have
// parked, so the empty-poll count (each IdleSpins increment follows one)
// no longer moves. At a busy-wait policy it grows without bound.
func TestIdleExecutorsStopPolling(t *testing.T) {
	for _, name := range core.Backends() {
		t.Run(name, func(t *testing.T) {
			r := core.MustOpen(core.Config{Backend: name, Executors: 3})
			defer r.Finalize()
			hs := make([]core.Handle, 3)
			for i := range hs {
				hs[i] = r.ULTCreateTo(i, func(core.Ctx) {})
			}
			r.JoinAll(hs)
			time.Sleep(50 * time.Millisecond)
			a := r.SchedStats()
			time.Sleep(50 * time.Millisecond)
			b := r.SchedStats()
			if a.EmptyPops != b.EmptyPops {
				t.Fatalf("empty polls still growing while idle: %d -> %d", a.EmptyPops, b.EmptyPops)
			}
			if b.Parks == 0 {
				t.Fatal("no executor parked")
			}
		})
	}
}
