package argobots

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/aio"
	"repro/internal/ult"
)

// ioParker adapts a Context.IOPark pair to the reactor's Parker.
type ioParker struct{ park, unpark func() }

func (p ioParker) Park()   { p.park() }
func (p ioParker) Unpark() { p.unpark() }

func sleepIn(c *Context, d time.Duration) {
	park, unpark := c.IOPark()
	aio.Sleep(ioParker{park, unpark}, d)
}

// runRoot runs body as a ULT on ES 0 and joins it from the main flow.
func runRoot(t *testing.T, rt *Runtime, body func(*Context)) {
	t.Helper()
	if err := rt.ThreadFree(rt.ThreadCreateTo(body, 0)); err != nil {
		t.Fatal(err)
	}
}

// A worker-side join of a child still sitting Ready in the joiner's pool
// switches straight to it: the child runs to completion from the joiner's
// coroutine and the joiner never parks.
func TestJoinSwitchesToReadyJoinee(t *testing.T) {
	rt := Init(Config{XStreams: 1})
	defer rt.Finalize()
	var ran bool
	runRoot(t, rt, func(c *Context) {
		child := c.ThreadCreate(func(*Context) { ran = true })
		if err := c.JoinFree(child); err != nil {
			t.Error(err)
		}
		if !ran {
			t.Error("join returned before the child ran")
		}
	})
	if got := rt.xstream(0).Stats().Suspensions.Load(); got != 0 {
		t.Fatalf("%d suspensions: the joiner parked instead of switching", got)
	}
}

// A joinee that yields from the direct switch is requeued on the joiner's
// stream, and the joiner returns once it completes.
func TestJoinSwitchYieldingJoinee(t *testing.T) {
	rt := Init(Config{XStreams: 2})
	defer rt.Finalize()
	var steps atomic.Int32
	runRoot(t, rt, func(c *Context) {
		child := c.ThreadCreate(func(cc *Context) {
			for i := 0; i < 3; i++ {
				steps.Add(1)
				cc.Yield()
			}
			steps.Add(1)
		})
		c.Join(child)
		if got := steps.Load(); got != 4 {
			t.Errorf("join returned after %d of 4 child steps", got)
		}
		if err := child.free(); err != nil {
			t.Error(err)
		}
	})
}

// A joinee parked in a reactor sleep leaves the joiner parked until the
// joinee is resumed and finishes.
func TestJoinSwitchSleepingJoinee(t *testing.T) {
	rt := Init(Config{XStreams: 1})
	defer rt.Finalize()
	var woke atomic.Bool
	runRoot(t, rt, func(c *Context) {
		child := c.ThreadCreate(func(cc *Context) {
			sleepIn(cc, time.Millisecond)
			woke.Store(true)
		})
		if err := c.JoinFree(child); err != nil {
			t.Error(err)
		}
		if !woke.Load() {
			t.Error("join returned while the child slept")
		}
	})
}

// A joinee that panics records the panic as its error, and the joiner
// carries on.
func TestJoinSwitchPanickingJoinee(t *testing.T) {
	rt := Init(Config{XStreams: 1})
	defer rt.Finalize()
	var after bool
	runRoot(t, rt, func(c *Context) {
		child := c.ThreadCreate(func(*Context) { panic("boom") })
		c.Join(child)
		if child.u.Err() == nil {
			t.Error("child's panic was not recorded")
		}
		if err := child.free(); err != nil {
			t.Error(err)
		}
		after = true
	})
	if !after {
		t.Fatal("joiner did not carry on after the child panicked")
	}
}

// A 20-deep chain of nested joins, whose leaf yields and sleeps, completes
// on two streams.
func TestJoinSwitchNestedChain(t *testing.T) {
	const depth = 20
	rt := Init(Config{XStreams: 2})
	defer rt.Finalize()
	var finished atomic.Int32
	var level func(c *Context, k int)
	level = func(c *Context, k int) {
		if k == depth {
			c.Yield()
			sleepIn(c, 100*time.Microsecond)
		} else {
			child := c.ThreadCreate(func(cc *Context) { level(cc, k+1) })
			if err := c.JoinFree(child); err != nil {
				t.Error(err)
			}
		}
		finished.Add(1)
	}
	runRoot(t, rt, func(c *Context) { level(c, 1) })
	if got := finished.Load(); got != depth {
		t.Fatalf("%d of %d levels finished", got, depth)
	}
}

// The direct switch leaves the joinee's pool entry stale: the stream pops
// it later, skips it without running anything, and the joinee's
// descriptor never returns to the reuse pool.
func TestJoinSwitchStaleEntry(t *testing.T) {
	rt := Init(Config{XStreams: 1})
	defer rt.Finalize()
	var u *ult.ULT
	runRoot(t, rt, func(c *Context) {
		child := c.ThreadCreate(func(*Context) {})
		c.Join(child)
		u = child.u
		if err := child.free(); err != nil {
			t.Error(err)
		}
	})
	rt.Yield() // lets ES 0 pop the stale entry before the primary again
	c := rt.SchedStats()
	if c.Pops != c.Pushes {
		t.Fatalf("pops = %d, pushes = %d: the stale entry was not popped", c.Pops, c.Pushes)
	}
	if got := rt.xstream(0).Stats().Completions.Load(); got != 2 {
		t.Fatalf("%d completions, want 2 (root, child): the stale entry ran", got)
	}
	for i := 0; i < 256; i++ {
		if ult.New(func(*ult.ULT) {}) == u {
			t.Fatal("direct-switched descriptor was recycled")
		}
	}
}

// A joinee placed on another stream is not switched to: it runs on its
// own stream while the joiner parks.
func TestJoinSwitchKeepsPlacement(t *testing.T) {
	rt := Init(Config{XStreams: 2, Pools: PrivatePools})
	defer rt.Finalize()
	for i := 0; i < 20; i++ {
		seen := -1
		runRoot(t, rt, func(c *Context) {
			child := c.ThreadCreateTo(func(cc *Context) { seen = cc.XStreamID() }, 1)
			if err := c.JoinFree(child); err != nil {
				t.Error(err)
			}
		})
		if seen != 1 {
			t.Fatalf("child placed on ES 1 ran on ES %d", seen)
		}
	}
}

// Hammer the publish-after-switch rule through the reactor's park path:
// each unit hands its unpark to another goroutine that calls it at once,
// racing the suspend's switch back to the stream.
func TestIOParkResumeHammer(t *testing.T) {
	for _, procs := range []int{1, runtime.GOMAXPROCS(0)} {
		prev := runtime.GOMAXPROCS(procs)
		hammerIOPark(t)
		runtime.GOMAXPROCS(prev)
	}
}

func hammerIOPark(t *testing.T) {
	const units, rounds = 16, 20
	rt := Init(Config{XStreams: 2})
	defer rt.Finalize()
	unparks := make(chan func(), units)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for unpark := range unparks {
			unpark()
		}
	}()
	ths := make([]*Thread, units)
	for i := range ths {
		ths[i] = rt.ThreadCreate(func(c *Context) {
			for r := 0; r < rounds; r++ {
				park, unpark := c.IOPark()
				unparks <- unpark
				park()
			}
		})
	}
	for _, th := range ths {
		if err := rt.ThreadFree(th); err != nil {
			t.Error(err)
		}
	}
	close(unparks)
	wg.Wait()
}
