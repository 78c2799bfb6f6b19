package qthreads

import (
	"sync/atomic"
	"testing"
)

func TestConfigValidation(t *testing.T) {
	if err := (Config{Shepherds: 0, WorkersPerShepherd: 1}).Validate(); err == nil {
		t.Fatal("accepted zero shepherds")
	}
	if err := (Config{Shepherds: 1, WorkersPerShepherd: 0}).Validate(); err == nil {
		t.Fatal("accepted zero workers")
	}
	if _, err := Init(Config{}); err == nil {
		t.Fatal("Init accepted the zero config")
	}
	if got := (Config{Shepherds: 4, WorkersPerShepherd: 2}).String(); got != "4 shepherds x 2 workers" {
		t.Fatalf("String = %q", got)
	}
}

func TestLayoutPresets(t *testing.T) {
	pn := PerNode(72)
	if pn.Shepherds != 1 || pn.WorkersPerShepherd != 72 {
		t.Fatalf("PerNode = %+v", pn)
	}
	pc := PerCPU(36)
	if pc.Shepherds != 36 || pc.WorkersPerShepherd != 1 {
		t.Fatalf("PerCPU = %+v", pc)
	}
}

func TestForkReadFF(t *testing.T) {
	rt := MustInit(PerCPU(4))
	defer rt.Finalize()
	const n = 100
	var ran atomic.Int64
	ths := make([]*Thread, n)
	for i := range ths {
		ths[i] = rt.Fork(func(c *Context) { ran.Add(1) })
	}
	for _, th := range ths {
		if v := rt.ReadFF(th); v != 0 {
			t.Fatalf("ReadFF = %d, want 0", v)
		}
	}
	if ran.Load() != n {
		t.Fatalf("ran = %d, want %d", ran.Load(), n)
	}
}

func TestForkToTargetsShepherd(t *testing.T) {
	rt := MustInit(PerCPU(3))
	defer rt.Finalize()
	if rt.NumShepherds() != 3 || rt.NumWorkers() != 3 {
		t.Fatalf("layout = %d shepherds / %d workers", rt.NumShepherds(), rt.NumWorkers())
	}
	const n = 30
	var onShep2 atomic.Int64
	ths := make([]*Thread, n)
	for i := range ths {
		ths[i] = rt.ForkTo(func(c *Context) {
			if c.Shepherd() == 2 {
				onShep2.Add(1)
			}
		}, 2)
	}
	for _, th := range ths {
		rt.ReadFF(th)
	}
	if onShep2.Load() != n {
		t.Fatalf("%d of %d threads saw shepherd 2", onShep2.Load(), n)
	}
}

func TestMultipleWorkersPerShepherd(t *testing.T) {
	rt := MustInit(Config{Shepherds: 1, WorkersPerShepherd: 4})
	defer rt.Finalize()
	const n = 200
	var ran atomic.Int64
	ths := make([]*Thread, n)
	for i := range ths {
		ths[i] = rt.Fork(func(c *Context) { ran.Add(1) })
	}
	for _, th := range ths {
		rt.ReadFF(th)
	}
	if ran.Load() != n {
		t.Fatalf("ran = %d, want %d", ran.Load(), n)
	}
}

func TestDoneNonBlocking(t *testing.T) {
	rt := MustInit(PerCPU(1))
	defer rt.Finalize()
	th := rt.Fork(func(c *Context) {})
	rt.ReadFF(th)
	if !th.Done() {
		t.Fatal("Done = false after ReadFF")
	}
}

func TestNestedForkAndCooperativeReadFF(t *testing.T) {
	rt := MustInit(PerCPU(2))
	defer rt.Finalize()
	var sum atomic.Int64
	parent := rt.Fork(func(c *Context) {
		kids := make([]*Thread, 8)
		for i := range kids {
			kids[i] = c.Fork(func(cc *Context) { sum.Add(1) })
		}
		for _, k := range kids {
			c.ReadFF(k) // cooperative join: polls and yields
		}
		remote := c.ForkTo(func(cc *Context) { sum.Add(10) }, 1)
		c.ReadFF(remote)
	})
	rt.ReadFF(parent)
	if got := sum.Load(); got != 18 {
		t.Fatalf("sum = %d, want 18", got)
	}
}

func TestYieldInterleavesOnOneWorker(t *testing.T) {
	// One shepherd, one worker: two qthreads can only interleave if
	// Yield really returns control to the shepherd queue.
	rt := MustInit(PerCPU(1))
	defer rt.Finalize()
	var mu atomic.Int64
	var order []int64
	appendStep := func(v int64) {
		mu.Add(1)
		order = append(order, v)
	}
	a := rt.Fork(func(c *Context) {
		appendStep(1)
		c.Yield()
		appendStep(3)
	})
	b := rt.Fork(func(c *Context) {
		appendStep(2)
	})
	rt.ReadFF(a)
	rt.ReadFF(b)
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("interleaving = %v, want [1 2 3]", order)
	}
}

func TestFEBExposedForUserSync(t *testing.T) {
	rt := MustInit(PerCPU(2))
	defer rt.Finalize()
	addr := rt.FEB().Alloc()
	th := rt.Fork(func(c *Context) {
		rt.FEB().WriteF(addr, 123)
	})
	if v := rt.febTable.ReadFF(addr); v != 123 {
		t.Fatalf("user FEB word = %d, want 123", v)
	}
	rt.ReadFF(th)
}

func TestReturnValueWordIsPerThread(t *testing.T) {
	rt := MustInit(PerCPU(2))
	defer rt.Finalize()
	a := rt.Fork(func(c *Context) {})
	b := rt.Fork(func(c *Context) {})
	if a.Ret() == b.Ret() {
		t.Fatal("two threads share a return-value word")
	}
	rt.ReadFF(a)
	rt.ReadFF(b)
}

func TestFinalizeIdempotent(t *testing.T) {
	rt := MustInit(PerCPU(1))
	rt.Finalize()
	rt.Finalize()
}

func TestShepherdQueueStatsVisible(t *testing.T) {
	rt := MustInit(Config{Shepherds: 1, WorkersPerShepherd: 2})
	defer rt.Finalize()
	const n = 50
	ths := make([]*Thread, n)
	for i := range ths {
		ths[i] = rt.Fork(func(c *Context) {})
	}
	for _, th := range ths {
		rt.ReadFF(th)
	}
	s := rt.shepherds[0]
	if s.ID() != 0 {
		t.Fatalf("shepherd ID = %d", s.ID())
	}
	if got := s.QueueStats().Pushes.Load(); got < n {
		t.Fatalf("queue pushes = %d, want >= %d", got, n)
	}
}
