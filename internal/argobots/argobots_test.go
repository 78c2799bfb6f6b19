package argobots

import (
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/sched"
)

func TestInitFinalizeEmpty(t *testing.T) {
	rt := Init(Config{XStreams: 2})
	if rt.NumXStreams() != 2 {
		t.Fatalf("NumXStreams = %d, want 2", rt.NumXStreams())
	}
	rt.Finalize()
}

func TestFinalizeIdempotent(t *testing.T) {
	rt := Init(Config{XStreams: 1})
	rt.Finalize()
	rt.Finalize() // must not panic or hang
}

func TestInitPanicsOnZeroStreams(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Init(0 streams) did not panic")
		}
	}()
	Init(Config{XStreams: 0})
}

func TestULTCreateJoinFree(t *testing.T) {
	rt := Init(Config{XStreams: 4})
	defer rt.Finalize()
	const n = 100
	var ran atomic.Int64
	ths := make([]*Thread, n)
	for i := range ths {
		ths[i] = rt.ThreadCreate(func(c *Context) { ran.Add(1) })
	}
	for _, th := range ths {
		if err := rt.ThreadFree(th); err != nil {
			t.Fatalf("ThreadFree: %v", err)
		}
	}
	if got := ran.Load(); got != n {
		t.Fatalf("ran = %d, want %d", got, n)
	}
}

func TestTaskletCreateJoinFree(t *testing.T) {
	rt := Init(Config{XStreams: 4})
	defer rt.Finalize()
	const n = 100
	var ran atomic.Int64
	tks := make([]*Task, n)
	for i := range tks {
		tks[i] = rt.TaskCreate(func() { ran.Add(1) })
	}
	for _, tk := range tks {
		if err := rt.TaskFree(tk); err != nil {
			t.Fatalf("TaskFree: %v", err)
		}
	}
	if got := ran.Load(); got != n {
		t.Fatalf("ran = %d, want %d", got, n)
	}
}

func TestDoubleThreadFreeReportsError(t *testing.T) {
	rt := Init(Config{XStreams: 1})
	defer rt.Finalize()
	th := rt.ThreadCreate(func(c *Context) {})
	if err := rt.ThreadFree(th); err != nil {
		t.Fatalf("first free: %v", err)
	}
	if err := rt.ThreadFree(th); err == nil {
		t.Fatal("second free succeeded")
	}
}

func TestPrivatePoolsSpreadWork(t *testing.T) {
	rt := Init(Config{XStreams: 4, Pools: PrivatePools})
	defer rt.Finalize()
	const n = 400
	// Join through the runtime (TaskFree yields the primary): blocking
	// the primary on an OS-level wait instead would stall ES 0 — the
	// same hazard real Argobots has when main() blocks without
	// yielding.
	tks := make([]*Task, n)
	for i := 0; i < n; i++ {
		tks[i] = rt.TaskCreate(func() {})
	}
	for _, tk := range tks {
		if err := rt.TaskFree(tk); err != nil {
			t.Fatal(err)
		}
	}
	// Round-robin dealing: every stream must have executed some units.
	for i := 0; i < 4; i++ {
		if got := rt.xstream(i).Stats().TaskletRuns.Load(); got == 0 {
			t.Fatalf("ES %d ran no tasklets under private pools", i)
		}
	}
}

func TestSharedPoolMode(t *testing.T) {
	rt := Init(Config{XStreams: 4, Pools: SharedPool})
	defer rt.Finalize()
	const n = 200
	var ran atomic.Int64
	ths := make([]*Thread, n)
	for i := range ths {
		ths[i] = rt.ThreadCreate(func(c *Context) { ran.Add(1) })
	}
	for _, th := range ths {
		if err := rt.ThreadFree(th); err != nil {
			t.Fatalf("ThreadFree: %v", err)
		}
	}
	if ran.Load() != n {
		t.Fatalf("ran = %d, want %d", ran.Load(), n)
	}
}

func TestCreateToTargetsNamedStream(t *testing.T) {
	rt := Init(Config{XStreams: 3, Pools: PrivatePools})
	defer rt.Finalize()
	const n = 30
	var onTwo atomic.Int64
	tks := make([]*Task, n)
	for i := 0; i < n; i++ {
		tks[i] = rt.TaskCreateTo(func() { onTwo.Add(1) }, 2)
	}
	for _, tk := range tks {
		rt.TaskFree(tk)
	}
	if got := rt.xstream(2).Stats().TaskletRuns.Load(); got != n {
		t.Fatalf("ES2 ran %d tasklets, want %d", got, n)
	}
}

func TestYieldToTransfersDirectly(t *testing.T) {
	// Both ULTs forced onto ES 1 so the hand-off is observable. The
	// creator spawns the target itself: while it runs it holds ES 1's
	// executor, so the target cannot be scheduler-popped before the
	// YieldTo hint lands — the hand-off is deterministic.
	rt := Init(Config{XStreams: 2, Pools: PrivatePools})
	defer rt.Finalize()
	var mu sync.Mutex
	var order []string
	note := func(s string) { mu.Lock(); order = append(order, s); mu.Unlock() }

	var b *Thread
	a := rt.ThreadCreateTo(func(c *Context) {
		note("a1")
		b = c.ThreadCreateTo(func(*Context) { note("b") }, 1)
		c.YieldTo(b)
		note("a2")
	}, 1)
	rt.ThreadFree(a)
	rt.ThreadFree(b)

	mu.Lock()
	defer mu.Unlock()
	// The paper's yield_to semantics: control reaches b before a resumes.
	idxA2, idxB := -1, -1
	for i, s := range order {
		switch s {
		case "a2":
			idxA2 = i
		case "b":
			idxB = i
		}
	}
	if idxB == -1 || idxA2 == -1 || idxB > idxA2 {
		t.Fatalf("yield_to order = %v, want b before a2", order)
	}
	if got := rt.xstream(1).Stats().HintHits.Load(); got == 0 {
		t.Fatal("yield_to did not bypass the scheduler (no hint hits)")
	}
}

func TestNestedCreationFromULT(t *testing.T) {
	rt := Init(Config{XStreams: 4})
	defer rt.Finalize()
	var leaves atomic.Int64
	const parents, children = 10, 7
	ths := make([]*Thread, parents)
	for i := 0; i < parents; i++ {
		ths[i] = rt.ThreadCreate(func(c *Context) {
			kids := make([]*Thread, children)
			for j := range kids {
				kids[j] = c.ThreadCreate(func(c2 *Context) { leaves.Add(1) })
			}
			for _, k := range kids {
				c.Join(k)
			}
		})
	}
	for _, th := range ths {
		if err := rt.ThreadFree(th); err != nil {
			t.Fatal(err)
		}
	}
	if got := leaves.Load(); got != parents*children {
		t.Fatalf("leaves = %d, want %d", got, parents*children)
	}
}

func TestContextJoinFreeAndTasklets(t *testing.T) {
	rt := Init(Config{XStreams: 2})
	defer rt.Finalize()
	var sum atomic.Int64
	parent := rt.ThreadCreate(func(c *Context) {
		child := c.ThreadCreate(func(*Context) { sum.Add(1) })
		if err := c.JoinFree(child); err != nil {
			t.Errorf("JoinFree: %v", err)
		}
		tk := c.TaskCreate(func() { sum.Add(10) })
		c.JoinTask(tk)
		tk2 := c.TaskCreateTo(func() { sum.Add(100) }, 0)
		c.JoinTask(tk2)
	})
	rt.ThreadFree(parent)
	if got := sum.Load(); got != 111 {
		t.Fatalf("sum = %d, want 111", got)
	}
}

func TestDynamicXStreamCreation(t *testing.T) {
	rt := Init(Config{XStreams: 1})
	defer rt.Finalize()
	id, err := rt.XStreamCreate()
	if err != nil {
		t.Fatal(err)
	}
	if id != 1 {
		t.Fatalf("new ES id = %d, want 1", id)
	}
	if rt.NumXStreams() != 2 {
		t.Fatalf("NumXStreams = %d, want 2", rt.NumXStreams())
	}
	var ran atomic.Int64
	const n = 20
	tks := make([]*Task, n)
	for i := 0; i < n; i++ {
		tks[i] = rt.TaskCreateTo(func() { ran.Add(1) }, id)
	}
	for _, tk := range tks {
		rt.TaskFree(tk)
	}
	if ran.Load() != n {
		t.Fatalf("ran = %d, want %d", ran.Load(), n)
	}
	if got := rt.xstream(id).Stats().TaskletRuns.Load(); got != n {
		t.Fatalf("dynamic ES ran %d units, want %d", got, n)
	}
}

func TestXStreamCreateAfterFinalize(t *testing.T) {
	rt := Init(Config{XStreams: 1})
	rt.Finalize()
	if _, err := rt.XStreamCreate(); err != ErrFinalized {
		t.Fatalf("err = %v, want ErrFinalized", err)
	}
}

func TestStackableSchedulerPrioritizes(t *testing.T) {
	rt := Init(Config{XStreams: 2, Pools: PrivatePools})
	defer rt.Finalize()

	// Park ES 1 behind a gate so we can queue units before any run.
	gate := make(chan struct{})
	gateTh := rt.ThreadCreateTo(func(c *Context) { <-gate }, 1)

	var mu sync.Mutex
	var order []int
	mk := func(tag int) func() {
		return func() { mu.Lock(); order = append(order, tag); mu.Unlock() }
	}

	low := rt.TaskCreateTo(mk(1), 1)
	// Stack a priority policy on ES 1: units created now go through it.
	prio := sched.NewPriority(2)
	rt.PushScheduler(1, prio)
	high := rt.TaskCreateTo(mk(2), 1)

	close(gate)
	rt.TaskFree(high)
	rt.TaskFree(low)
	rt.ThreadFree(gateTh)

	mu.Lock()
	defer mu.Unlock()
	if len(order) != 2 || order[0] != 2 {
		t.Fatalf("order = %v, want stacked-scheduler unit (2) first", order)
	}

	// Popping with queued units must not lose them.
	rt.PushScheduler(1, sched.NewFIFO())
	tk := rt.TaskCreateTo(func() {}, 1)
	rt.PopScheduler(1)
	rt.TaskFree(tk) // completes only if the unit survived the pop
}

func TestPopSchedulerBasePolicy(t *testing.T) {
	rt := Init(Config{XStreams: 1})
	defer rt.Finalize()
	if p := rt.PopScheduler(0); p != nil {
		t.Fatal("popped the base policy")
	}
}

func TestPrimaryYieldLetsWorkersRun(t *testing.T) {
	rt := Init(Config{XStreams: 1})
	defer rt.Finalize()
	var ran atomic.Bool
	rt.ThreadCreateTo(func(c *Context) { ran.Store(true) }, 0)
	// Only one ES: the worker can only run when the primary yields.
	for !ran.Load() {
		rt.Yield()
	}
}

func TestManyYieldingULTsStress(t *testing.T) {
	rt := Init(Config{XStreams: 4})
	defer rt.Finalize()
	const n, yields = 200, 5
	var total atomic.Int64
	ths := make([]*Thread, n)
	for i := range ths {
		ths[i] = rt.ThreadCreate(func(c *Context) {
			for y := 0; y < yields; y++ {
				total.Add(1)
				c.Yield()
			}
		})
	}
	for _, th := range ths {
		if err := rt.ThreadFree(th); err != nil {
			t.Fatal(err)
		}
	}
	if got := total.Load(); got != n*yields {
		t.Fatalf("total = %d, want %d", got, n*yields)
	}
}

func TestPoolKindString(t *testing.T) {
	if PrivatePools.String() != "private" || SharedPool.String() != "shared" {
		t.Fatal("PoolKind strings wrong")
	}
}

// TestSpawnDetached runs detached tasklets and ULTs to completion:
// each body sees its argument, and a ULT its Context.
func TestSpawnDetached(t *testing.T) {
	rt := Init(Config{XStreams: 2})
	defer rt.Finalize()
	var ran atomic.Int64
	task := func(arg any) { arg.(*atomic.Int64).Add(1) }
	thread := func(c *Context, arg any) {
		c.Yield()
		arg.(*atomic.Int64).Add(1)
	}
	const n = 200
	for i := 0; i < n; i++ {
		rt.TaskSpawn(task, &ran)
		rt.ThreadSpawn(thread, &ran)
	}
	for ran.Load() != 2*n {
		rt.Yield()
	}
}
