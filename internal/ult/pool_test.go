package ult

import (
	"runtime"
	"sync"
	"testing"
)

// Freed descriptors are recycled; a recycled descriptor must behave
// exactly like a fresh one (new ID, clean error, working lifecycle).
func TestTaskletDescriptorReuseStress(t *testing.T) {
	e := NewExecutor(0)
	var lastID uint64
	for i := 0; i < 10_000; i++ {
		tk := NewTasklet(func() {})
		if tk.ID() <= lastID {
			t.Fatalf("iteration %d: ID %d not fresh (last %d)", i, tk.ID(), lastID)
		}
		lastID = tk.ID()
		MarkReady(tk)
		if !e.RunTasklet(tk) {
			t.Fatalf("iteration %d: tasklet not claimable", i)
		}
		if tk.Err() != nil {
			t.Fatalf("iteration %d: stale error %v", i, tk.Err())
		}
		if err := tk.Free(); err != nil {
			t.Fatalf("iteration %d: Free: %v", i, err)
		}
	}
}

// ULT descriptors go through the full dispatch protocol before reuse; the
// release handshake must make the recycle safe even when the freeing side
// races the backing goroutine's final hand-back.
func TestULTDescriptorReuseStress(t *testing.T) {
	e := NewExecutor(0)
	for i := 0; i < 2_000; i++ {
		u := New(func(self *ULT) {})
		MarkReady(u)
		if res := e.dispatch(u); res != DispatchDone {
			t.Fatalf("iteration %d: dispatch result %v", i, res)
		}
		if err := u.Free(); err != nil {
			t.Fatalf("iteration %d: Free: %v", i, err)
		}
	}
}

// Concurrent create/run/free cycles across goroutines share the pools;
// run under -race this shakes out unsynchronized descriptor resets.
func TestDescriptorPoolConcurrent(t *testing.T) {
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			e := NewExecutor(w)
			for i := 0; i < 2_000; i++ {
				tk := NewTasklet(func() {})
				MarkReady(tk)
				e.RunTasklet(tk)
				if err := tk.Free(); err != nil {
					t.Errorf("tasklet free: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

// A YieldTo hint set before its target was freed must not dispatch the
// descriptor's next incarnation: the generation check drops it.
func TestStaleHintDroppedAfterRecycle(t *testing.T) {
	runner := NewExecutor(0)
	target := NewExecutor(1)

	old := New(func(self *ULT) {})
	MarkReady(old)
	runner.dispatch(old)
	// Hint at the completed unit, then free it so the descriptor enters
	// the pool.
	target.setHint(old)
	if err := old.Free(); err != nil {
		t.Fatalf("Free: %v", err)
	}

	// Hunt for the recycled descriptor: the pool is per-P, so a handful
	// of creations from this goroutine should hand it back.
	var recycled *ULT
	for i := 0; i < 100 && recycled == nil; i++ {
		u := New(func(self *ULT) {})
		if u == old {
			recycled = u
		}
		runtime.Gosched()
	}
	if recycled == nil {
		t.Skip("descriptor not recycled to this goroutine; nothing to check")
	}

	// The next incarnation is Ready in some pool; the stale hint must not
	// claim it.
	MarkReady(recycled)
	if _, _, ok := target.dispatchHint(); ok {
		t.Fatal("stale hint dispatched a recycled descriptor")
	}
	if recycled.Status() != StatusReady {
		t.Fatalf("recycled unit status %v, want Ready", recycled.Status())
	}
}
