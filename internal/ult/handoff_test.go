package ult

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// TestSuspendResumeRaceStress reproduces the hand-off race fixed by
// carrying the disposition inside the hand-back message: a suspended ULT
// may be resumed and re-dispatched on another executor before the
// original executor has classified the hand-off. Classifying from the
// unit's live status panicked ("dispatched unit returned in state
// running"); the message-borne status must stay correct under arbitrary
// interleavings.
func TestSuspendResumeRaceStress(t *testing.T) {
	const rounds = 300
	for r := 0; r < rounds; r++ {
		e1 := NewExecutor(1)
		e2 := NewExecutor(2)

		var stage atomic.Int32
		u := New(func(self *ULT) {
			stage.Store(1)
			self.Suspend()
			stage.Store(2)
		})
		MarkReady(u)

		// The resumer hammers Resume so it lands as close as possible
		// to the Blocked store inside Suspend.
		var wg sync.WaitGroup
		wg.Add(2)
		redispatched := make(chan DispatchResult, 1)
		go func() {
			defer wg.Done()
			for !u.Resume() {
				if u.Done() {
					return
				}
				runtime.Gosched()
			}
			// Immediately re-dispatch on the other executor.
			redispatched <- e2.dispatch(u)
		}()
		go func() {
			defer wg.Done()
			res := e1.dispatch(u)
			if res != DispatchBlocked {
				t.Errorf("round %d: first dispatch = %v, want blocked", r, res)
			}
		}()
		wg.Wait()
		if res := <-redispatched; res != DispatchDone {
			t.Fatalf("round %d: re-dispatch = %v, want done", r, res)
		}
		if stage.Load() != 2 {
			t.Fatalf("round %d: body did not complete (stage=%d)", r, stage.Load())
		}
	}
}

// TestYieldWithStalePoolEntryStress exercises the other half of the
// claim protocol: a unit dispatched through a YieldTo hint leaves a stale
// pool entry behind; when the unit later yields, a racing executor may
// claim the stale entry while the original owner is still processing the
// hand-off. The single-runner invariant must hold throughout.
func TestYieldWithStalePoolEntryStress(t *testing.T) {
	const rounds = 200
	for r := 0; r < rounds; r++ {
		e1 := NewExecutor(1)
		e2 := NewExecutor(2)

		var running atomic.Int32
		var maxConcurrent atomic.Int32
		body := func(self *ULT) {
			n := running.Add(1)
			if m := maxConcurrent.Load(); n > m {
				maxConcurrent.CompareAndSwap(m, n)
			}
			self.Yield()
			running.Add(-1)
		}
		u := New(body)
		MarkReady(u)

		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			for {
				res := e1.dispatch(u)
				if res == DispatchDone || u.Done() {
					return
				}
				runtime.Gosched()
			}
		}()
		go func() {
			defer wg.Done()
			for {
				res := e2.dispatch(u)
				if res == DispatchDone || u.Done() {
					return
				}
				runtime.Gosched()
			}
		}()
		wg.Wait()
		if got := maxConcurrent.Load(); got > 1 {
			t.Fatalf("round %d: %d concurrent executions of one ULT", r, got)
		}
	}
}
