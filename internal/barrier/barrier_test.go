package barrier

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func exerciseBarrier(t *testing.T, mk func(n int) Barrier) {
	t.Helper()
	const n, rounds = 8, 20
	b := mk(n)
	if b.Parties() != n {
		t.Fatalf("Parties = %d, want %d", b.Parties(), n)
	}
	var phase atomic.Int32
	var violations atomic.Int32
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				// Everyone must observe the same phase before the
				// barrier; anyone seeing a later phase means a
				// participant escaped a previous round early.
				if int(phase.Load()) > r {
					violations.Add(1)
				}
				b.Wait()
				phase.CompareAndSwap(int32(r), int32(r+1))
				b.Wait()
			}
		}()
	}
	wg.Wait()
	if violations.Load() != 0 {
		t.Fatalf("%d barrier-phase violations", violations.Load())
	}
	if got := phase.Load(); got != rounds {
		t.Fatalf("completed phases = %d, want %d", got, rounds)
	}
}

func TestCentralBarrier(t *testing.T) {
	exerciseBarrier(t, func(n int) Barrier { return NewCentral(n) })
}

func TestSpinBarrier(t *testing.T) {
	exerciseBarrier(t, func(n int) Barrier { return NewSpin(n) })
}

func TestCentralBarrierSingleParty(t *testing.T) {
	b := NewCentral(1)
	for i := 0; i < 5; i++ {
		b.Wait() // must never block
	}
	if b.Arrivals.Load() != 5 {
		t.Fatalf("arrivals = %d, want 5", b.Arrivals.Load())
	}
}

func TestSpinBarrierSingleParty(t *testing.T) {
	b := NewSpin(1)
	for i := 0; i < 5; i++ {
		b.Wait()
	}
}

func TestBarrierPanicsOnZeroParties(t *testing.T) {
	for _, mk := range []func(){
		func() { NewCentral(0) },
		func() { NewSpin(0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("zero-party barrier did not panic")
				}
			}()
			mk()
		}()
	}
}

func TestBarrierBlocksUntilLastArrival(t *testing.T) {
	b := NewCentral(2)
	released := make(chan struct{})
	go func() {
		b.Wait()
		close(released)
	}()
	select {
	case <-released:
		t.Fatal("barrier released with one of two parties")
	case <-time.After(20 * time.Millisecond):
	}
	b.Wait()
	select {
	case <-released:
	case <-time.After(2 * time.Second):
		t.Fatal("barrier never released")
	}
}
