package serve

import (
	"context"
	"errors"
	"sync"
	"testing"
)

// closed reports whether ch is closed, without blocking.
func closed(ch <-chan struct{}) bool {
	select {
	case <-ch:
		return true
	default:
		return false
	}
}

func TestFutureDoneBeforeComplete(t *testing.T) {
	var f Future[int]
	ch := f.Done()
	if closed(ch) || f.Ready() {
		t.Fatal("unresolved future reports done")
	}
	if again := f.Done(); again != ch {
		t.Fatal("second Done before completion made another channel")
	}
	f.complete(7, nil)
	if !closed(ch) || !f.Ready() {
		t.Fatal("completion did not close the waiter's channel")
	}
	if v, err := f.Wait(context.Background()); v != 7 || err != nil {
		t.Fatalf("Wait = (%d, %v), want (7, nil)", v, err)
	}
}

func TestFutureDoneAfterComplete(t *testing.T) {
	var f Future[int]
	boom := errors.New("boom")
	f.complete(0, boom)
	if !f.Ready() || !closed(f.Done()) {
		t.Fatal("resolved future not done")
	}
	if f.Done() != f.Done() {
		t.Fatal("resolved future hands out different channels")
	}
	if _, err := f.Wait(context.Background()); !errors.Is(err, boom) {
		t.Fatalf("Wait err = %v, want boom", err)
	}
}

func TestFutureWaitAgainAfterCancelledWait(t *testing.T) {
	var f Future[int]
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := f.Wait(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled Wait = %v, want context.Canceled", err)
	}
	if f.Ready() {
		t.Fatal("cancelled Wait resolved the future")
	}
	f.complete(3, nil)
	if v, err := f.Wait(context.Background()); v != 3 || err != nil {
		t.Fatalf("second Wait = (%d, %v), want (3, nil)", v, err)
	}
	if f.MustWait() != 3 {
		t.Fatal("MustWait after a cancelled Wait resolved wrong")
	}
}

// TestFutureDoneRacesComplete races two Done callers against complete
// 10^4 times; run it under -race. Every Done channel must close and
// publish the value.
func TestFutureDoneRacesComplete(t *testing.T) {
	const rounds = 10_000
	for i := 0; i < rounds; i++ {
		f := new(Future[int])
		var wg sync.WaitGroup
		wg.Add(3)
		for w := 0; w < 2; w++ {
			go func() {
				defer wg.Done()
				<-f.Done()
				if f.val != i {
					t.Errorf("round %d: Done published %d", i, f.val)
				}
			}()
		}
		go func() {
			defer wg.Done()
			f.complete(i, nil)
		}()
		wg.Wait()
		if !f.Ready() {
			t.Fatalf("round %d: completed future not Ready", i)
		}
	}
}
