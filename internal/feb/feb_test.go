package feb

import (
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestAllocStartsEmpty(t *testing.T) {
	tb := NewTable()
	a := tb.Alloc()
	if tb.IsFull(a) {
		t.Fatal("fresh word is full")
	}
	if _, ok := tb.TryReadFF(a); ok {
		t.Fatal("TryReadFF succeeded on empty word")
	}
}

func TestUntouchedAddressIsEmpty(t *testing.T) {
	tb := NewTable()
	// FEB semantics cover all of memory: an address never Alloc'd is a
	// valid empty word.
	a := Addr(0xdeadbeef)
	if tb.IsFull(a) {
		t.Fatal("untouched address reports full")
	}
	tb.WriteF(a, 7)
	if v := tb.ReadFF(a); v != 7 {
		t.Fatalf("ReadFF = %d, want 7", v)
	}
}

func TestWriteFReadFF(t *testing.T) {
	tb := NewTable()
	a := tb.Alloc()
	tb.WriteF(a, 42)
	if !tb.IsFull(a) {
		t.Fatal("word empty after WriteF")
	}
	if v := tb.ReadFF(a); v != 42 {
		t.Fatalf("ReadFF = %d, want 42", v)
	}
	// ReadFF leaves the word full.
	if !tb.IsFull(a) {
		t.Fatal("ReadFF emptied the word")
	}
	if v, ok := tb.TryReadFF(a); !ok || v != 42 {
		t.Fatalf("TryReadFF = %d,%v want 42,true", v, ok)
	}
}

func TestReadFEEmptiesWord(t *testing.T) {
	tb := NewTable()
	a := tb.Alloc()
	tb.WriteF(a, 9)
	if v := tb.ReadFE(a); v != 9 {
		t.Fatalf("ReadFE = %d, want 9", v)
	}
	if tb.IsFull(a) {
		t.Fatal("word still full after ReadFE")
	}
}

func TestReadFFBlocksUntilFill(t *testing.T) {
	tb := NewTable()
	a := tb.Alloc()
	got := make(chan uint64, 1)
	go func() { got <- tb.ReadFF(a) }()
	select {
	case <-got:
		t.Fatal("ReadFF returned on an empty word")
	case <-time.After(20 * time.Millisecond):
	}
	tb.WriteF(a, 5)
	select {
	case v := <-got:
		if v != 5 {
			t.Fatalf("ReadFF = %d, want 5", v)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("ReadFF never woke")
	}
	if tb.Waits() == 0 {
		t.Fatal("blocking read did not count a wait")
	}
}

func TestWriteEFBlocksUntilEmpty(t *testing.T) {
	tb := NewTable()
	a := tb.Alloc()
	tb.WriteF(a, 1)
	wrote := make(chan struct{})
	go func() {
		tb.WriteEF(a, 2)
		close(wrote)
	}()
	select {
	case <-wrote:
		t.Fatal("WriteEF returned on a full word")
	case <-time.After(20 * time.Millisecond):
	}
	if v := tb.ReadFE(a); v != 1 {
		t.Fatalf("ReadFE = %d, want 1", v)
	}
	select {
	case <-wrote:
	case <-time.After(2 * time.Second):
		t.Fatal("WriteEF never completed")
	}
	if v := tb.ReadFF(a); v != 2 {
		t.Fatalf("ReadFF = %d, want 2", v)
	}
}

func TestFillAndEmpty(t *testing.T) {
	tb := NewTable()
	a := tb.Alloc()
	tb.Fill(a)
	if !tb.IsFull(a) {
		t.Fatal("Fill did not set full")
	}
	tb.Empty(a)
	if tb.IsFull(a) {
		t.Fatal("Empty did not clear full")
	}
}

// Producer/consumer hand-off through one word: WriteEF/ReadFE alternate
// strictly, so every value is seen exactly once, in order.
func TestFEBHandoffSequence(t *testing.T) {
	tb := NewTable()
	a := tb.Alloc()
	const n = 200
	var got []uint64
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < n; i++ {
			tb.WriteEF(a, uint64(i))
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < n; i++ {
			got = append(got, tb.ReadFE(a))
		}
	}()
	wg.Wait()
	for i := 0; i < n; i++ {
		if got[i] != uint64(i) {
			t.Fatalf("hand-off out of order at %d: %d", i, got[i])
		}
	}
}

func TestFEBMutexMutualExclusion(t *testing.T) {
	tb := NewTable()
	m := tb.Alloc()
	tb.Fill(m) // a full word is an unlocked mutex
	const workers, iters = 8, 500
	counter := 0
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < iters; j++ {
				tb.Lock(m)
				counter++
				tb.Unlock(m)
			}
		}()
	}
	wg.Wait()
	if counter != workers*iters {
		t.Fatalf("counter = %d, want %d (lost updates)", counter, workers*iters)
	}
}

func TestManyWaitersAllWake(t *testing.T) {
	tb := NewTable()
	a := tb.Alloc()
	const waiters = 32
	var wg sync.WaitGroup
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if v := tb.ReadFF(a); v != 77 {
				t.Errorf("ReadFF = %d, want 77", v)
			}
		}()
	}
	time.Sleep(10 * time.Millisecond)
	tb.WriteF(a, 77)
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("not all ReadFF waiters woke")
	}
}

func TestShardingIsolation(t *testing.T) {
	tb := NewTable()
	// Words in different shards are independent.
	addrs := make([]Addr, 200)
	for i := range addrs {
		addrs[i] = tb.Alloc()
		tb.WriteF(addrs[i], uint64(i))
	}
	for i, a := range addrs {
		if v := tb.ReadFF(a); v != uint64(i) {
			t.Fatalf("word %d holds %d", i, v)
		}
	}
}

func TestIncrFFCountsAtomically(t *testing.T) {
	tb := NewTable()
	a := tb.Alloc()
	tb.WriteF(a, 0)
	const workers, iters = 8, 200
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < iters; j++ {
				tb.IncrFF(a, 1)
			}
		}()
	}
	wg.Wait()
	if v := tb.ReadFF(a); v != workers*iters {
		t.Fatalf("counter = %d, want %d", v, workers*iters)
	}
}

func TestIncrFFBlocksOnEmpty(t *testing.T) {
	tb := NewTable()
	a := tb.Alloc()
	got := make(chan uint64, 1)
	go func() { got <- tb.IncrFF(a, 5) }()
	select {
	case <-got:
		t.Fatal("IncrFF returned on an empty word")
	case <-time.After(20 * time.Millisecond):
	}
	tb.WriteF(a, 10)
	select {
	case v := <-got:
		if v != 15 {
			t.Fatalf("IncrFF = %d, want 15", v)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("IncrFF never woke")
	}
}

func TestSwapFF(t *testing.T) {
	tb := NewTable()
	a := tb.Alloc()
	tb.WriteF(a, 3)
	if old := tb.SwapFF(a, 9); old != 3 {
		t.Fatalf("SwapFF old = %d, want 3", old)
	}
	if v := tb.ReadFF(a); v != 9 {
		t.Fatalf("value after swap = %d, want 9", v)
	}
	if !tb.IsFull(a) {
		t.Fatal("SwapFF emptied the word")
	}
}

// Property: WriteF then ReadFF round-trips any value at any address.
func TestWriteReadRoundTripProperty(t *testing.T) {
	tb := NewTable()
	f := func(addr uint64, v uint64) bool {
		a := Addr(addr)
		tb.WriteF(a, v)
		return tb.ReadFF(a) == v
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestFreeReleasesWord(t *testing.T) {
	tb := NewTable()
	a := tb.Alloc()
	tb.WriteF(a, 42)
	if !tb.IsFull(a) {
		t.Fatal("word not full after WriteF")
	}
	tb.Free(a)
	// A freed address behaves like untouched memory: recreated empty.
	if tb.IsFull(a) {
		t.Fatal("freed word still full")
	}
	if _, ok := tb.TryReadFF(a); ok {
		t.Fatal("freed word still readable")
	}
}
