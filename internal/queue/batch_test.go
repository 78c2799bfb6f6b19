package queue

import (
	"sync"
	"testing"

	"repro/internal/ult"
)

// Batch insertions must be indistinguishable from per-unit pushes to
// every consumer: same order, same counters, same concurrent safety.

func TestFIFOPushBatchOrder(t *testing.T) {
	q := NewFIFO(8)
	us := mkUnits(1200) // crosses two segment boundaries
	q.PushBatch(us[:700])
	q.PushBatch(us[700:])
	if q.Len() != len(us) {
		t.Fatalf("Len = %d, want %d", q.Len(), len(us))
	}
	for i, want := range us {
		if got := q.Pop(); got != want {
			t.Fatalf("Pop out of ticket order at %d", i)
		}
	}
	if q.Pop() != nil {
		t.Fatal("empty queue returned a unit")
	}
	if got := q.Stats().Pushes.Load(); got != uint64(len(us)) {
		t.Fatalf("push count = %d, want %d", got, len(us))
	}
}

func TestFIFOPushBatchEmptyAndZeroValue(t *testing.T) {
	var q FIFO // zero value, no reserved segment
	q.PushBatch(nil)
	if q.Pop() != nil {
		t.Fatal("empty batch produced a unit")
	}
	us := mkUnits(3)
	q.PushBatch(us)
	for i, want := range us {
		if got := q.Pop(); got != want {
			t.Fatalf("Pop out of order at %d", i)
		}
	}
}

// Concurrent batch producers against concurrent consumers: every unit
// comes out exactly once (run under -race in the CI concurrency suite).
func TestFIFOPushBatchConcurrent(t *testing.T) {
	const producers = 4
	const batches = 50
	const batchLen = 32
	q := NewFIFO(8)
	total := producers * batches * batchLen

	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for b := 0; b < batches; b++ {
				q.PushBatch(mkUnits(batchLen))
			}
		}()
	}

	seen := make(map[ult.Unit]bool, total)
	var mu sync.Mutex
	var cg sync.WaitGroup
	for c := 0; c < 3; c++ {
		cg.Add(1)
		go func() {
			defer cg.Done()
			for {
				u := q.Pop()
				if u == nil {
					mu.Lock()
					done := len(seen) == total
					mu.Unlock()
					if done {
						return
					}
					continue
				}
				mu.Lock()
				if seen[u] {
					mu.Unlock()
					t.Error("unit popped twice")
					return
				}
				seen[u] = true
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	cg.Wait()
	if len(seen) != total {
		t.Fatalf("consumed %d units, want %d", len(seen), total)
	}
}

func TestDequePushBottomBatchOrderAndGrowth(t *testing.T) {
	d := NewDeque(4) // forces growth inside the batch
	us := mkUnits(100)
	d.PushBottomBatch(us)
	if d.Len() != len(us) {
		t.Fatalf("Len = %d, want %d", d.Len(), len(us))
	}
	// Owner LIFO service sees the batch newest-first…
	for i := len(us) - 1; i >= len(us)/2; i-- {
		if got := d.PopBottom(); got != us[i] {
			t.Fatalf("PopBottom out of LIFO order at %d", i)
		}
	}
	// …and thieves see the remaining prefix oldest-first.
	for i := 0; i < len(us)/2; i++ {
		if got := d.StealTop(); got != us[i] {
			t.Fatalf("StealTop out of FIFO order at %d", i)
		}
	}
	if d.PopBottom() != nil {
		t.Fatal("empty deque returned a unit")
	}
}

func TestDequePushBottomBatchAgainstStealers(t *testing.T) {
	const rounds = 200
	const batchLen = 16
	d := NewDeque(8)
	total := rounds * batchLen

	var extracted sync.Map
	var count int64
	var mu sync.Mutex
	record := func(u ult.Unit) bool {
		if _, dup := extracted.LoadOrStore(u, true); dup {
			return false
		}
		mu.Lock()
		count++
		mu.Unlock()
		return true
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					if u := d.StealTop(); u != nil && !record(u) {
						t.Error("stolen unit extracted twice")
						return
					}
				}
			}
		}()
	}
	for r := 0; r < rounds; r++ {
		d.PushBottomBatch(mkUnits(batchLen))
		for j := 0; j < batchLen; j++ {
			u := d.PopBottom()
			if u == nil {
				break // thieves got there first
			}
			if !record(u) {
				t.Fatal("owner unit extracted twice")
			}
		}
	}
	// Drain what the owner lost to timing.
	for {
		u := d.PopBottom()
		if u == nil {
			break
		}
		if !record(u) {
			t.Fatal("drained unit extracted twice")
		}
	}
	close(stop)
	wg.Wait()
	// Thieves may hold steals not yet recorded? No: record happens in
	// the stealer loop before the next iteration, and wg.Wait ordered us
	// after every record.
	mu.Lock()
	got := count
	mu.Unlock()
	if got != int64(total) {
		t.Fatalf("extracted %d units, want %d", got, total)
	}
}

func TestMutexDequePushBottomBatch(t *testing.T) {
	d := NewMutexDeque(4)
	us := mkUnits(20)
	d.PushBottomBatch(us)
	for i := len(us) - 1; i >= 0; i-- {
		if got := d.PopBottom(); got != us[i] {
			t.Fatalf("PopBottom out of LIFO order at %d", i)
		}
	}
}

// BenchmarkQueueBatchOps quantifies what the multi-ticket reservation and
// the single bottom publication buy over per-unit pushes — the submission
// cost the bulk-create API amortizes for the loop and task figures.
func BenchmarkQueueBatchOps(b *testing.B) {
	const batchLen = 64
	us := mkUnits(batchLen)

	b.Run("fifo/single", func(b *testing.B) {
		q := NewFIFO(256)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, u := range us {
				q.Push(u)
			}
			for j := 0; j < batchLen; j++ {
				q.Pop()
			}
		}
	})
	b.Run("fifo/batch", func(b *testing.B) {
		q := NewFIFO(256)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			q.PushBatch(us)
			for j := 0; j < batchLen; j++ {
				q.Pop()
			}
		}
	})
	b.Run("deque/single", func(b *testing.B) {
		d := NewDeque(256)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, u := range us {
				d.PushBottom(u)
			}
			for j := 0; j < batchLen; j++ {
				d.PopBottom()
			}
		}
	})
	b.Run("deque/batch", func(b *testing.B) {
		d := NewDeque(256)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			d.PushBottomBatch(us)
			for j := 0; j < batchLen; j++ {
				d.PopBottom()
			}
		}
	})
}
