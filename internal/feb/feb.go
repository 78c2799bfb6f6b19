// Package feb implements full/empty-bit (FEB) memory synchronization, the
// distinctive mechanism of Qthreads (§III-D): every synchronization word
// carries a full/empty bit, and reads/writes can condition on and change
// that bit atomically. Qthreads builds both its join operation
// (qthread_readFF on the return-value word, Table II) and its mutexes out
// of FEBs; the paper notes this "free access to memory requires hidden
// synchronization, which may severely impact performance" — the hidden
// synchronization is the sharded word table implemented here.
package feb

import (
	"sync"
	"sync/atomic"
)

// Addr identifies a synchronization word in a Table. Addresses are opaque
// and process-unique, standing in for the C library's machine addresses.
type Addr uint64

// word is one full/empty synchronized cell.
type word struct {
	full bool
	val  uint64
	cond *sync.Cond
}

const shardCount = 64

type shard struct {
	mu    sync.Mutex
	words map[Addr]*word
}

// Table is a sharded map of FEB words. The sharding models the hashed
// lock tables real FEB implementations use to cover arbitrary memory.
type Table struct {
	shards  [shardCount]shard
	nextID  atomic.Uint64
	waits   atomic.Uint64
	wakeups atomic.Uint64
}

// NewTable returns an empty FEB table.
func NewTable() *Table {
	t := &Table{}
	for i := range t.shards {
		t.shards[i].words = make(map[Addr]*word)
	}
	return t
}

// Alloc creates a fresh word in the empty state and returns its address.
func (t *Table) Alloc() Addr {
	a := Addr(t.nextID.Add(1))
	s := t.shard(a)
	s.mu.Lock()
	s.words[a] = &word{cond: sync.NewCond(&s.mu)}
	s.mu.Unlock()
	return a
}

func (t *Table) shard(a Addr) *shard { return &t.shards[uint64(a)%shardCount] }

// get returns the word for a, creating it empty on first touch (FEB
// semantics cover all of memory; untouched words are empty).
func (t *Table) get(s *shard, a Addr) *word {
	w := s.words[a]
	if w == nil {
		w = &word{cond: sync.NewCond(&s.mu)}
		s.words[a] = w
	}
	return w
}

// Free removes the word from the table, releasing its entry. Long-lived
// tables (a runtime's lifetime) would otherwise grow by one entry per
// Alloc forever. Freeing a word that still has waiters is a caller
// error; a later touch of the address recreates it empty.
func (t *Table) Free(a Addr) {
	s := t.shard(a)
	s.mu.Lock()
	delete(s.words, a)
	s.mu.Unlock()
}

// Waits reports how many blocking FEB operations had to wait — the
// "hidden synchronization" cost of §III-D made observable.
func (t *Table) Waits() uint64 { return t.waits.Load() }

// Fill sets the word full without changing its value, waking waiters.
func (t *Table) Fill(a Addr) {
	s := t.shard(a)
	s.mu.Lock()
	w := t.get(s, a)
	w.full = true
	s.mu.Unlock()
	w.cond.Broadcast()
	t.wakeups.Add(1)
}

// Empty marks the word empty without changing its value.
func (t *Table) Empty(a Addr) {
	s := t.shard(a)
	s.mu.Lock()
	t.get(s, a).full = false
	s.mu.Unlock()
}

// IsFull reports the word's current state.
func (t *Table) IsFull(a Addr) bool {
	s := t.shard(a)
	s.mu.Lock()
	defer s.mu.Unlock()
	return t.get(s, a).full
}

// WriteF writes the value and sets the word full regardless of its
// previous state (qthread_writeF).
func (t *Table) WriteF(a Addr, v uint64) {
	s := t.shard(a)
	s.mu.Lock()
	w := t.get(s, a)
	w.val = v
	w.full = true
	s.mu.Unlock()
	w.cond.Broadcast()
	t.wakeups.Add(1)
}

// WriteEF blocks until the word is empty, then writes the value and sets
// it full (qthread_writeEF) — the producer half of an FEB hand-off.
func (t *Table) WriteEF(a Addr, v uint64) {
	s := t.shard(a)
	s.mu.Lock()
	w := t.get(s, a)
	for w.full {
		t.waits.Add(1)
		w.cond.Wait()
	}
	w.val = v
	w.full = true
	s.mu.Unlock()
	w.cond.Broadcast()
	t.wakeups.Add(1)
}

// ReadFF blocks until the word is full, then returns its value leaving it
// full (qthread_readFF) — the join operation in Table II.
func (t *Table) ReadFF(a Addr) uint64 {
	s := t.shard(a)
	s.mu.Lock()
	w := t.get(s, a)
	for !w.full {
		t.waits.Add(1)
		w.cond.Wait()
	}
	v := w.val
	s.mu.Unlock()
	return v
}

// TryReadFF returns the value and true if the word is full, without
// blocking — the polling form used from inside cooperative ULTs.
func (t *Table) TryReadFF(a Addr) (uint64, bool) {
	s := t.shard(a)
	s.mu.Lock()
	defer s.mu.Unlock()
	w := t.get(s, a)
	if !w.full {
		return 0, false
	}
	return w.val, true
}

// TryReadFE returns the value and marks the word empty if it is full,
// without blocking — the polling form of ReadFE, used by cooperative
// ULTs that must yield between attempts instead of parking the executor.
func (t *Table) TryReadFE(a Addr) (uint64, bool) {
	s := t.shard(a)
	s.mu.Lock()
	w := t.get(s, a)
	if !w.full {
		s.mu.Unlock()
		return 0, false
	}
	v := w.val
	w.full = false
	s.mu.Unlock()
	w.cond.Broadcast()
	t.wakeups.Add(1)
	return v, true
}

// ReadFE blocks until the word is full, then returns its value and marks
// it empty (qthread_readFE) — the consumer half of an FEB hand-off.
func (t *Table) ReadFE(a Addr) uint64 {
	s := t.shard(a)
	s.mu.Lock()
	w := t.get(s, a)
	for !w.full {
		t.waits.Add(1)
		w.cond.Wait()
	}
	v := w.val
	w.full = false
	s.mu.Unlock()
	w.cond.Broadcast()
	t.wakeups.Add(1)
	return v
}

// IncrFF blocks until the word is full, adds delta, and returns the new
// value, leaving the word full — the FEB fetch-and-add Qthreads exposes
// for counters over synchronized memory.
func (t *Table) IncrFF(a Addr, delta uint64) uint64 {
	s := t.shard(a)
	s.mu.Lock()
	w := t.get(s, a)
	for !w.full {
		t.waits.Add(1)
		w.cond.Wait()
	}
	w.val += delta
	v := w.val
	s.mu.Unlock()
	return v
}

// SwapFF blocks until the word is full, stores v, and returns the
// previous value, leaving the word full.
func (t *Table) SwapFF(a Addr, v uint64) uint64 {
	s := t.shard(a)
	s.mu.Lock()
	w := t.get(s, a)
	for !w.full {
		t.waits.Add(1)
		w.cond.Wait()
	}
	old := w.val
	w.val = v
	s.mu.Unlock()
	return old
}

// Lock acquires a FEB-based mutex on the word: it waits for full and
// takes the token by emptying it. Unlock refills the word. This is how
// Qthreads exposes mutexes over arbitrary memory words.
func (t *Table) Lock(a Addr) { t.ReadFE(a) }

// TryLock attempts to take the FEB mutex token without blocking and
// reports whether it succeeded. Cooperative callers poll it and yield
// their work unit between attempts, so a held lock never parks an
// executor thread.
func (t *Table) TryLock(a Addr) bool {
	_, ok := t.TryReadFE(a)
	return ok
}

// Unlock releases a FEB-based mutex acquired with Lock.
func (t *Table) Unlock(a Addr) { t.Fill(a) }
