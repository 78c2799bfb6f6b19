package core_test

import (
	"context"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
)

// TestAsyncIOCapability pins the promise the README's fallback matrix
// documents: every backend advertises AsyncIO.
func TestAsyncIOCapability(t *testing.T) {
	for _, name := range core.Backends() {
		r := core.MustOpen(core.Config{Backend: name, Executors: 2})
		if !r.Caps().AsyncIO {
			t.Errorf("%s: AsyncIO capability not set", name)
		}
		r.Finalize()
	}
}

// TestSleepInULT drives core.Sleep from inside a work unit on every
// backend: the unit must block at least the requested duration and the
// join must complete (the unit resumed after parking).
func TestSleepInULT(t *testing.T) {
	for _, name := range core.Backends() {
		t.Run(name, func(t *testing.T) {
			r := core.MustOpen(core.Config{Backend: name, Executors: 2})
			defer r.Finalize()
			var elapsed atomic.Int64
			h := r.ULTCreate(func(c core.Ctx) {
				start := time.Now()
				core.Sleep(c, 10*time.Millisecond)
				elapsed.Store(int64(time.Since(start)))
			})
			r.Join(h)
			if got := time.Duration(elapsed.Load()); got < 10*time.Millisecond {
				t.Fatalf("slept %v, want >= 10ms", got)
			}
		})
	}
}

// TestSleepResumeNotStarvedByYieldSpin pins scheduling fairness for
// resumed units: with a single executor and a main flow that yield-spins
// waiting for the result (a polling master's exact shape), the parked
// unit's resume must still get dispatched. A scheduler that only serves
// externally-resumed work when its local queue is empty livelocks here —
// the spinning main flow's continuation keeps the local queue non-empty
// forever (caught live on massivethreads: the benchmark's first request
// never completed).
func TestSleepResumeNotStarvedByYieldSpin(t *testing.T) {
	for _, name := range core.Backends() {
		t.Run(name, func(t *testing.T) {
			r := core.MustOpen(core.Config{Backend: name, Executors: 1})
			defer r.Finalize()
			var done atomic.Bool
			h := r.ULTCreate(func(c core.Ctx) {
				core.Sleep(c, 5*time.Millisecond)
				done.Store(true)
			})
			deadline := time.Now().Add(10 * time.Second)
			for !done.Load() && time.Now().Before(deadline) {
				r.Yield()
			}
			if !done.Load() {
				t.Fatal("parked unit never resumed while the main flow yield-spun")
			}
			r.Join(h)
		})
	}
}

// TestSleepFreesExecutor is the tentpole's contract in miniature: with a
// single executor, a sleeping unit must hand the executor to its
// sibling instead of occupying it — the sibling finishes while the
// sleeper is still parked.
func TestSleepFreesExecutor(t *testing.T) {
	for _, name := range core.Backends() {
		t.Run(name, func(t *testing.T) {
			r := core.MustOpen(core.Config{Backend: name, Executors: 1})
			defer r.Finalize()
			var siblingDone atomic.Bool
			var sawSibling atomic.Bool
			sleeper := r.ULTCreate(func(c core.Ctx) {
				core.Sleep(c, 50*time.Millisecond)
				sawSibling.Store(siblingDone.Load())
			})
			sibling := r.ULTCreate(func(c core.Ctx) {
				siblingDone.Store(true)
			})
			r.Join(sibling)
			r.Join(sleeper)
			if !sawSibling.Load() {
				t.Fatalf("sibling did not run while the sleeper was parked")
			}
		})
	}
}

// TestSleepNilCtx covers degradation tier 3: no work unit, plain
// time.Sleep semantics.
func TestSleepNilCtx(t *testing.T) {
	start := time.Now()
	core.Sleep(nil, 5*time.Millisecond)
	if got := time.Since(start); got < 5*time.Millisecond {
		t.Fatalf("slept %v, want >= 5ms", got)
	}
}

// TestDeadlineInULT checks cancellation propagation through the parked
// wait on a parking backend and on the nil-context fallback.
func TestDeadlineInULT(t *testing.T) {
	r := core.MustOpen(core.Config{Backend: "argobots", Executors: 2})
	defer r.Finalize()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	var err atomic.Value
	h := r.ULTCreate(func(c core.Ctx) {
		err.Store(core.Deadline(c, ctx))
	})
	r.Join(h)
	if got := err.Load(); got != context.DeadlineExceeded {
		t.Fatalf("Deadline = %v, want DeadlineExceeded", got)
	}
	if core.Deadline(nil, context.Background()) != nil {
		t.Fatalf("uncancellable context should return nil immediately")
	}
}

// TestAwaitIOInULT parks a unit on a future-shaped channel and closes
// it from outside the runtime.
func TestAwaitIOInULT(t *testing.T) {
	r := core.MustOpen(core.Config{Backend: "qthreads", Executors: 2})
	defer r.Finalize()
	done := make(chan struct{})
	var woke atomic.Bool
	h := r.ULTCreate(func(c core.Ctx) {
		core.AwaitIO(c, done)
		woke.Store(true)
	})
	time.AfterFunc(5*time.Millisecond, func() { close(done) })
	r.Join(h)
	if !woke.Load() {
		t.Fatalf("AwaitIO did not return after close")
	}
}

// TestReadWriteIOInULT moves bytes through a net.Pipe from inside work
// units: the reader parks until the writer's bytes arrive.
func TestReadWriteIOInULT(t *testing.T) {
	r := core.MustOpen(core.Config{Backend: "go", Executors: 2})
	defer r.Finalize()
	client, server := net.Pipe()
	defer client.Close()
	defer server.Close()
	var got atomic.Value
	reader := r.ULTCreate(func(c core.Ctx) {
		buf := make([]byte, 16)
		n, err := core.ReadIO(c, server, buf)
		if err != nil {
			got.Store(err.Error())
			return
		}
		got.Store(string(buf[:n]))
	})
	writer := r.ULTCreate(func(c core.Ctx) {
		core.WriteIO(c, client, []byte("ping"))
	})
	r.Join(writer)
	r.Join(reader)
	if got.Load() != "ping" {
		t.Fatalf("ReadIO got %v, want ping", got.Load())
	}
}
