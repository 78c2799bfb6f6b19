package lwt_test

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	lwt "repro"
)

func TestPublicAPIListing4(t *testing.T) {
	for _, backend := range lwt.Backends() {
		backend := backend
		t.Run(backend, func(t *testing.T) {
			r, err := lwt.Open(lwt.Config{Backend: backend, Executors: 3})
			if err != nil {
				t.Fatal(err)
			}
			var ran atomic.Int64
			hs := make([]lwt.Handle, 50)
			for i := range hs {
				hs[i] = r.ULTCreate(func(lwt.Ctx) { ran.Add(1) })
			}
			r.Yield()
			r.JoinAll(hs)
			r.Finalize()
			if ran.Load() != 50 {
				t.Fatalf("ran = %d, want 50", ran.Load())
			}
		})
	}
}

func TestPublicAPIUnknownBackend(t *testing.T) {
	_, err := lwt.Open(lwt.Config{Backend: "not-a-backend", Executors: 2})
	if !errors.Is(err, lwt.ErrUnknownBackend) {
		t.Fatalf("err = %v, want ErrUnknownBackend", err)
	}
}

// TestPublicAPISchedulerAndSync drives the v2 additions end to end on a
// pinning backend: scheduler selection, placement, and a lock held
// across a yield.
func TestPublicAPISchedulerAndSync(t *testing.T) {
	r, err := lwt.Open(lwt.Config{Backend: "argobots", Executors: 2, Scheduler: "lifo", Strict: true})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Finalize()
	if got := r.Config().Scheduler; got != "lifo" {
		t.Fatalf("granted scheduler = %q, want lifo", got)
	}
	m := r.NewMutex()
	counter := 0
	var pinned atomic.Int64
	hs := make([]lwt.Handle, 8)
	for i := range hs {
		i := i
		hs[i] = r.ULTCreateTo(i, func(c lwt.Ctx) {
			if c.ExecutorID() == i%r.NumExecutors() {
				pinned.Add(1)
			}
			m.Lock(c)
			c.Yield()
			counter++
			m.Unlock()
		})
	}
	r.JoinAll(hs)
	m.Lock(r)
	got := counter
	m.Unlock()
	if got != len(hs) {
		t.Fatalf("counter = %d, want %d", got, len(hs))
	}
	if int(pinned.Load()) != len(hs) {
		t.Fatalf("pinned = %d of %d (argobots promises placement)", pinned.Load(), len(hs))
	}
}

// registerFake registers the fake backend once per process: the
// registry is global and Register panics on a duplicate name, so a
// repeated run (-count=2) must not register it again.
var registerFake sync.Once

func TestPublicAPICustomBackendRegistration(t *testing.T) {
	// A user-supplied backend plugs into the same registry the built-in
	// adapters use.
	registerFake.Do(func() {
		lwt.Register("custom-test-backend", func() lwt.Backend { return &fakeBackend{} })
	})
	r := lwt.MustOpen(lwt.Config{Backend: "custom-test-backend", Executors: 1})
	h := r.ULTCreate(func(lwt.Ctx) {})
	r.Join(h)
	r.Finalize()
	fb := r.Backend().(*fakeBackend)
	if !fb.finalized || fb.created != 1 {
		t.Fatalf("custom backend saw created=%d finalized=%v", fb.created, fb.finalized)
	}
}

// fakeBackend is a synchronous stand-in proving the Backend surface is
// implementable outside the module.
type fakeBackend struct {
	created   int
	finalized bool
}

type fakeHandle struct{ done bool }

func (h *fakeHandle) Done() bool { return h.done }

type fakeCtx struct{ b *fakeBackend }

func (c *fakeCtx) Yield()               {}
func (c *fakeCtx) YieldTo(h lwt.Handle) {}
func (c *fakeCtx) ULTCreate(fn func(lwt.Ctx)) lwt.Handle {
	return c.b.ULTCreate(fn)
}
func (c *fakeCtx) ULTCreateTo(executor int, fn func(lwt.Ctx)) lwt.Handle {
	return c.b.ULTCreate(fn)
}
func (c *fakeCtx) TaskletCreate(fn func()) lwt.Handle {
	return c.b.TaskletCreate(fn)
}
func (c *fakeCtx) Join(h lwt.Handle) {}
func (c *fakeCtx) ExecutorID() int   { return 0 }
func (c *fakeCtx) NumExecutors() int { return 1 }

func (b *fakeBackend) Name() string              { return "custom-test-backend" }
func (b *fakeBackend) Init(cfg lwt.Config) error { return nil }
func (b *fakeBackend) NumExecutors() int         { return 1 }
func (b *fakeBackend) Yield()                    {}
func (b *fakeBackend) Join(h lwt.Handle)         {}
func (b *fakeBackend) Finalize()                 { b.finalized = true }
func (b *fakeBackend) Caps() lwt.Capabilities {
	return lwt.Capabilities{HierarchyLevels: 1, WorkUnitTypes: 1, SyncMechanism: "atomic"}
}
func (b *fakeBackend) ULTCreate(fn func(lwt.Ctx)) lwt.Handle {
	b.created++
	fn(&fakeCtx{b: b})
	return &fakeHandle{done: true}
}
func (b *fakeBackend) ULTCreateTo(executor int, fn func(lwt.Ctx)) lwt.Handle {
	return b.ULTCreate(fn)
}
func (b *fakeBackend) TaskletCreate(fn func()) lwt.Handle {
	fn()
	return &fakeHandle{done: true}
}

// rotatingRouter deals unkeyed submissions to shards in strict
// rotation: a test-local lwt.Router for an exact spread.
type rotatingRouter struct{ next atomic.Uint64 }

func (r *rotatingRouter) Pick(n int, _ func(int) int) int {
	return int((r.next.Add(1) - 1) % uint64(n))
}

// TestPublicShardedServing pins the root-package sharded serving
// surface: ServeOptions shard fields and the Router seam, keyed
// submission with stable affinity, and per-shard metrics.
func TestPublicShardedServing(t *testing.T) {
	var router lwt.Router = &rotatingRouter{}
	srv, err := lwt.NewServer(lwt.ServeOptions{
		Backend: "go", Threads: 1, Shards: 2, Router: router, QueueDepth: 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	sub := srv.Submitter()
	if srv.NumShards() != 2 {
		t.Fatalf("NumShards = %d, want 2", srv.NumShards())
	}
	for i := 0; i < 20; i++ {
		f, err := lwt.Do(sub, context.Background(), func() (int, error) { return i, nil }, lwt.Req{Key: "sess"})
		if err != nil {
			t.Fatal(err)
		}
		if v := f.MustWait(); v != i {
			t.Fatalf("keyed result = %d, want %d", v, i)
		}
	}
	pinned := srv.ShardOf("sess")
	sm := srv.ShardMetrics()
	if sm[pinned].Submitted != 20 || sm[1-pinned].Submitted != 0 {
		t.Fatalf("keyed affinity split = %d/%d, want 20 on shard %d",
			sm[0].Submitted, sm[1].Submitted, pinned)
	}
	f, err := lwt.DoULT(sub, context.Background(), func(c lwt.Ctx) (int, error) {
		var child int
		h := c.ULTCreate(func(lwt.Ctx) { child = 9 })
		c.Join(h)
		return child, nil
	}, lwt.Req{Key: "sess"})
	if err != nil {
		t.Fatal(err)
	}
	if v := f.MustWait(); v != 9 {
		t.Fatalf("keyed ULT result = %d", v)
	}
	if m := srv.Metrics(); m.Shard != -1 || m.Shards != 2 || m.Completed != 21 {
		t.Fatalf("aggregate metrics = %+v", m)
	}
}
