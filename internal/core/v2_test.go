package core

import (
	"errors"
	"runtime"
	"sync/atomic"
	"testing"

	"repro/internal/sched"
)

// The v2 (GLT-shaped) conformance suite: placement, scheduler
// negotiation, scheduler-aware synchronization and YieldTo, each pinned
// down on every registered backend so the documented degradation rules
// cannot drift from the implementations.

func TestOpenDefaults(t *testing.T) {
	r, err := Open(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Finalize()
	if r.Name() != "go" {
		t.Fatalf("default backend = %q, want go", r.Name())
	}
	if got := r.Config().Executors; got != runtime.NumCPU() {
		t.Fatalf("default executors = %d, want NumCPU = %d", got, runtime.NumCPU())
	}
	if got := r.NumExecutors(); got != r.Config().Executors {
		t.Fatalf("NumExecutors = %d, want %d", got, r.Config().Executors)
	}
	if len(r.Degradations()) != 0 {
		t.Fatalf("default open degraded: %v", r.Degradations())
	}
}

func TestOpenUnknownSchedulerIsAnError(t *testing.T) {
	_, err := Open(Config{Backend: "argobots", Executors: 1, Scheduler: "no-such-policy"})
	if !errors.Is(err, ErrUnknownScheduler) {
		t.Fatalf("err = %v, want ErrUnknownScheduler", err)
	}
}

// TestSchedulerNegotiationAllBackends requests a non-default policy on
// every backend: capability-listed requests are granted verbatim, others
// degrade to the default with an explicit record, and Strict turns the
// degradation into an error.
func TestSchedulerNegotiationAllBackends(t *testing.T) {
	for _, name := range Backends() {
		name := name
		t.Run(name, func(t *testing.T) {
			r := MustOpen(Config{Backend: name, Executors: 2, Scheduler: sched.NameLIFO})
			caps := r.Caps()
			granted := r.Config().Scheduler
			degs := r.Degradations()
			r.Finalize()
			if caps.SupportsScheduler(sched.NameLIFO) {
				if granted != sched.NameLIFO || len(degs) != 0 {
					t.Fatalf("supported policy degraded: granted %q, degs %v", granted, degs)
				}
			} else {
				if granted != sched.DefaultPolicy {
					t.Fatalf("unsupported policy granted %q, want default", granted)
				}
				if len(degs) != 1 || degs[0].Feature != "scheduler" ||
					degs[0].Requested != sched.NameLIFO || degs[0].Granted != sched.DefaultPolicy {
					t.Fatalf("degradation not recorded: %v", degs)
				}
				// Strict mode refuses instead of degrading.
				_, err := Open(Config{Backend: name, Executors: 2, Scheduler: sched.NameLIFO, Strict: true})
				if !errors.Is(err, ErrUnsupported) {
					t.Fatalf("strict open: err = %v, want ErrUnsupported", err)
				}
			}
		})
	}
}

// TestSchedulerPoliciesRunEverywhere opens every backend under every
// policy its capabilities advertise and runs the Listing 4 shape: the
// selected ready-pool ordering must not change completion semantics.
func TestSchedulerPoliciesRunEverywhere(t *testing.T) {
	for _, name := range Backends() {
		name := name
		t.Run(name, func(t *testing.T) {
			caps := MustOpen(Config{Backend: name, Executors: 1}).alsoFinalize().Caps()
			for _, policy := range caps.Schedulers {
				r := MustOpen(Config{Backend: name, Executors: 3, Scheduler: policy, Strict: true})
				const n = 40
				var ran atomic.Int64
				hs := make([]Handle, n)
				for i := range hs {
					hs[i] = r.ULTCreate(func(Ctx) { ran.Add(1) })
				}
				r.JoinAll(hs)
				r.Finalize()
				if got := ran.Load(); got != n {
					t.Fatalf("policy %q: ran %d of %d", policy, got, n)
				}
			}
		})
	}
}

// alsoFinalize finalizes the runtime and returns it, for one-shot
// capability probes.
func (r *Runtime) alsoFinalize() *Runtime {
	r.Finalize()
	return r
}

// TestPlacementRoundTrip is the placement contract: on backends whose
// capabilities grant pinning, a ULT created with ULTCreateTo(i) must
// observe ExecutorID() == i — from the main thread and from inside a
// running ULT. On the others the creation must still complete, with the
// executor observed inside the valid range (the documented fallback to
// default dispatch).
func TestPlacementRoundTrip(t *testing.T) {
	for _, name := range Backends() {
		name := name
		t.Run(name, func(t *testing.T) {
			const executors = 3
			r := MustOpen(Config{Backend: name, Executors: executors})
			defer r.Finalize()
			caps := r.Caps()
			n := r.NumExecutors()
			if n < 1 {
				t.Fatalf("NumExecutors = %d", n)
			}

			// From the main thread.
			observed := make([]atomic.Int64, n)
			hs := make([]Handle, 0, 2*n)
			for i := 0; i < n; i++ {
				i := i
				hs = append(hs, r.ULTCreateTo(i, func(c Ctx) {
					observed[i].Store(int64(c.ExecutorID()) + 1)
				}))
			}
			// And nested, from inside a ULT.
			nested := make([]atomic.Int64, n)
			root := r.ULTCreate(func(c Ctx) {
				inner := make([]Handle, 0, n)
				for i := 0; i < n; i++ {
					i := i
					inner = append(inner, c.ULTCreateTo(i, func(cc Ctx) {
						nested[i].Store(int64(cc.ExecutorID()) + 1)
					}))
				}
				for _, h := range inner {
					c.Join(h)
				}
			})
			r.JoinAll(hs)
			r.Join(root)

			for i := 0; i < n; i++ {
				for label, got := range map[string]int64{
					"main-thread": observed[i].Load() - 1,
					"nested":      nested[i].Load() - 1,
				} {
					if got < 0 || got >= int64(n) {
						t.Fatalf("%s create-to(%d): executor %d out of range [0,%d)", label, i, got, n)
					}
					if caps.Placement && got != int64(i) {
						t.Fatalf("%s create-to(%d) observed executor %d; caps promise pinning", label, i, got)
					}
				}
			}
		})
	}
}

// TestExecutorIdentityConsistent checks NumExecutors agreement between
// Runtime and Ctx and that plain creations observe in-range executors.
func TestExecutorIdentityConsistent(t *testing.T) {
	for _, name := range Backends() {
		name := name
		t.Run(name, func(t *testing.T) {
			r := MustOpen(Config{Backend: name, Executors: 2})
			defer r.Finalize()
			var bad atomic.Int64
			n := r.NumExecutors()
			hs := make([]Handle, 16)
			for i := range hs {
				hs[i] = r.ULTCreate(func(c Ctx) {
					if c.NumExecutors() != n {
						bad.Add(1)
					}
					if id := c.ExecutorID(); id < 0 || id >= n {
						bad.Add(1)
					}
				})
			}
			r.JoinAll(hs)
			if bad.Load() != 0 {
				t.Fatalf("%d executor-identity violations", bad.Load())
			}
		})
	}
}

// TestMutexHeldAcrossYieldSingleExecutor is the deadlock-freedom
// contract of the scheduler-aware Mutex: with a single executor, a work
// unit that takes the lock, yields while holding it, and only then
// releases must not wedge the runtime — contending lockers yield their
// work unit instead of blocking the executor. Mutual exclusion itself is
// checked with an inside flag.
func TestMutexHeldAcrossYieldSingleExecutor(t *testing.T) {
	for _, name := range Backends() {
		name := name
		t.Run(name, func(t *testing.T) {
			r := MustOpen(Config{Backend: name, Executors: 1})
			defer r.Finalize()
			m := r.NewMutex()
			const n = 8
			var inside, entered, violations atomic.Int64
			hs := make([]Handle, n)
			for i := range hs {
				hs[i] = r.ULTCreate(func(c Ctx) {
					m.Lock(c)
					if inside.Add(1) != 1 {
						violations.Add(1)
					}
					c.Yield() // hold the lock across a reschedule
					entered.Add(1)
					inside.Add(-1)
					m.Unlock()
				})
			}
			r.JoinAll(hs)
			if entered.Load() != n {
				t.Fatalf("critical section entered %d times, want %d", entered.Load(), n)
			}
			if violations.Load() != 0 {
				t.Fatalf("%d mutual-exclusion violations", violations.Load())
			}
		})
	}
}

// TestMutexContended drives the Mutex from many ULTs on several
// executors; the guarded counter must come out exact (and race-clean
// under -race).
func TestMutexContended(t *testing.T) {
	for _, name := range Backends() {
		name := name
		t.Run(name, func(t *testing.T) {
			r := MustOpen(Config{Backend: name, Executors: 4})
			defer r.Finalize()
			m := r.NewMutex()
			counter := 0 // protected by m; not atomic, so -race audits the lock
			const units, reps = 16, 25
			hs := make([]Handle, units)
			for i := range hs {
				hs[i] = r.ULTCreate(func(c Ctx) {
					for k := 0; k < reps; k++ {
						m.Lock(c)
						counter++
						m.Unlock()
					}
				})
			}
			r.JoinAll(hs)
			m.Lock(r) // main thread is a Waiter too
			got := counter
			m.Unlock()
			if got != units*reps {
				t.Fatalf("counter = %d, want %d", got, units*reps)
			}
		})
	}
}

// TestMutexMechanismMatchesCaps: Qthreads locks must live in the FEB
// table (SyncMechanism "feb"); a double unlock there follows Fill
// semantics while the generic word panics.
func TestMutexMechanismMatchesCaps(t *testing.T) {
	r := MustOpen(Config{Backend: "qthreads", Executors: 2})
	defer r.Finalize()
	if got := r.Caps().SyncMechanism; got != "feb" {
		t.Fatalf("qthreads SyncMechanism = %q, want feb", got)
	}
	m := r.NewMutex()
	if !m.TryLock() {
		t.Fatal("fresh FEB mutex not lockable")
	}
	if m.TryLock() {
		t.Fatal("locked FEB mutex lockable twice")
	}
	m.Unlock()

	rg := MustOpen(Config{Backend: "go", Executors: 1})
	defer rg.Finalize()
	if got := rg.Caps().SyncMechanism; got != "atomic" {
		t.Fatalf("go SyncMechanism = %q, want atomic", got)
	}
}

// TestBarrierSingleExecutor: all parties must be able to rendezvous on
// one executor — every arrival before the last yields its work unit, so
// the remaining parties can reach the barrier at all.
func TestBarrierSingleExecutor(t *testing.T) {
	for _, name := range Backends() {
		name := name
		t.Run(name, func(t *testing.T) {
			r := MustOpen(Config{Backend: name, Executors: 1})
			defer r.Finalize()
			const k, rounds = 5, 3
			bar := r.NewBarrier(k)
			var before, violations atomic.Int64
			hs := make([]Handle, k)
			for i := range hs {
				hs[i] = r.ULTCreate(func(c Ctx) {
					for round := 0; round < rounds; round++ {
						before.Add(1)
						bar.Wait(c)
						// Everyone must have arrived at this round's
						// barrier before anyone proceeds.
						if before.Load() < int64((round+1)*k) {
							violations.Add(1)
						}
						bar.Wait(c) // separate rounds
					}
				})
			}
			r.JoinAll(hs)
			if violations.Load() != 0 {
				t.Fatalf("%d barrier-ordering violations", violations.Load())
			}
			if before.Load() != k*rounds {
				t.Fatalf("arrivals = %d, want %d", before.Load(), k*rounds)
			}
		})
	}
}

// TestCondSingleExecutor: a waiter and its signaler sharing one executor
// must hand off — Cond.Wait releases the lock and yields the work unit,
// so the producer can run, flip the predicate and signal.
func TestCondSingleExecutor(t *testing.T) {
	for _, name := range Backends() {
		name := name
		t.Run(name, func(t *testing.T) {
			r := MustOpen(Config{Backend: name, Executors: 1})
			defer r.Finalize()
			m := r.NewMutex()
			cond := r.NewCond(m)
			ready := false // protected by m
			var woke atomic.Int64
			const waiters = 3
			hs := make([]Handle, 0, waiters+1)
			for i := 0; i < waiters; i++ {
				hs = append(hs, r.ULTCreate(func(c Ctx) {
					m.Lock(c)
					for !ready {
						cond.Wait(c)
					}
					m.Unlock()
					woke.Add(1)
				}))
			}
			hs = append(hs, r.ULTCreate(func(c Ctx) {
				c.Yield() // let the waiters block first
				m.Lock(c)
				ready = true
				m.Unlock()
				cond.Broadcast()
			}))
			r.JoinAll(hs)
			if woke.Load() != waiters {
				t.Fatalf("woke = %d, want %d", woke.Load(), waiters)
			}
		})
	}
}

// TestYieldToRespectsPlacement: a direct transfer must not hijack a ULT
// pinned to another executor — YieldTo degrades to Yield instead, and
// the pinned target still observes its own executor.
func TestYieldToRespectsPlacement(t *testing.T) {
	r := MustOpen(Config{Backend: "argobots", Executors: 2})
	defer r.Finalize()
	var observed atomic.Int64
	root := r.ULTCreateTo(0, func(c Ctx) {
		h := c.ULTCreateTo(1, func(cc Ctx) {
			observed.Store(int64(cc.ExecutorID()) + 1)
		})
		c.YieldTo(h) // pinned elsewhere: must not run here
		c.Join(h)
	})
	r.Join(root)
	if got := observed.Load() - 1; got != 1 {
		t.Fatalf("pinned target observed executor %d, want 1", got)
	}
}

// TestJoinRespectsPlacement: a worker-side join switches straight to a
// ready joinee only where the joinee may run, so a child placed on ES 1
// and joined from ES 0 still runs on ES 1.
func TestJoinRespectsPlacement(t *testing.T) {
	r := MustOpen(Config{Backend: "argobots", Executors: 2})
	defer r.Finalize()
	for i := 0; i < 20; i++ {
		var joiner, observed atomic.Int64
		root := r.ULTCreateTo(0, func(c Ctx) {
			joiner.Store(int64(c.ExecutorID()))
			h := c.ULTCreateTo(1, func(cc Ctx) {
				observed.Store(int64(cc.ExecutorID()) + 1)
			})
			c.Join(h)
		})
		r.Join(root)
		if got := joiner.Load(); got != 0 {
			t.Fatalf("joiner placed on executor 0 ran on %d", got)
		}
		if got := observed.Load() - 1; got != 1 {
			t.Fatalf("joinee placed on executor 1 ran on %d", got)
		}
	}
}

// TestCtxJoinAllocBudget pins the worker-side create+join of a ready
// child on argobots: the handle (with its embedded context), the body
// adapter, the substrate's thread handle, and the descriptor, which a
// direct-switch join keeps out of the reuse pool.
func TestCtxJoinAllocBudget(t *testing.T) {
	r := MustOpen(Config{Backend: "argobots", Executors: 1})
	defer r.Finalize()
	var got float64
	root := r.ULTCreate(func(c Ctx) {
		body := func(Ctx) {}
		got = testing.AllocsPerRun(1000, func() { c.Join(c.ULTCreate(body)) })
	})
	r.Join(root)
	t.Logf("Ctx ULTCreate -> Join: %.2f allocs", got)
	if got > 4 {
		t.Fatalf("Ctx ULTCreate -> Join = %.2f allocs, budget 4", got)
	}
}

// TestYieldToTransfersOrDegrades: where capabilities grant YieldTo, the
// target must have run by the time the call returns (single executor:
// control really was handed over); everywhere else the call must behave
// like a plain Yield and complete.
func TestYieldToTransfersOrDegrades(t *testing.T) {
	for _, name := range Backends() {
		name := name
		t.Run(name, func(t *testing.T) {
			r := MustOpen(Config{Backend: name, Executors: 1})
			defer r.Finalize()
			yieldTo := r.Caps().YieldTo
			var violations atomic.Int64
			root := r.ULTCreate(func(c Ctx) {
				var ran atomic.Bool
				h := c.ULTCreate(func(Ctx) { ran.Store(true) })
				c.YieldTo(h)
				if yieldTo && !ran.Load() {
					violations.Add(1)
				}
				c.Join(h)
			})
			r.Join(root)
			if violations.Load() != 0 {
				t.Fatalf("YieldTo returned before the target ran (caps promise direct transfer)")
			}
		})
	}
}
