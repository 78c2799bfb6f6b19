package core

import (
	"math/rand"
	"sync/atomic"
	"testing"
)

// Random spawn-tree property test: for any randomly shaped tree of ULT
// and tasklet spawns with interior joins, every node must execute exactly
// once and the root join must not return before all descendants finished.
// This is the structural invariant every pattern in the paper relies on,
// checked across every backend.

// treeSpec describes a random spawn tree.
type treeSpec struct {
	fanout  []int // fanout per level; len = depth
	tasklet []bool
}

func genTree(rng *rand.Rand) treeSpec {
	depth := 1 + rng.Intn(3)
	ts := treeSpec{}
	for d := 0; d < depth; d++ {
		ts.fanout = append(ts.fanout, 1+rng.Intn(4))
		ts.tasklet = append(ts.tasklet, rng.Intn(2) == 0)
	}
	return ts
}

// nodes computes the expected execution count (all nodes below the root).
func (ts treeSpec) nodes() int64 {
	total := int64(0)
	width := int64(1)
	for d := range ts.fanout {
		width *= int64(ts.fanout[d])
		total += width
	}
	return total
}

// spawnLevel recursively builds the tree from inside a ULT context.
func spawnLevel(c Ctx, ts treeSpec, depth int, executed *atomic.Int64) {
	if depth >= len(ts.fanout) {
		return
	}
	hs := make([]Handle, 0, ts.fanout[depth])
	for i := 0; i < ts.fanout[depth]; i++ {
		if ts.tasklet[depth] && depth == len(ts.fanout)-1 {
			// Leaves may be tasklets (they cannot spawn further).
			hs = append(hs, c.TaskletCreate(func() { executed.Add(1) }))
			continue
		}
		hs = append(hs, c.ULTCreate(func(cc Ctx) {
			executed.Add(1)
			spawnLevel(cc, ts, depth+1, executed)
		}))
	}
	for _, h := range hs {
		c.Join(h)
	}
}

func TestRandomSpawnTreesAllBackends(t *testing.T) {
	for _, name := range Backends() {
		name := name
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(42))
			r := MustOpen(Config{Backend: name, Executors: 3})
			defer r.Finalize()
			for trial := 0; trial < 8; trial++ {
				ts := genTree(rng)
				var executed atomic.Int64
				root := r.ULTCreate(func(c Ctx) {
					spawnLevel(c, ts, 0, &executed)
				})
				r.Join(root)
				if got, want := executed.Load(), ts.nodes(); got != want {
					t.Fatalf("trial %d (%+v): executed %d nodes, want %d",
						trial, ts, got, want)
				}
			}
		})
	}
}

// TestJoinOrderIndependence joins handles in reverse and shuffled order:
// join must be order-insensitive on every backend.
func TestJoinOrderIndependence(t *testing.T) {
	for _, name := range Backends() {
		name := name
		t.Run(name, func(t *testing.T) {
			r := MustOpen(Config{Backend: name, Executors: 3})
			defer r.Finalize()
			const n = 60
			var ran atomic.Int64
			hs := make([]Handle, n)
			for i := range hs {
				hs[i] = r.ULTCreate(func(Ctx) { ran.Add(1) })
			}
			// Reverse order.
			for i := n - 1; i >= 0; i-- {
				r.Join(hs[i])
			}
			if ran.Load() != n {
				t.Fatalf("ran = %d, want %d", ran.Load(), n)
			}
			// Joining already-joined handles is idempotent.
			for _, h := range hs {
				r.Join(h)
			}
		})
	}
}

// TestPanickedUnitsStillJoinable: failure injection through the unified
// API — a panicking work unit completes (with its error contained by the
// substrate) and joins normally on every backend.
func TestPanickedUnitsStillJoinable(t *testing.T) {
	for _, name := range Backends() {
		name := name
		t.Run(name, func(t *testing.T) {
			r := MustOpen(Config{Backend: name, Executors: 2})
			defer r.Finalize()
			bad := r.ULTCreate(func(Ctx) { panic("injected") })
			good := r.ULTCreate(func(Ctx) {})
			r.Join(bad)
			r.Join(good)
			if !bad.Done() || !good.Done() {
				t.Fatal("handles not done after join")
			}
			// The backend must remain usable after a contained panic.
			again := r.TaskletCreate(func() {})
			r.Join(again)
		})
	}
}
