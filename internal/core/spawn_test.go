package core

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// spawnTally is one detached unit of TestSpawnFromAnyGoroutine: it
// counts its own runs, and the last unit to run unparks the main
// thread.
type spawnTally struct {
	runs   *atomic.Int32
	left   *atomic.Int64
	unpark func()
}

func (w *spawnTally) Run(c Ctx) {
	if c != nil {
		c.Yield()
	}
	w.runs.Add(1)
	if w.left.Add(-1) == 0 {
		w.unpark()
	}
}

// TestSpawnFromAnyGoroutine holds Runtime.Spawn to its any-goroutine
// contract on every backend: 8 goroutines foreign to the runtime and,
// separately, 8 running units of it each spawn 500 units, ULTs and
// tasklets alternating, while the main thread sleeps in MainPark. Every
// unit must run exactly once. Run under -race this is also the spawn
// paths' memory-model test.
func TestSpawnFromAnyGoroutine(t *testing.T) {
	const spawners, each = 8, 500
	for _, name := range allBackends() {
		for _, from := range []string{"foreign", "units"} {
			t.Run(name+"/"+from, func(t *testing.T) {
				runs := make([]atomic.Int32, spawners*each)
				fail := make(chan string, 1)
				go func() {
					r := MustOpen(Config{Backend: name, Executors: 2})
					park, unpark := r.MainPark()
					var left atomic.Int64
					left.Store(int64(len(runs)))
					spawn := func(g int) {
						for i := 0; i < each; i++ {
							k := g*each + i
							r.Spawn(&spawnTally{runs: &runs[k], left: &left, unpark: unpark}, k%2 == 0)
							if i%64 == 0 {
								runtime.Gosched()
							}
						}
					}
					var hs []Handle
					var wg sync.WaitGroup
					for g := 0; g < spawners; g++ {
						if from == "foreign" {
							wg.Add(1)
							go func() {
								defer wg.Done()
								spawn(g)
							}()
							continue
						}
						hs = append(hs, r.ULTCreate(func(Ctx) { spawn(g) }))
					}
					for left.Load() != 0 {
						park()
					}
					wg.Wait()
					r.JoinAll(hs)
					r.Finalize()
					for k := range runs {
						if n := runs[k].Load(); n != 1 {
							fail <- fmt.Sprintf("unit %d ran %d times, want once", k, n)
							return
						}
					}
					fail <- ""
				}()
				select {
				case msg := <-fail:
					if msg != "" {
						t.Fatal(msg)
					}
				case <-time.After(30 * time.Second):
					buf := make([]byte, 1<<20)
					t.Fatalf("hung: not every spawned unit ran\n%s", buf[:runtime.Stack(buf, true)])
				}
			})
		}
	}
}
