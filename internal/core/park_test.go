package core

import (
	"sync/atomic"
	"testing"
	"time"
)

// TestMainParkAllBackends is MainPark's contract on every backend, with
// one executor so the cooperative masters' local work only runs if park
// drives it: an unpark that lands before park is kept and collapses with
// a second one into a single token; a parked main thread lets a unit it
// created run, and that unit's unpark wakes it; an unpark from a foreign
// goroutine wakes a park already asleep.
func TestMainParkAllBackends(t *testing.T) {
	for _, name := range allBackends() {
		t.Run(name, func(t *testing.T) {
			done := make(chan string, 1)
			go func() {
				r := MustOpen(Config{Backend: name, Executors: 1})
				defer r.Finalize()
				park, unpark := r.MainPark()
				unpark()
				unpark()
				park() // the early token

				var ran atomic.Bool
				h := r.ULTCreate(func(Ctx) {
					ran.Store(true)
					unpark()
				})
				park()
				if !ran.Load() {
					done <- "park returned before the unit that unparks it ran"
					return
				}
				r.Join(h)

				var woke atomic.Bool
				go func() {
					time.Sleep(5 * time.Millisecond)
					woke.Store(true)
					unpark()
				}()
				park() // the collapsed token is spent: this one sleeps
				if !woke.Load() {
					done <- "park returned without an unpark"
					return
				}
				done <- ""
			}()
			select {
			case msg := <-done:
				if msg != "" {
					t.Fatal(msg)
				}
			case <-time.After(30 * time.Second):
				t.Fatal("park never returned — a lost unpark")
			}
		})
	}
}
