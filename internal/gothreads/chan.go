package gothreads

import (
	"runtime"
	"sync"

	"repro/internal/ult"
)

// Chan is the model's communication channel — the synchronization
// procedure §III-F credits Go with: "an out-of-order communication
// channel that, from the point of view of performance, can obtain better
// results than the sequential mechanisms". A goroutine that blocks on a
// full/empty channel suspends and releases its scheduler thread, exactly
// like the model's Join; senders and receivers are matched in completion
// order, not arrival order.
type Chan struct {
	rt  *Runtime
	mu  sync.Mutex
	buf []uint64
	cap int
	// waiters parked on the channel, by direction.
	recvWaiters []*ult.ULT
	sendWaiters []*ult.ULT
	closed      bool
}

// NewChan creates a channel with the given buffer capacity (0 is not
// supported in the model; rendezvous behaviour comes from capacity 1
// plus the suspend protocol).
func (rt *Runtime) NewChan(capacity int) *Chan {
	if capacity < 1 {
		capacity = 1
	}
	return &Chan{rt: rt, cap: capacity}
}

// wake moves a parked ULT back to the global run queue.
func (c *Chan) wake(u *ult.ULT) {
	go func() {
		for !u.Resume() {
			if u.Done() {
				return // waiter completed abnormally; nothing to wake
			}
			runtime.Gosched()
		}
		c.rt.push(u)
	}()
}

// Send delivers v, suspending the calling goroutine while the buffer is
// full. Must be called from inside a goroutine's Context.
func (ctx *Context) Send(c *Chan, v uint64) {
	for {
		c.mu.Lock()
		if c.closed {
			c.mu.Unlock()
			panic("gothreads: send on closed Chan")
		}
		if len(c.buf) < c.cap {
			c.buf = append(c.buf, v)
			// Wake one receiver, if any.
			if n := len(c.recvWaiters); n > 0 {
				w := c.recvWaiters[0]
				c.recvWaiters = c.recvWaiters[1:]
				c.mu.Unlock()
				c.wake(w)
			} else {
				c.mu.Unlock()
			}
			return
		}
		// Full: park.
		c.sendWaiters = append(c.sendWaiters, ctx.self)
		c.mu.Unlock()
		ctx.self.Suspend()
	}
}

// Recv receives a value, suspending while the channel is empty. The
// second result is false if the channel is closed and drained.
func (ctx *Context) Recv(c *Chan) (uint64, bool) {
	for {
		c.mu.Lock()
		if len(c.buf) > 0 {
			v := c.buf[0]
			c.buf = c.buf[1:]
			if n := len(c.sendWaiters); n > 0 {
				w := c.sendWaiters[0]
				c.sendWaiters = c.sendWaiters[1:]
				c.mu.Unlock()
				c.wake(w)
			} else {
				c.mu.Unlock()
			}
			return v, true
		}
		if c.closed {
			c.mu.Unlock()
			return 0, false
		}
		c.recvWaiters = append(c.recvWaiters, ctx.self)
		c.mu.Unlock()
		ctx.self.Suspend()
	}
}

// Close closes the channel, waking all parked receivers; further sends
// panic, further receives drain then report closed. Callable from any
// goroutine (including outside the model).
func (c *Chan) Close() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		panic("gothreads: close of closed Chan")
	}
	c.closed = true
	waiters := c.recvWaiters
	c.recvWaiters = nil
	c.mu.Unlock()
	for _, w := range waiters {
		c.wake(w)
	}
}

// Len reports the buffered element count.
func (c *Chan) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.buf)
}
