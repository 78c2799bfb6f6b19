package aio

import (
	"bytes"
	"context"
	"io"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// chanParker is the test stand-in for a backend's park/unpark pair: Park
// blocks on a channel, Unpark sends into it. The unbuffered send mirrors
// the real contract — Unpark blocks until the waiter has actually
// parked.
type chanParker struct{ ch chan struct{} }

func newChanParker() *chanParker { return &chanParker{ch: make(chan struct{})} }
func (p *chanParker) Park()      { <-p.ch }
func (p *chanParker) Unpark()    { p.ch <- struct{}{} }

func TestSleepParks(t *testing.T) {
	start := time.Now()
	Sleep(newChanParker(), 5*time.Millisecond)
	if d := time.Since(start); d < 5*time.Millisecond {
		t.Fatalf("Sleep returned after %v, want >= 5ms", d)
	}
}

func TestSleepZeroAndNegative(t *testing.T) {
	Sleep(newChanParker(), 0)
	Sleep(nil, -time.Second)
}

func TestSleepNilParkerPolls(t *testing.T) {
	start := time.Now()
	Sleep(nil, 3*time.Millisecond)
	if d := time.Since(start); d < 3*time.Millisecond {
		t.Fatalf("Sleep returned after %v, want >= 3ms", d)
	}
}

func TestPollParkerYields(t *testing.T) {
	var yields atomic.Int64
	p := PollParker(func() { yields.Add(1) })
	Sleep(p, 2*time.Millisecond)
	if yields.Load() == 0 {
		t.Fatal("poll fallback never yielded")
	}
}

func TestManyConcurrentSleeps(t *testing.T) {
	const n = 64
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			Sleep(newChanParker(), time.Duration(1+i%7)*time.Millisecond)
		}(i)
	}
	wg.Wait()
	// All sleeps overlap on the one reactor: far less than the 64-sleep
	// serial sum (~256ms).
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("concurrent sleeps took %v", d)
	}
}

func TestDeadlineCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(3 * time.Millisecond)
		cancel()
	}()
	if err := Deadline(newChanParker(), ctx); err != context.Canceled {
		t.Fatalf("Deadline = %v, want context.Canceled", err)
	}
}

func TestDeadlineTimeout(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Millisecond)
	defer cancel()
	if err := Deadline(newChanParker(), ctx); err != context.DeadlineExceeded {
		t.Fatalf("Deadline = %v, want context.DeadlineExceeded", err)
	}
}

func TestDeadlineUncancellable(t *testing.T) {
	if err := Deadline(newChanParker(), context.Background()); err != nil {
		t.Fatalf("Deadline(Background) = %v, want nil immediately", err)
	}
}

func TestAwaitClosedChannel(t *testing.T) {
	done := make(chan struct{})
	close(done)
	Await(newChanParker(), done)
}

func TestAwaitParksUntilClose(t *testing.T) {
	done := make(chan struct{})
	go func() {
		time.Sleep(3 * time.Millisecond)
		close(done)
	}()
	start := time.Now()
	Await(newChanParker(), done)
	if d := time.Since(start); d < 3*time.Millisecond {
		t.Fatalf("Await returned after %v, want >= 3ms", d)
	}
}

func TestReadDeadlineConn(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	go func() {
		time.Sleep(3 * time.Millisecond)
		b.Write([]byte("ping"))
	}()
	buf := make([]byte, 16)
	n, err := Read(newChanParker(), a, buf)
	if err != nil || string(buf[:n]) != "ping" {
		t.Fatalf("Read = %d %v %q", n, err, buf[:n])
	}
}

func TestWriteDeadlineConn(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	got := make(chan []byte, 1)
	go func() {
		time.Sleep(3 * time.Millisecond)
		buf := make([]byte, 16)
		n, _ := b.Read(buf)
		got <- buf[:n]
	}()
	n, err := Write(newChanParker(), a, []byte("pong"))
	if err != nil || n != 4 {
		t.Fatalf("Write = %d %v", n, err)
	}
	if string(<-got) != "pong" {
		t.Fatal("peer did not receive the write")
	}
}

func TestReadTCP(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("no loopback: %v", err)
	}
	defer ln.Close()
	go func() {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		time.Sleep(3 * time.Millisecond)
		c.Write([]byte("tcp-hello"))
		c.Close()
	}()
	c, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	buf := make([]byte, 32)
	n, err := Read(newChanParker(), c, buf)
	if err != nil || string(buf[:n]) != "tcp-hello" {
		t.Fatalf("Read = %d %v %q", n, err, buf[:n])
	}
}

// The tests above all complete inside the first ioQuantum. These two
// outlast it, so the completer goroutine's attempt times out and the
// operation is re-attempted: a Read whose data arrives after about two
// quanta, and a Write too large for the loopback socket buffers whose
// peer starts reading after about two quanta — the write must resume
// from its partial offset, every byte delivered once and in order.

func TestReadTCPAcrossQuanta(t *testing.T) {
	const delay = 5 * ioQuantum / 2
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("no loopback: %v", err)
	}
	defer ln.Close()
	go func() {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		time.Sleep(delay)
		c.Write([]byte("late"))
	}()
	c, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	buf := make([]byte, 16)
	start := time.Now()
	n, err := Read(newChanParker(), c, buf)
	if err != nil || string(buf[:n]) != "late" {
		t.Fatalf("Read = %d %v %q", n, err, buf[:n])
	}
	if d := time.Since(start); d < delay {
		t.Fatalf("Read returned after %v, before the data was sent (%v)", d, delay)
	}
}

func TestWriteTCPAcrossQuanta(t *testing.T) {
	const (
		size  = 8 << 20
		delay = 5 * ioQuantum / 2
		sock  = 64 << 10 // pinned socket buffers: far below size
	)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("no loopback: %v", err)
	}
	defer ln.Close()
	type result struct {
		got   []byte
		began time.Time
		err   error
	}
	peer := make(chan result, 1)
	go func() {
		c, err := ln.Accept()
		if err != nil {
			peer <- result{err: err}
			return
		}
		defer c.Close()
		c.(*net.TCPConn).SetReadBuffer(sock)
		time.Sleep(delay)
		r := result{got: make([]byte, size), began: time.Now()}
		_, r.err = io.ReadFull(c, r.got)
		peer <- r
	}()
	c, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.(*net.TCPConn).SetWriteBuffer(sock)
	buf := make([]byte, size)
	for i := range buf {
		buf[i] = byte(i * 7 / 3)
	}
	n, err := Write(newChanParker(), c, buf)
	done := time.Now()
	if err != nil || n != len(buf) {
		t.Fatalf("Write = %d %v, want %d nil", n, err, len(buf))
	}
	r := <-peer
	if r.err != nil {
		t.Fatalf("peer read: %v", r.err)
	}
	if done.Before(r.began) {
		t.Fatal("Write finished before the peer began reading: the buffers absorbed it")
	}
	if !bytes.Equal(r.got, buf) {
		i := 0
		for i < size && r.got[i] == buf[i] {
			i++
		}
		t.Fatalf("peer received different bytes from offset %d", i)
	}
}

func TestReadOffloadsPlainReaders(t *testing.T) {
	buf := make([]byte, 8)
	n, err := Read(newChanParker(), strings.NewReader("plain"), buf)
	if err != nil || string(buf[:n]) != "plain" {
		t.Fatalf("Read = %d %v %q", n, err, buf[:n])
	}
}

func TestWriteOffloadsPlainWriters(t *testing.T) {
	var sink bytes.Buffer
	n, err := Write(newChanParker(), &sink, []byte("plain"))
	if err != nil || n != 5 || sink.String() != "plain" {
		t.Fatalf("Write = %d %v %q", n, err, sink.String())
	}
}

// TestOpGenerationsSurviveRecycling hammers sequential ops through the
// descriptor pool: a stale completion word from a previous incarnation
// satisfying a fresh wait would hang or mis-order the loop.
func TestOpGenerationsSurviveRecycling(t *testing.T) {
	for i := 0; i < 500; i++ {
		Sleep(newChanParker(), 10*time.Microsecond)
	}
}
