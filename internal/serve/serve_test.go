package serve

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/trace"
)

// gated returns a single-shard server sized so that exactly one request
// can be in flight, a request body that blocks on the gate, and the gate
// itself — the deterministic setup for saturation and cancellation
// tests.
func gated(t *testing.T) (*Server, *Submitter, chan struct{}, chan struct{}) {
	t.Helper()
	s, err := New(Options{
		Backend: "go", Threads: 1, Shards: 1,
		QueueDepth: 2, MaxInFlight: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	started := make(chan struct{})
	release := make(chan struct{})
	return s, s.Submitter(), started, release
}

func TestSubmitReturnsValue(t *testing.T) {
	s := MustNew(Options{Backend: "go", Threads: 2})
	defer s.Close()
	f, err := Do(s.Submitter(), context.Background(), func() (int, error) { return 41 + 1, nil }, Req{})
	if err != nil {
		t.Fatal(err)
	}
	v, err := f.Wait(context.Background())
	if err != nil || v != 42 {
		t.Fatalf("Wait = (%v, %v), want (42, nil)", v, err)
	}
	if !f.Ready() {
		t.Fatal("resolved future not Ready")
	}
}

func TestSubmitPropagatesError(t *testing.T) {
	s := MustNew(Options{Backend: "go", Threads: 2})
	defer s.Close()
	boom := errors.New("boom")
	f, err := Do(s.Submitter(), context.Background(), func() (int, error) { return 0, boom }, Req{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Wait(context.Background()); !errors.Is(err, boom) {
		t.Fatalf("Wait err = %v, want boom", err)
	}
	if got := s.Metrics().Failed; got != 1 {
		t.Fatalf("Failed = %d, want 1", got)
	}
}

func TestSubmitCapturesPanic(t *testing.T) {
	s := MustNew(Options{Backend: "go", Threads: 2})
	defer s.Close()
	f, err := Do(s.Submitter(), context.Background(), func() (int, error) { panic("kaboom") }, Req{})
	if err != nil {
		t.Fatal(err)
	}
	_, werr := f.Wait(context.Background())
	var pe *PanicError
	if !errors.As(werr, &pe) {
		t.Fatalf("Wait err = %v, want *PanicError", werr)
	}
	if pe.Value != "kaboom" || len(pe.Stack) == 0 {
		t.Fatalf("PanicError = {%v, %d bytes of stack}", pe.Value, len(pe.Stack))
	}
	if got := s.Metrics().Panicked; got != 1 {
		t.Fatalf("Panicked = %d, want 1", got)
	}
	// The server must keep serving after a panic.
	f2, err := Do(s.Submitter(), context.Background(), func() (string, error) { return "alive", nil }, Req{})
	if err != nil {
		t.Fatal(err)
	}
	if v := f2.MustWait(); v != "alive" {
		t.Fatalf("after panic: %q", v)
	}
}

func TestTrySubmitSaturates(t *testing.T) {
	s, sub, started, release := gated(t)
	defer func() { close(release); s.Close() }()
	// Occupy the single in-flight slot.
	if _, err := Do(sub, context.Background(), func() (int, error) {
		close(started)
		<-release
		return 0, nil
	}, Req{}); err != nil {
		t.Fatal(err)
	}
	<-started // pump has launched it; nothing else will launch now
	// Fill the depth-2 queue.
	for i := 0; i < 2; i++ {
		if _, err := Do(sub, nil, func() (int, error) { return i, nil }, Req{NonBlocking: true}); err != nil {
			t.Fatalf("fill %d: %v", i, err)
		}
	}
	// Saturation must fast-reject, not block or deadlock.
	if _, err := Do(sub, nil, func() (int, error) { return 0, nil }, Req{NonBlocking: true}); !errors.Is(err, ErrSaturated) {
		t.Fatalf("TrySubmit on full queue = %v, want ErrSaturated", err)
	}
	if got := s.Metrics().Saturated; got == 0 {
		t.Fatal("Saturated counter not bumped")
	}
}

func TestBlockingSubmitHonorsContext(t *testing.T) {
	s, sub, started, release := gated(t)
	defer func() { close(release); s.Close() }()
	if _, err := Do(sub, context.Background(), func() (int, error) {
		close(started)
		<-release
		return 0, nil
	}, Req{}); err != nil {
		t.Fatal(err)
	}
	<-started
	for i := 0; i < 2; i++ {
		if _, err := Do(sub, nil, func() (int, error) { return 0, nil }, Req{NonBlocking: true}); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	if _, err := Do(sub, ctx, func() (int, error) { return 0, nil }, Req{}); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("blocked Submit = %v, want DeadlineExceeded", err)
	}
}

func TestQueuedRequestCancelled(t *testing.T) {
	s, sub, started, release := gated(t)
	defer s.Close()
	if _, err := Do(sub, context.Background(), func() (int, error) {
		close(started)
		<-release
		return 0, nil
	}, Req{}); err != nil {
		t.Fatal(err)
	}
	<-started
	ctx, cancel := context.WithCancel(context.Background())
	f, err := Do(sub, ctx, func() (int, error) { return 7, nil }, Req{})
	if err != nil {
		t.Fatal(err) // queue has room: accepted, but cannot launch yet
	}
	cancel()
	close(release) // pump proceeds, sees the dead context at launch
	if _, werr := f.Wait(context.Background()); !errors.Is(werr, context.Canceled) {
		t.Fatalf("cancelled queued request = %v, want context.Canceled", werr)
	}
}

func TestSubmitULTSpawnsChildren(t *testing.T) {
	s := MustNew(Options{Backend: "go", Threads: 2})
	defer s.Close()
	f, err := DoULT(s.Submitter(), context.Background(), func(c core.Ctx) (int, error) {
		var left, right int
		h := c.ULTCreate(func(core.Ctx) { left = 20 })
		right = 22
		c.Join(h)
		return left + right, nil
	}, Req{})
	if err != nil {
		t.Fatal(err)
	}
	if v := f.MustWait(); v != 42 {
		t.Fatalf("nested result = %d, want 42", v)
	}
}

func TestCloseRunsAcceptedWork(t *testing.T) {
	s := MustNew(Options{Backend: "go", Threads: 2})
	var ran atomic.Int64
	futs := make([]*Future[int], 50)
	for i := range futs {
		f, err := Do(s.Submitter(), context.Background(), func() (int, error) {
			ran.Add(1)
			return i, nil
		}, Req{})
		if err != nil {
			t.Fatal(err)
		}
		futs[i] = f
	}
	s.Close()
	for i, f := range futs {
		if v, err := f.Wait(context.Background()); err != nil || v != i {
			t.Fatalf("future %d after Close = (%v, %v)", i, v, err)
		}
	}
	if ran.Load() != 50 {
		t.Fatalf("ran = %d, want 50", ran.Load())
	}
	// Closed server rejects immediately.
	if _, err := Do(s.Submitter(), context.Background(), func() (int, error) { return 0, nil }, Req{}); !errors.Is(err, ErrClosed) {
		t.Fatalf("Submit after Close = %v, want ErrClosed", err)
	}
	if _, err := Do(s.Submitter(), nil, func() (int, error) { return 0, nil }, Req{NonBlocking: true}); !errors.Is(err, ErrClosed) {
		t.Fatalf("TrySubmit after Close = %v, want ErrClosed", err)
	}
	s.Close() // idempotent
}

func TestConcurrentProducers(t *testing.T) {
	s := MustNew(Options{Backend: "go", Threads: 4, QueueDepth: 64, MaxInFlight: 32})
	defer s.Close()
	sub := s.Submitter()
	const producers, per = 8, 100
	var sum atomic.Int64
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				f, err := Do(sub, context.Background(), func() (int, error) {
					sum.Add(1)
					return i, nil
				}, Req{})
				if err != nil {
					t.Errorf("submit: %v", err)
					return
				}
				if v, err := f.Wait(context.Background()); err != nil || v != i {
					t.Errorf("wait = (%v, %v), want (%d, nil)", v, err, i)
					return
				}
			}
		}()
	}
	wg.Wait()
	if sum.Load() != producers*per {
		t.Fatalf("sum = %d, want %d", sum.Load(), producers*per)
	}
	m := s.Metrics()
	if m.Completed != producers*per {
		t.Fatalf("Completed = %d, want %d", m.Completed, producers*per)
	}
	if p50, p99 := m.Latency.Quantile(0.5), m.Latency.Quantile(0.99); m.Latency.Total() == 0 || p50 <= 0 || p99 < p50 {
		t.Fatalf("latency histogram implausible: %d requests, p50 %v, p99 %v", m.Latency.Total(), p50, p99)
	}
	if m.Throughput <= 0 {
		t.Fatalf("Throughput = %v", m.Throughput)
	}
}

// TestCompletedVisibleAfterWait pins the completion's order: a request
// is counted in Completed and in Latency before its Future resolves, so a
// caller whose Wait returned always sees it in Metrics. The caller polls
// Ready before its Wait, which returns the moment the Future resolves —
// the narrowest window a late count could hide in.
func TestCompletedVisibleAfterWait(t *testing.T) {
	s := MustNew(Options{Backend: "go", Threads: 2, Shards: 2})
	defer s.Close()
	sub := s.Submitter()
	for i := uint64(1); i <= 500; i++ {
		f, err := Do(sub, context.Background(), func() (uint64, error) { return i, nil }, Req{})
		if err != nil {
			t.Fatal(err)
		}
		for !f.Ready() {
			runtime.Gosched()
		}
		if _, err := f.Wait(context.Background()); err != nil {
			t.Fatal(err)
		}
		if m := s.Metrics(); m.Completed != i || m.Latency.Total() != i {
			t.Fatalf("after Wait %d: Completed = %d, Latency.Total = %d", i, m.Completed, m.Latency.Total())
		}
	}
}

func TestTracerRecordsRequestIntervals(t *testing.T) {
	rec := trace.NewRecorder(128)
	// TraceSample 1 defeats the request sampler: every interval emits.
	s := MustNew(Options{Backend: "go", Threads: 2, Tracer: rec, TraceSample: 1})
	for i := 0; i < 5; i++ {
		f, err := Do(s.Submitter(), context.Background(), func() (int, error) { return i, nil }, Req{})
		if err != nil {
			t.Fatal(err)
		}
		f.MustWait()
	}
	s.Close()
	sum := trace.Summarize(rec.Events())
	if got := sum.Counts[trace.KindUser]; got != 5 {
		t.Fatalf("KindUser events = %d, want 5", got)
	}
}

func TestUnknownBackendFailsFast(t *testing.T) {
	if _, err := New(Options{Backend: "no-such-runtime"}); !errors.Is(err, core.ErrUnknownBackend) {
		t.Fatalf("New = %v, want ErrUnknownBackend", err)
	}
}

func TestMetricsString(t *testing.T) {
	s := MustNew(Options{Backend: "go", Threads: 1})
	defer s.Close()
	f, _ := Do(s.Submitter(), context.Background(), func() (int, error) { return 1, nil }, Req{})
	f.MustWait()
	m := s.Metrics()
	if m.Backend != "go" || m.Submitted != 1 || m.Completed != 1 {
		t.Fatalf("metrics = %+v", m)
	}
	if s.Backend() != "go" {
		t.Fatalf("Backend() = %q", s.Backend())
	}
	_ = fmt.Sprintf("%+v", m)
}
