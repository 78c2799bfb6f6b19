package main

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	lwt "repro"
	"repro/internal/cluster"
)

// TestDeadlineOfParsing pins the budget extraction: header wins over
// the query parameter, both are milliseconds-from-now, and garbage or
// non-positive values mean no deadline.
func TestDeadlineOfParsing(t *testing.T) {
	mk := func(header, query string) *http.Request {
		url := "/fib"
		if query != "" {
			url += "?deadline_ms=" + query
		}
		r := httptest.NewRequest(http.MethodGet, url, nil)
		if header != "" {
			r.Header.Set(cluster.DeadlineHeader, header)
		}
		return r
	}
	if !cluster.RequestDeadline(mk("", "")).IsZero() {
		t.Fatal("no budget anywhere, want zero deadline")
	}
	for _, bad := range []string{"x", "0", "-5"} {
		if !cluster.RequestDeadline(mk(bad, "")).IsZero() {
			t.Fatalf("header %q, want zero deadline", bad)
		}
	}
	before := time.Now()
	dl := cluster.RequestDeadline(mk("", "200"))
	if got := dl.Sub(before); got <= 0 || got > 250*time.Millisecond {
		t.Fatalf("query budget lands %v out, want ~200ms", got)
	}
	// Header wins: 50ms header against a 10s query parameter.
	dl = cluster.RequestDeadline(mk("50", "10000"))
	if got := dl.Sub(before); got > time.Second {
		t.Fatalf("header did not win over query: deadline %v out", got)
	}
}

// TestHandleDeadlineBoundsWait pins the 504 contract the chaos drill
// leans on: a body that never observes the cooperative cancel signal
// must not hold the HTTP reply past the budget — the Wait is cut at
// the deadline and the caller gets 504 while the work unit finishes in
// the background. Without a budget the same body answers 200.
func TestHandleDeadlineBoundsWait(t *testing.T) {
	g := &registry{servers: map[string]*lwt.Server{}}
	defer g.closeAll()
	// A cooperative but cancellation-blind body: yields so the shard's
	// executor is shared, never checks the cancel channel, runs ~300ms.
	h := handle(g, func(r *http.Request, sub *lwt.Submitter, n int) (*lwt.Future[float64], error) {
		return submitULT(r, sub, func(c lwt.Ctx) (float64, error) {
			end := time.Now().Add(300 * time.Millisecond)
			for time.Now().Before(end) {
				c.Yield()
			}
			return 1, nil
		})
	}, 1, 10)

	rec := httptest.NewRecorder()
	t0 := time.Now()
	h(rec, httptest.NewRequest(http.MethodGet, "/slow?backend=go&deadline_ms=50", nil))
	elapsed := time.Since(t0)
	if rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("status past a 50ms budget = %d, want 504", rec.Code)
	}
	if elapsed >= 300*time.Millisecond {
		t.Fatalf("reply held %v — the Wait was not cut at the deadline", elapsed)
	}

	rec = httptest.NewRecorder()
	h(rec, httptest.NewRequest(http.MethodGet, "/slow?backend=go", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("unbudgeted status = %d, want 200", rec.Code)
	}
}

// computeMux mounts the compute endpoints over a fresh registry that is
// closed when the test ends.
func computeMux(t *testing.T) (*http.ServeMux, *registry) {
	t.Helper()
	g := &registry{servers: map[string]*lwt.Server{}}
	t.Cleanup(g.closeAll)
	mux := http.NewServeMux()
	mountCompute(mux, g)
	return mux, g
}

// oneSlot makes the test's servers one shard of one executor that
// admits one request in flight and one queued.
func oneSlot(t *testing.T) {
	old := [4]int{*shards, *threads, *queue, *inflight}
	*shards, *threads, *queue, *inflight = 1, 1, 1, 1
	t.Cleanup(func() { *shards, *threads, *queue, *inflight = old[0], old[1], old[2], old[3] })
}

// occupy launches a request on the backend's server that holds its
// executor, yielding, until release is called or the test ends.
func occupy(t *testing.T, g *registry, backend string) (release func()) {
	t.Helper()
	srv, err := g.server(backend)
	if err != nil {
		t.Fatal(err)
	}
	var done atomic.Bool
	started := make(chan struct{})
	f, err := lwt.DoULT(srv.Submitter(), context.Background(), func(c lwt.Ctx) (int, error) {
		close(started)
		for !done.Load() {
			c.Yield()
		}
		return 0, nil
	}, lwt.Req{})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	release = func() {
		done.Store(true)
		if _, err := f.Wait(context.Background()); err != nil {
			t.Errorf("occupying request: %v", err)
		}
	}
	t.Cleanup(release) // before closeAll, which would wait on it
	return release
}

// TestParforServed drives /parfor through the real handler: it answers
// the Sasum of n elements of 2 × 1.5 (3n) for any chunking, with a key
// and with wait=1, and every 200 is a request the backend's server
// counted as completed.
func TestParforServed(t *testing.T) {
	mux, g := computeMux(t)
	ok := uint64(0)
	for _, q := range []string{"", "&chunks=1", "&chunks=7", "&chunks=64", "&key=sess-1", "&wait=1"} {
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/parfor?n=4096&backend=go"+q, nil))
		var res result
		if err := json.Unmarshal(rec.Body.Bytes(), &res); err != nil || rec.Code != http.StatusOK || res.Value != 12288 {
			t.Fatalf("/parfor%s: status %d value %v err %v, want 200 and 12288", q, rec.Code, res.Value, err)
		}
		ok++
	}
	srv, err := g.server("go")
	if err != nil {
		t.Fatal(err)
	}
	if m := srv.Metrics(); m.Completed != ok || m.Submitted != ok {
		t.Fatalf("server counted submitted %d completed %d, want %d 200s each", m.Submitted, m.Completed, ok)
	}
}

// TestParforShedsWhenFull: against a one-slot server whose executor is
// busy and whose queue is full, a /parfor without wait=1 fast-fails
// with 503 and Retry-After.
func TestParforShedsWhenFull(t *testing.T) {
	oneSlot(t)
	mux, g := computeMux(t)
	release := occupy(t, g, "go")
	srv, _ := g.server("go")
	queued, err := lwt.Do(srv.Submitter(), context.Background(), func() (int, error) { return 0, nil }, lwt.Req{})
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/parfor?n=4096&backend=go", nil))
	if rec.Code != http.StatusServiceUnavailable || rec.Header().Get("Retry-After") == "" {
		t.Fatalf("full server: status %d Retry-After %q, want 503 with Retry-After", rec.Code, rec.Header().Get("Retry-After"))
	}
	release()
	if _, err := queued.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestParforDeadline: a /parfor queued behind a busy executor past its
// deadline_ms budget answers 504.
func TestParforDeadline(t *testing.T) {
	oneSlot(t)
	mux, g := computeMux(t)
	occupy(t, g, "go")
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/parfor?n=4096&backend=go&wait=1&deadline_ms=50", nil))
	if rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("queued past its budget: status %d, want 504", rec.Code)
	}
}
