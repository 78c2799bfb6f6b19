package main

import (
	"net/http"
	"net/http/httptest"
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
	g := &registry{servers: map[string]*lwt.Server{}, omps: map[string]*ompWorker{}}
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
