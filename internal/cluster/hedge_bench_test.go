package cluster

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// hedgeStall is a stall pattern for the slow worker of
// BenchmarkGatewayHedge: every every-th request it serves waits extra
// longer before answering.
type hedgeStall struct {
	name  string
	every uint64
	extra time.Duration
}

// BenchmarkGatewayHedge is the ablation of the gateway's hedge path:
// three workers that answer in about 20µs, one of which stalls, driven
// closed-loop by four clients with Options.Hedge off and on. It reports
// the request latency quantiles and the worker attempts spent per
// request — what hedging buys in the tail and what it costs in the
// body. Run it long enough to fill the tail, e.g.
//
//	go test -run XXX -bench GatewayHedge -benchtime 4s ./internal/cluster
func BenchmarkGatewayHedge(b *testing.B) {
	stalls := []hedgeStall{
		{"stall5pct50ms", 20, 50 * time.Millisecond},
		{"stall1pct50ms", 100, 50 * time.Millisecond},
		{"const5ms", 1, 5 * time.Millisecond},
	}
	for _, st := range stalls {
		for _, hedge := range []bool{false, true} {
			b.Run(fmt.Sprintf("%s/hedge=%v", st.name, hedge), func(b *testing.B) {
				benchHedge(b, st, hedge)
			})
		}
	}
}

func benchHedge(b *testing.B, st hedgeStall, hedge bool) {
	const workers, clients = 3, 4
	var attempts atomic.Uint64
	table := NewTable(64, HealthPolicy{FailThreshold: 1000, OKThreshold: 2})
	for i := 0; i < workers; i++ {
		var served atomic.Uint64
		slow := i == 0
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			attempts.Add(1)
			t0 := time.Now()
			if slow && served.Add(1)%st.every == 0 {
				select {
				case <-time.After(st.extra):
				case <-r.Context().Done():
					return
				}
			}
			for time.Since(t0) < 20*time.Microsecond {
			}
			_, _ = w.Write([]byte("ok"))
		}))
		b.Cleanup(srv.Close)
		if _, err := table.Add(srv.Listener.Addr().String()); err != nil {
			b.Fatal(err)
		}
	}
	gw := New(Options{Table: table, Hedge: hedge})

	lat := make([]time.Duration, b.N)
	var next atomic.Int64
	var wg sync.WaitGroup
	b.ResetTimer()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := next.Add(1) - 1
				if i >= int64(b.N) {
					return
				}
				req := httptest.NewRequest(http.MethodGet, "/fib?n=10", nil)
				rec := httptest.NewRecorder()
				t0 := time.Now()
				gw.ServeHTTP(rec, req)
				lat[i] = time.Since(t0)
				if rec.Code != http.StatusOK {
					b.Errorf("request %d: status %d", i, rec.Code)
					return
				}
			}
		}()
	}
	wg.Wait()
	b.StopTimer()

	slices.Sort(lat)
	q := func(p float64) float64 {
		return float64(lat[int(p*float64(len(lat)-1))]) / float64(time.Millisecond)
	}
	b.ReportMetric(q(0.50), "p50_ms")
	b.ReportMetric(q(0.99), "p99_ms")
	b.ReportMetric(q(0.999), "p99.9_ms")
	b.ReportMetric(float64(attempts.Load())/float64(b.N), "attempts/req")
}
