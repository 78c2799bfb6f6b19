package main

import (
	"context"
	"fmt"
	"sync"
	"time"

	lwt "repro"
)

// inprocEvery is the recorder's subsampling step: one operation in
// this many is timed and kept. The server runs in this process, so the
// generator's clock reads and sample memory are part of what is
// measured (this workload's CPU and peak-RSS figures are the process's
// own, and the collector paces against the whole heap): at several
// hundred thousand operations a second, keeping every one would let
// the sample buffers dwarf the server's heap. A prime, so the timed
// operations rotate through the slots of a producer's ring of
// outstanding futures.
const inprocEvery = 127

// inprocSampleRate sizes each producer's sample buffer, in samples per
// second of the phase; the buffer is allocated before the phase. One
// that grew during the phase made collections rarer window by window,
// and throughput and tail drifted with it (+7 % and -35 % over 12 s).
// The buffer holds a producer running at a million operations a
// second; a faster one falls back to growing it.
const inprocSampleRate = 8_000

// startInproc boots the in-process server and times it until the first
// future resolves.
func startInproc() (*lwt.Server, time.Duration, error) {
	t0 := time.Now()
	srv, err := lwt.NewServer(lwt.ServeOptions{Backend: "argobots", Shards: 2, Threads: 1, Steal: true})
	if err != nil {
		return nil, 0, err
	}
	f, err := lwt.Do(srv.Submitter(), context.Background(), func() (int, error) { return 7, nil }, lwt.Req{})
	if err == nil {
		var v int
		if v, err = f.Wait(context.Background()); err == nil && v != 7 {
			err = fmt.Errorf("first future resolved to %d, want 7", v)
		}
	}
	if err != nil {
		srv.Close()
		return nil, 0, fmt.Errorf("first future: %w", err)
	}
	return srv, time.Since(t0), nil
}

// inprocLoad describes one load phase against an in-process server.
type inprocLoad struct {
	srv       *lwt.Server
	producers int
	seed      int64
	dur       time.Duration
	rate      float64 // > 0: open loop, one synchronous Do->Wait per arrival
	tr        *tracer
	phase     string
}

// pending is one outstanding future in a producer's ring.
type pending struct {
	f     *lwt.Future[int]
	want  int
	keyed bool
	timed bool
	t0    time.Time // when Do was called (closed loop) or was due (open loop)
	admit time.Duration
}

// run drives the phase. In the closed loop each producer keeps
// inprocOuts futures outstanding: it waits for the oldest, checks it,
// and submits a replacement, alternating unkeyed and keyed requests.
// Latency is Do call to Wait return.
func (l inprocLoad) run() *loadResult {
	sub := l.srv.Submitter()
	ctx := context.Background()
	start := time.Now()
	end := start.Add(l.dur)
	sched := schedule{start: start, rate: l.rate}
	results := make([]*loadResult, l.producers)
	var wg sync.WaitGroup
	for p := 0; p < l.producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			res := &loadResult{samples: make([]sample, 0, int(l.dur.Seconds()*inprocSampleRate))}
			results[p] = res
			ks := newKeyStream(l.seed, p, inprocKeys, false)
			keys := make([]string, inprocKeys)
			for i := range keys {
				keys[i] = fmt.Sprintf("p%d-%s", p, keyName(i))
			}
			outs := inprocOuts
			if l.rate > 0 {
				outs = 1
			}
			ring := make([]pending, outs)

			// settle waits for a slot's future and accounts for it.
			settle := func(s *pending) {
				var tw time.Time
				if s.timed && l.tr != nil {
					tw = time.Now()
				}
				v, err := s.f.Wait(ctx)
				s.f = nil
				res.attempted++
				if err != nil || v != s.want {
					res.fail(fmt.Errorf("future %d resolved to %d: %v", s.want, v, err))
					return
				}
				if !s.timed {
					return
				}
				done := time.Now()
				lat := done.Sub(s.t0)
				res.samples = append(res.samples, sample{done: done.Sub(start), lat: lat})
				if l.tr == nil {
					return
				}
				res.inner = append(res.inner, float64(s.admit))
				if s.keyed {
					res.keyedInner = append(res.keyedInner, float64(lat))
				} else {
					res.plainInner = append(res.plainInner, float64(lat))
				}
				id := l.tr.id()
				res.spans = append(res.spans,
					span{Trace: id, ID: id, Name: "serve.do", Start: l.tr.at(s.t0), End: l.tr.at(done), Phase: l.phase},
					span{Trace: id, ID: l.tr.id(), Parent: id, Name: "serve.wait", Start: l.tr.at(tw), End: l.tr.at(done), Phase: l.phase})
			}

			for i := 0; ; i++ {
				s := &ring[i%outs]
				if s.f != nil {
					settle(s)
				}
				// The clock is read on timed operations only; they are
				// frequent enough to end the phase on time.
				timed := l.rate > 0 || i%inprocEvery == 0
				var now time.Time
				if timed {
					now = time.Now()
					if !now.Before(end) {
						break
					}
				}
				due := now
				if l.rate > 0 {
					if due = sched.due(now); !due.Before(end) {
						break
					}
					if d := time.Until(due); d > 0 {
						time.Sleep(d)
						now = time.Now()
					}
					res.late = append(res.late, float64(now.Sub(due)))
				}
				want := p<<40 | i
				req := lwt.Req{}
				k := ks.next()
				if k >= 0 {
					req.Key = keys[k]
				}
				f, err := lwt.Do(sub, ctx, func() (int, error) { return want, nil }, req)
				if err != nil {
					res.attempted++
					res.fail(fmt.Errorf("Do: %w", err))
					continue
				}
				*s = pending{f: f, want: want, keyed: k >= 0, timed: timed, t0: due}
				if timed && l.tr != nil {
					s.admit = time.Since(now)
				}
			}
			for i := range ring {
				if ring[i].f != nil {
					settle(&ring[i])
				}
			}
		}(p)
	}
	wg.Wait()
	total := &loadResult{phase: l.phase}
	for _, r := range results {
		total.merge(r)
	}
	return total
}
