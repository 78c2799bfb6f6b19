package main

import (
	"fmt"
	"time"

	lwt "repro"
	"repro/internal/cluster"
	"repro/omp"
)

// The probes time single layers through their public calls, with no
// server running, for the per-layer metrics that no reply field or
// counter exposes. Each reports the median of probeReps repetitions of
// a fixed batch, the paper's own method (fixed work, many repetitions,
// robust statistic).
const (
	probeReps  = 41
	probeBatch = 512
)

func medianOf(reps int, once func() float64) float64 {
	xs := make([]float64, reps)
	for i := range xs {
		xs[i] = once()
	}
	return median(xs)
}

// calMops times a fixed single-thread integer hash kernel and returns
// millions of rounds per second. It measures the machine, not the
// program: a reader comparing two sets of runs can see from it how far
// the box itself drifted between them.
func calMops() float64 {
	const rounds = 1 << 21
	return medianOf(5, func() float64 {
		h := uint64(14695981039346656037)
		t0 := time.Now()
		for i := uint64(0); i < rounds; i++ {
			h = (h ^ i) * 1099511628211
			h ^= h >> 29
		}
		d := time.Since(t0)
		calSink = h
		return rounds / d.Seconds() / 1e6
	})
}

var calSink uint64 // keeps the kernel's result live

// probeCreateJoin opens backend at one executor and returns the
// nanoseconds to create one empty ULT and to join one (paper Figs. 2
// and 3), amortised over a batch.
func probeCreateJoin(backend string) (createNS, joinNS float64, err error) {
	rt, err := lwt.Open(lwt.Config{Backend: backend, Executors: 1})
	if err != nil {
		return 0, 0, fmt.Errorf("open %s: %w", backend, err)
	}
	defer rt.Finalize()
	hs := make([]lwt.Handle, probeBatch)
	creates := make([]float64, probeReps)
	joins := make([]float64, probeReps)
	for r := 0; r < probeReps; r++ {
		t0 := time.Now()
		for i := range hs {
			hs[i] = rt.ULTCreate(func(lwt.Ctx) {})
		}
		t1 := time.Now()
		rt.JoinAll(hs)
		t2 := time.Now()
		creates[r] = float64(t1.Sub(t0)) / probeBatch
		joins[r] = float64(t2.Sub(t1)) / probeBatch
	}
	return median(creates), median(joins), nil
}

// probeFor1000 returns the microseconds one 1000-iteration parallel
// for takes through the omp layer on the argobots backend at one
// executor (paper Fig. 4).
func probeFor1000() (float64, error) {
	rt, err := omp.Open(omp.Config{Backend: "argobots", Executors: 1})
	if err != nil {
		return 0, fmt.Errorf("omp open: %w", err)
	}
	defer rt.Close()
	v := make([]float32, 1000)
	return medianOf(probeReps*5, func() float64 {
		t0 := time.Now()
		rt.ParallelFor(len(v), omp.Static, 0, func(i int) { v[i] *= 1.0001 })
		return float64(time.Since(t0)) / 1e3
	}), nil
}

// ringOwner returns the function mapping a key to its first owner on a
// ring built the way lwtgate builds its own from the same addresses.
func ringOwner(workers []string) func(key string) string {
	ring := cluster.NewRing(cluster.DefaultVnodes)
	for _, w := range workers {
		ring.Add(w)
	}
	return ring.Lookup
}

// probeCluster times the gate's two routing decisions directly, over
// a table of n workers: a consistent-hash lookup of a key and a
// power-of-two-choices pick for an unkeyed request. Nanoseconds per
// call.
func probeCluster(n int) (lookupNS, pickNS float64, err error) {
	table := cluster.NewTable(cluster.DefaultVnodes, cluster.HealthPolicy{})
	for i := 0; i < n; i++ {
		if _, err := table.Add(fmt.Sprintf("127.0.0.1:%d", 9000+i)); err != nil {
			return 0, 0, err
		}
	}
	keys := make([]string, gateKeys)
	for i := range keys {
		keys[i] = keyName(i)
	}
	ring := table.Ring()
	lookupNS = medianOf(probeReps, func() float64 {
		t0 := time.Now()
		for i := 0; i < probeBatch; i++ {
			probeSink = ring.Lookup(keys[i%len(keys)])
		}
		return float64(time.Since(t0)) / probeBatch
	})
	pickNS = medianOf(probeReps, func() float64 {
		t0 := time.Now()
		for i := 0; i < probeBatch; i++ {
			probeSink = table.PickUnkeyed(nil).ID
		}
		return float64(time.Since(t0)) / probeBatch
	})
	return lookupNS, pickNS, nil
}

var probeSink string // keeps the probed calls' results live
