package serve

import "math/rand/v2"

// Router picks the shard for one unkeyed submission. Implementations
// must be safe for concurrent use from any number of producer
// goroutines and must not block or take locks — Pick sits on the submit
// fast path of every request. The server's router is power-of-two
// choices; Options.Router replaces it only so a test can pin shards.
//
// Pick receives the shard count and a load probe: load(i) is shard i's
// current depth (queued + in-flight requests), read from atomic
// counters. The returned index must be in [0, n).
type Router interface {
	// Pick selects a shard index in [0, n) for one submission.
	Pick(n int, load func(int) int) int
}

// p2c is power-of-two-choices routing: sample two shards uniformly at
// random and pick the one with the smaller depth. The classic result is
// that this one extra probe drops the expected maximum load from
// Θ(log n / log log n) to Θ(log log n) versus purely random placement,
// at the cost of two atomic loads — no global scan, no shared state,
// no locks.
type p2c struct{}

// Pick implements Router: the less-loaded of two random shards.
func (p2c) Pick(n int, load func(int) int) int {
	if n < 2 {
		return 0
	}
	a, b := rand.IntN(n), rand.IntN(n)
	if load(b) < load(a) {
		return b
	}
	return a
}

// fnv1aOffset and fnv1aPrime are the 64-bit FNV-1a parameters.
const (
	fnv1aOffset = 14695981039346656037
	fnv1aPrime  = 1099511628211
)

// keyShard maps an affinity key onto a shard index with FNV-1a — a
// stable, allocation-free hash, so a session's requests land on the
// same shard for the server's whole lifetime.
func keyShard(key string, n int) int {
	h := uint64(fnv1aOffset)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= fnv1aPrime
	}
	return int(h % uint64(n))
}
