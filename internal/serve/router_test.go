package serve

import (
	"fmt"
	"testing"
)

// TestP2CPicksEmptierUnderSkew is the power-of-two-choices property:
// with one shard heavily loaded, the emptier shard must win whenever it
// is sampled — 3 of the 4 equally likely pairs for two shards, so well
// over half the picks.
func TestP2CPicksEmptierUnderSkew(t *testing.T) {
	load := func(i int) int {
		if i == 0 {
			return 1000
		}
		return 0
	}
	var r p2c
	const trials = 4000
	empty := 0
	for i := 0; i < trials; i++ {
		switch p := r.Pick(2, load); p {
		case 1:
			empty++
		case 0:
		default:
			t.Fatalf("Pick out of range: %d", p)
		}
	}
	// Expectation is 3/4; even a badly unlucky run stays far above 1/2.
	if empty < trials*60/100 {
		t.Fatalf("p2c picked the empty shard only %d/%d times", empty, trials)
	}
	if got := r.Pick(1, load); got != 0 {
		t.Fatalf("Pick(1) = %d, want 0", got)
	}
}

// TestKeyShard pins the affinity hash: deterministic, in range, and
// spreading distinct keys across shards.
func TestKeyShard(t *testing.T) {
	for _, key := range []string{"", "session-1", "user/42", "🔑"} {
		first := keyShard(key, 4)
		for i := 0; i < 100; i++ {
			if got := keyShard(key, 4); got != first {
				t.Fatalf("keyShard(%q) unstable: %d then %d", key, first, got)
			}
		}
		if first < 0 || first >= 4 {
			t.Fatalf("keyShard(%q) out of range: %d", key, first)
		}
	}
	seen := make(map[int]bool)
	for i := 0; i < 256; i++ {
		seen[keyShard(fmt.Sprintf("key-%d", i), 4)] = true
	}
	if len(seen) != 4 {
		t.Fatalf("256 distinct keys hit only %d of 4 shards", len(seen))
	}
}
