package cluster

import (
	"fmt"
	"testing"
)

// workerID is the address scheme the balance tests hash — shaped like
// real worker addresses so the test exercises the same string space
// production does.
func workerID(i int) string { return fmt.Sprintf("10.0.0.%d:8080", i) }

// assign maps sampled keys to their owners.
func assign(r *Ring, keys int) map[string]string {
	out := make(map[string]string, keys)
	for k := 0; k < keys; k++ {
		key := fmt.Sprintf("sess-%d", k)
		out[key] = r.Lookup(key)
	}
	return out
}

func TestRingBalanceAcrossFleetSizes(t *testing.T) {
	const keys = 10000
	for n := 3; n <= 16; n++ {
		r := NewRing(DefaultVnodes)
		for i := 0; i < n; i++ {
			r.Add(workerID(i))
		}
		counts := make(map[string]int, n)
		for key, owner := range assign(r, keys) {
			if owner == "" {
				t.Fatalf("n=%d: key %q unassigned", n, key)
			}
			counts[owner]++
		}
		if len(counts) != n {
			t.Fatalf("n=%d: only %d workers own keys", n, len(counts))
		}
		mn, mx := keys, 0
		for _, c := range counts {
			if c < mn {
				mn = c
			}
			if c > mx {
				mx = c
			}
		}
		ratio := float64(mx) / float64(mn)
		if ratio > 1.3 {
			t.Errorf("n=%d: key spread max/min = %d/%d = %.3f, want <= 1.3", n, mx, mn, ratio)
		}
	}
}

// TestRingBoundedReshuffle pins the consistent-hashing contract:
// removing one of N workers remaps only that worker's ~K/N share of K
// sampled keys (every key owned by a survivor keeps its owner), and
// adding the worker back restores the original assignment exactly.
func TestRingBoundedReshuffle(t *testing.T) {
	const keys = 8000
	for _, n := range []int{3, 8, 16} {
		r := NewRing(DefaultVnodes)
		for i := 0; i < n; i++ {
			r.Add(workerID(i))
		}
		before := assign(r, keys)
		removed := workerID(1)
		r.Remove(removed)
		after := assign(r, keys)
		moved := 0
		for key, owner := range before {
			switch {
			case owner == removed:
				moved++
				if after[key] == removed {
					t.Fatalf("n=%d: key %q still maps to removed worker", n, key)
				}
			case after[key] != owner:
				t.Fatalf("n=%d: key %q owned by survivor %q remapped to %q", n, key, owner, after[key])
			}
		}
		// The moved share is exactly the removed worker's share, which
		// balance bounds near K/N.
		lo, hi := keys/(2*n), (16*keys)/(10*n)
		if moved < lo || moved > hi {
			t.Errorf("n=%d: removing one worker moved %d/%d keys, want within [%d, %d] (~K/N = %d)",
				n, moved, keys, lo, hi, keys/n)
		}
		r.Add(removed)
		restored := assign(r, keys)
		for key, owner := range before {
			if restored[key] != owner {
				t.Fatalf("n=%d: add-back did not restore key %q: %q != %q", n, key, restored[key], owner)
			}
		}
	}
}

func TestRingLookupNFailoverOrder(t *testing.T) {
	r := NewRing(64)
	for i := 0; i < 5; i++ {
		r.Add(workerID(i))
	}
	for k := 0; k < 200; k++ {
		key := fmt.Sprintf("sess-%d", k)
		order := r.LookupN(key, 5)
		if len(order) != 5 {
			t.Fatalf("LookupN(%q) returned %d members, want 5", key, len(order))
		}
		if order[0] != r.Lookup(key) {
			t.Fatalf("LookupN(%q)[0] = %q, Lookup = %q", key, order[0], r.Lookup(key))
		}
		seen := map[string]bool{}
		for _, id := range order {
			if seen[id] {
				t.Fatalf("LookupN(%q) repeats %q", key, id)
			}
			seen[id] = true
		}
		// The failover contract: entry i+1 is where the key lands if
		// the first i+1 owners are removed.
		probe := NewRing(64)
		for i := 0; i < 5; i++ {
			probe.Add(workerID(i))
		}
		for i := 0; i < 4; i++ {
			probe.Remove(order[i])
			if got := probe.Lookup(key); got != order[i+1] {
				t.Fatalf("key %q after removing %v: owner %q, LookupN predicted %q",
					key, order[:i+1], got, order[i+1])
			}
		}
	}
}

func TestRingEmptyAndIdempotentOps(t *testing.T) {
	r := NewRing(0)
	if got := r.Lookup("k"); got != "" {
		t.Fatalf("empty ring Lookup = %q, want empty", got)
	}
	if got := r.LookupN("k", 3); got != nil {
		t.Fatalf("empty ring LookupN = %v, want nil", got)
	}
	r.Remove("absent")
	r.Add("a:1")
	r.Add("a:1") // duplicate add must not double the vnodes
	if len(r.points) != DefaultVnodes {
		t.Fatalf("duplicate Add produced %d points, want %d", len(r.points), DefaultVnodes)
	}
	if got := r.Lookup("k"); got != "a:1" {
		t.Fatalf("singleton ring Lookup = %q, want a:1", got)
	}
	if got := r.Members(); len(got) != 1 || got[0] != "a:1" {
		t.Fatalf("Members = %v", got)
	}
}

// FuzzRing replays a sequence of Add/Remove ops over eight worker ids
// decoded from the fuzz bytes — one op per byte: bit 7 picks Remove,
// bits 0-2 the worker, bits 3-6 the LookupN width — and after every op
// checks the ring over 256 probe keys: Lookup names a member, or ""
// exactly when the ring is empty; LookupN returns min(n, Size) distinct
// members led by the key's owner; an Add moves a key only onto the added
// member, and a Remove moves only keys the removed member owned.
func FuzzRing(f *testing.F) {
	f.Add([]byte{0, 1, 2, 0x80, 0x81, 0x82})
	f.Add([]byte{0x18, 0x21, 0x3a, 0x43, 0x81, 0x01, 0xfc, 0x7f, 0x84})
	f.Add([]byte{0x80, 0x07, 0x07, 0x87, 0x87})
	keys := make([]string, 256)
	for k := range keys {
		keys[k] = fmt.Sprintf("sess-%d", k)
	}
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 64 {
			ops = ops[:64]
		}
		r := NewRing(0)
		members := map[string]bool{}
		owner := make([]string, len(keys))
		for _, op := range ops {
			id := workerID(int(op & 7))
			remove := op&0x80 != 0
			if remove {
				r.Remove(id)
				delete(members, id)
			} else {
				r.Add(id)
				members[id] = true
			}
			if r.Size() != len(members) {
				t.Fatalf("Size = %d, want %d", r.Size(), len(members))
			}
			n := int(op>>3) & 15
			want := min(n, len(members))
			for k, key := range keys {
				got := r.Lookup(key)
				if got == "" {
					if len(members) != 0 {
						t.Fatalf("Lookup(%q) empty on a ring of %d", key, len(members))
					}
				} else if !members[got] {
					t.Fatalf("Lookup(%q) = %q, not a member", key, got)
				}
				if was := owner[k]; was != got {
					if remove && was != id {
						t.Fatalf("Remove(%s) moved %q from %q to %q", id, key, was, got)
					}
					if !remove && got != id {
						t.Fatalf("Add(%s) moved %q from %q to %q", id, key, was, got)
					}
				}
				owner[k] = got
				seq := r.LookupN(key, n)
				if len(seq) != want {
					t.Fatalf("LookupN(%q, %d) = %v, want %d members", key, n, seq, want)
				}
				if want > 0 && seq[0] != got {
					t.Fatalf("LookupN(%q, %d) leads with %q, Lookup = %q", key, n, seq[0], got)
				}
				seen := map[string]bool{}
				for _, m := range seq {
					if !members[m] || seen[m] {
						t.Fatalf("LookupN(%q, %d) = %v: non-member or repeat %q", key, n, seq, m)
					}
					seen[m] = true
				}
			}
		}
	})
}
