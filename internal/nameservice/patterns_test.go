package nameservice

import (
	"fmt"
	"math/rand/v2"
	"strings"
	"testing"

	"flipc/internal/israce"
)

// Match sits on the gateway's per-delivery path: it walks the topic in
// place and allocates nothing, whichever wildcard forms match.
func TestPatternMatchAllocs(t *testing.T) {
	if israce.Enabled {
		t.Skip("allocation counts differ under the race detector")
	}
	x := NewPatternIndex()
	for i, p := range []string{"metrics.node3.cpu", "metrics.*.cpu", "metrics.**", "*.node3.*", "other.**"} {
		x.Add(p, uint64(i))
	}
	hits := 0
	visit := func(uint64) { hits++ }
	if n := testing.AllocsPerRun(100, func() { x.Match("metrics.node3.cpu", visit) }); n != 0 {
		t.Fatalf("Match allocates %v objects per call, want 0", n)
	}
	if hits != 4*101 {
		t.Fatalf("visited %d keys over 101 calls, want 4 per call", hits)
	}
	// A name past the 32-byte stack buffer a string conversion may use.
	long := []byte("metrics." + strings.Repeat("n", 150) + ".cpu")
	x.Add("metrics.*.cpu", 9)
	hits = 0
	if n := testing.AllocsPerRun(100, func() { x.MatchBytes(long, visit) }); n != 0 {
		t.Fatalf("MatchBytes allocates %v objects per call, want 0", n)
	}
	if hits != 3*101 { // metrics.*.cpu twice over, metrics.**
		t.Fatalf("MatchBytes visited %d keys over 101 calls, want 3 per call", hits)
	}
}

// A gateway with many clients on one pattern adds and removes keys on
// one trie node, and each set is a slice plus a position map. Under
// interleaved churn of 10⁴ keys on a "*" and a "**" pattern, every live
// key is visited exactly once per matching pattern, Add and Remove
// report changes exactly, and emptied nodes are pruned.
func TestPatternSetChurn(t *testing.T) {
	const keys = 10000
	star, dstar := "churn.*", "churn.**"
	x := NewPatternIndex()
	ref := map[string]map[uint64]bool{star: {}, dstar: {}}
	check := func() {
		t.Helper()
		if want := len(ref[star]) + len(ref[dstar]); x.Len() != want {
			t.Fatalf("Len = %d, want %d", x.Len(), want)
		}
		for _, c := range []struct {
			topic string
			pats  []string
		}{{"churn.a", []string{star, dstar}}, {"churn.a.b", []string{dstar}}} {
			seen := make(map[uint64]int)
			x.Match(c.topic, func(k uint64) { seen[k]++ })
			want := make(map[uint64]int)
			for _, p := range c.pats {
				for k := range ref[p] {
					want[k]++
				}
			}
			if len(seen) != len(want) {
				t.Fatalf("Match(%q) visited %d distinct keys, want %d", c.topic, len(seen), len(want))
			}
			for k, n := range want {
				if seen[k] != n {
					t.Fatalf("Match(%q) visited key %d %d times, want %d", c.topic, k, seen[k], n)
				}
			}
		}
		var pats []string
		for _, p := range []string{star, dstar} {
			if len(ref[p]) > 0 {
				pats = append(pats, p)
			}
		}
		if got := x.Patterns(); strings.Join(got, ",") != strings.Join(pats, ",") {
			t.Fatalf("Patterns = %q, want %q", got, pats)
		}
	}
	rng := rand.New(rand.NewPCG(43, 1))
	for step := 0; step < 8*keys; step++ {
		p, k := star, uint64(rng.IntN(keys))
		if rng.IntN(2) == 0 {
			p = dstar
		}
		if rng.IntN(3) != 0 { // adds outnumber removes, so the sets grow large
			if x.Add(p, k) == ref[p][k] {
				t.Fatalf("step %d: Add(%q, %d) = %v with the pair live=%v", step, p, k, !ref[p][k], ref[p][k])
			}
			ref[p][k] = true
		} else {
			if x.Remove(p, k) != ref[p][k] {
				t.Fatalf("step %d: Remove(%q, %d) = %v with the pair live=%v", step, p, k, !ref[p][k], ref[p][k])
			}
			delete(ref[p], k)
		}
		if step%2000 == 0 {
			check()
		}
	}
	check()
	for _, p := range []string{star, dstar} {
		for k := range ref[p] {
			if !x.Remove(p, k) || x.Remove(p, k) {
				t.Fatalf("Remove(%q, %d) of a live pair, then again: want true, then false", p, k)
			}
			delete(ref[p], k)
		}
		check()
	}
	if x.root.children != nil || x.root.star != nil {
		t.Fatalf("emptied trie not pruned: children %v, star %v", x.root.children, x.root.star)
	}
}

// BenchmarkMatchBytes matches in the gateway_edge shape: 16 seeded
// "bench.t…" names against a lane holding one "bench.*" key and one
// "**" key, two visits a match.
func BenchmarkMatchBytes(b *testing.B) {
	x := NewPatternIndex()
	x.Add("bench.*", 1)
	x.Add("**", 2)
	rng := rand.New(rand.NewPCG(1, 1))
	names := make([][]byte, 16)
	for i := range names {
		names[i] = fmt.Appendf(nil, "bench.t%08x", rng.Uint32())
	}
	hits := 0
	visit := func(uint64) { hits++ }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x.MatchBytes(names[i&15], visit)
	}
	if hits != 2*b.N {
		b.Fatalf("visited %d keys over %d matches, want 2 each", hits, b.N)
	}
}
