package nameservice

import (
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
