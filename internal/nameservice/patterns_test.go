package nameservice

import (
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
}
