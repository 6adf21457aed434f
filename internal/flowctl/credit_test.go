package flowctl

import (
	"testing"

	"flipc/internal/wire"
)

func TestAccountLedger(t *testing.T) {
	a := NewAccount(4)
	if a.Available() != 4 || a.Window() != 4 {
		t.Fatalf("fresh account: available %d window %d", a.Available(), a.Window())
	}
	for i := 0; i < 4; i++ {
		a.Spend()
	}
	if a.Available() != 0 || a.Outstanding() != 4 {
		t.Fatalf("spent account: available %d outstanding %d", a.Available(), a.Outstanding())
	}
	if !a.Ack(3) {
		t.Fatal("ack 3 did not advance")
	}
	if a.Available() != 3 {
		t.Fatalf("available after ack = %d, want 3", a.Available())
	}
	// Stale/reordered report: ignored.
	if a.Ack(2) {
		t.Fatal("stale ack advanced the ledger")
	}
	if a.Available() != 3 {
		t.Fatalf("available after stale ack = %d", a.Available())
	}
	// A report above the charged count realigns sent.
	if !a.Ack(10) {
		t.Fatal("over-ack did not advance")
	}
	if a.Outstanding() != 0 || a.Available() != 4 {
		t.Fatalf("over-ack: outstanding %d available %d", a.Outstanding(), a.Available())
	}
	// Resync forgives outstanding frames.
	a.Spend()
	a.Spend()
	if a.Available() != 2 {
		t.Fatalf("available = %d", a.Available())
	}
	a.Resync()
	if a.Available() != 4 {
		t.Fatalf("available after resync = %d", a.Available())
	}
	// Baseline aligns both counters.
	a.Baseline(100)
	if a.Outstanding() != 0 || a.Available() != 4 {
		t.Fatalf("baseline: outstanding %d available %d", a.Outstanding(), a.Available())
	}
	a.SetWindow(-1)
	if a.Window() != 0 || a.Available() != 0 {
		t.Fatalf("negative window not clamped: %d", a.Window())
	}
}

func TestAIMDController(t *testing.T) {
	c := NewAIMD(1, 8, 4)
	// Clean intervals: +1 up to the cap.
	for i := 0; i < 10; i++ {
		c.Observe(0)
	}
	if c.Window() != 8 {
		t.Fatalf("window after clean growth = %d, want 8", c.Window())
	}
	// A drop epoch halves.
	if got := c.Observe(1); got != 4 {
		t.Fatalf("window after drop epoch = %d, want 4", got)
	}
	// Same cumulative count = clean interval again.
	if got := c.Observe(1); got != 5 {
		t.Fatalf("window after recovery interval = %d, want 5", got)
	}
	// Repeated drop epochs floor at min.
	for i := uint64(2); i < 12; i++ {
		c.Observe(i)
	}
	if c.Window() != 1 {
		t.Fatalf("window floor = %d, want 1", c.Window())
	}
	// Constructor clamps.
	if got := NewAIMD(0, 0, 99).Window(); got != 1 {
		t.Fatalf("clamped controller window = %d", got)
	}
}

func TestCreditCodecRoundTrip(t *testing.T) {
	from, err := wire.MakeAddr(3, 17, 5)
	if err != nil {
		t.Fatal(err)
	}
	var buf [64]byte
	n := EncodeCredit(buf[:], from, 42, 1<<40+7)
	if n != CreditFrameBytes {
		t.Fatalf("credit frame length %d", n)
	}
	gf, gw, gd, ok := DecodeCredit(buf[:n])
	if !ok || gf != from || gw != 42 || gd != 1<<40+7 {
		t.Fatalf("credit round trip: %v %d %d %v", gf, gw, gd, ok)
	}
	n = EncodeHello(buf[:], from)
	if n != HelloFrameBytes {
		t.Fatalf("hello frame length %d", n)
	}
	ga, ok := DecodeHello(buf[:n])
	if !ok || ga != from {
		t.Fatalf("hello round trip: %v %v", ga, ok)
	}
	// Garbage and short frames are rejected, not misparsed.
	if _, _, _, ok := DecodeCredit([]byte{CreditMagic}); ok {
		t.Fatal("short credit frame accepted")
	}
	if _, _, _, ok := DecodeCredit(make([]byte, CreditFrameBytes)); ok {
		t.Fatal("zero credit frame accepted")
	}
	if _, ok := DecodeHello([]byte{HelloMagic, 99, 0, 0, 0, 0, 0, 0}); ok {
		t.Fatal("wrong-version hello accepted")
	}
}
