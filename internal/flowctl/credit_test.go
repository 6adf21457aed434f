package flowctl

import (
	"testing"

	"flipc/internal/wire"
)

func TestAccountLedger(t *testing.T) {
	var a Account
	if a.Available() != 0 || a.Window() != 0 {
		t.Fatalf("zero account: available %d window %d", a.Available(), a.Window())
	}
	a.Grant(0, 4)
	if a.Available() != 4 || a.Window() != 4 {
		t.Fatalf("first grant: available %d window %d", a.Available(), a.Window())
	}
	for i := 0; i < 4; i++ {
		a.Spend()
	}
	if a.Available() != 0 {
		t.Fatalf("spent account: available %d", a.Available())
	}
	if !a.Grant(3, 4) {
		t.Fatal("disposed 3 did not advance")
	}
	if a.Available() != 3 || a.Window() != 4 {
		t.Fatalf("edge 7: available %d window %d", a.Available(), a.Window())
	}
	// A stale advert, and a newer one granting a narrower window, leave
	// the edge where it is: a grant is never pulled back.
	if a.Grant(2, 4) || a.Available() != 3 {
		t.Fatalf("stale advert moved the ledger: available %d", a.Available())
	}
	if a.Grant(3, 1); a.Available() != 3 {
		t.Fatalf("narrower advert pulled the edge in: available %d", a.Available())
	}
	// A disposed count above the charged count realigns sent: the peer
	// grants window frames, never more.
	if !a.Grant(10, 4) || a.Available() != 4 {
		t.Fatalf("over-report: available %d", a.Available())
	}
	// Resync forgives outstanding frames and keeps the window open past
	// them.
	a.Spend()
	a.Spend()
	a.Resync()
	if a.Available() != 4 || a.Window() != 4 {
		t.Fatalf("after resync: available %d window %d", a.Available(), a.Window())
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
