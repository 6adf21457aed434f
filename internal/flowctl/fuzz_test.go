package flowctl

import (
	"bytes"
	"testing"

	"flipc/internal/wire"
)

// FuzzCreditCodec round-trips arbitrary field values through the
// credit codec: whatever EncodeCredit accepts, DecodeCredit must
// return bit-exactly, and the frame must be stable under re-encode.
func FuzzCreditCodec(f *testing.F) {
	f.Add(uint32(0), uint16(0), uint64(0))
	f.Add(uint32(0xFFFFFFFF), uint16(0xFFFF), uint64(1)<<63)
	f.Add(uint32(12345), uint16(32), uint64(1000))
	f.Fuzz(func(t *testing.T, from uint32, window uint16, disposed uint64) {
		var p [CreditFrameBytes]byte
		if n := EncodeCredit(p[:], wire.Addr(from), window, disposed); n != CreditFrameBytes {
			t.Fatalf("EncodeCredit length = %d", n)
		}
		gotFrom, gotWindow, gotDisposed, ok := DecodeCredit(p[:])
		if !ok {
			t.Fatal("own encoding rejected")
		}
		if gotFrom != wire.Addr(from) || gotWindow != window || gotDisposed != disposed {
			t.Fatalf("round-trip (%v,%d,%d) -> (%v,%d,%d)",
				wire.Addr(from), window, disposed, gotFrom, gotWindow, gotDisposed)
		}
		var q [CreditFrameBytes]byte
		EncodeCredit(q[:], gotFrom, gotWindow, gotDisposed)
		if !bytes.Equal(p[:], q[:]) {
			t.Fatal("re-encode not canonical")
		}
	})
}

// FuzzDecodeCredit throws arbitrary bytes at both decoders: they must
// never panic, and anything they accept must carry the right magic —
// the property the corking transports lean on when control
// frames cross flush boundaries (a torn or mixed-up frame must decode
// to ok=false, never to a plausible credit update).
func FuzzDecodeCredit(f *testing.F) {
	var credit [CreditFrameBytes]byte
	EncodeCredit(credit[:], wire.Addr(77), 9, 400)
	f.Add(credit[:])
	var hello [HelloFrameBytes]byte
	EncodeHello(hello[:], wire.Addr(77))
	f.Add(hello[:])
	f.Add([]byte{})
	f.Add([]byte{CreditMagic})
	f.Add(bytes.Repeat([]byte{0xFF}, 32))
	f.Fuzz(func(t *testing.T, p []byte) {
		if _, _, _, ok := DecodeCredit(p); ok {
			if len(p) < CreditFrameBytes || p[0] != CreditMagic {
				t.Fatalf("DecodeCredit accepted %x", p)
			}
		}
		if _, ok := DecodeHello(p); ok {
			if len(p) < HelloFrameBytes || p[0] != HelloMagic {
				t.Fatalf("DecodeHello accepted %x", p)
			}
		}
	})
}
