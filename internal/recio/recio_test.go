package recio

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"

	"flipc/internal/wire"
)

func TestRoundTrip(t *testing.T) {
	for _, want := range []Frame{
		{Type: 1, Seq: 7, Payload: []byte("hello")},
		{Type: 2, Seq: 1 << 40, Payload: nil},
	} {
		enc, err := Append(nil, &want)
		if err != nil {
			t.Fatalf("Append(%+v): %v", want, err)
		}
		if len(enc) != HeaderBytes+2+len(want.Payload) || enc[7] != 1 || enc[16] != 0 || enc[17] != 0 {
			t.Fatalf("Append(%+v) = %x: want version 1 with an empty extension", want, enc)
		}
		got, n, err := Decode(enc)
		if err != nil {
			t.Fatalf("Decode(%+v): %v", want, err)
		}
		if n != len(enc) || got.Type != want.Type || got.Seq != want.Seq || !bytes.Equal(got.Payload, want.Payload) {
			t.Fatalf("round trip: consumed %d of %d, got %+v want %+v", n, len(enc), got, want)
		}
		re, err := Append(nil, &got)
		if err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		if !bytes.Equal(re, enc) {
			t.Fatalf("not canonical:\n in  %x\n out %x", enc, re)
		}
	}
}

// TestOlderLayoutsCorrupt: a frame in a layout this package no longer
// writes — version 0, whose body is the payload alone, or version 1
// with a non-empty extension area — is ErrCorrupt even when its
// checksum holds, and a scan stops in front of it.
func TestOlderLayoutsCorrupt(t *testing.T) {
	reseal := func(rec []byte) []byte {
		binary.BigEndian.PutUint32(rec[0:4], wire.Checksum(rec[4:]))
		return rec
	}
	cur, _ := Append(nil, &Frame{Type: 1, Seq: 1, Payload: []byte("current")})
	v0 := append([]byte{}, cur[:HeaderBytes]...)
	v0 = append(v0, "old"...)
	binary.BigEndian.PutUint16(v0[4:6], 3)
	v0[7] = 0
	ext, _ := Append(nil, &Frame{Type: 1, Seq: 2, Payload: []byte("xnew")})
	binary.BigEndian.PutUint16(ext[HeaderBytes:], 1) // "x" is the extension
	for name, rec := range map[string][]byte{"version 0": reseal(v0), "extension": reseal(ext)} {
		if _, _, err := Decode(rec); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("%s: %v, want ErrCorrupt", name, err)
		}
		stream := append(append([]byte{}, cur...), rec...)
		if consumed, err := Scan(stream, func(Frame, int) error { return nil }); err != nil || consumed != len(cur) {
			t.Fatalf("%s: scan consumed %d of %d, err %v", name, consumed, len(cur), err)
		}
	}
}

func TestTornTailAndCorruption(t *testing.T) {
	a, _ := Append(nil, &Frame{Type: 1, Seq: 1, Payload: []byte("first")})
	b, _ := Append(nil, &Frame{Type: 1, Seq: 2, Payload: []byte("second")})

	// Torn tail: scan stops at the durable prefix, no error.
	torn := append(append([]byte{}, a...), b[:len(b)-3]...)
	n := 0
	consumed, err := Scan(torn, func(Frame, int) error { n++; return nil })
	if err != nil || consumed != len(a) || n != 1 {
		t.Fatalf("torn tail: consumed %d want %d, frames %d, err %v", consumed, len(a), n, err)
	}

	// Corruption mid-stream stops the scan at the same place.
	bad := append(append([]byte{}, a...), b...)
	bad[len(a)] ^= 0xFF
	consumed, _ = Scan(bad, func(Frame, int) error { return nil })
	if consumed != len(a) {
		t.Fatalf("corrupt frame: consumed %d want %d", consumed, len(a))
	}

	// Direct decode classifies: short is ErrShort, corrupt is ErrCorrupt.
	if _, _, err := Decode(a[:10]); !errors.Is(err, ErrShort) {
		t.Fatalf("short prefix: %v", err)
	}
	if _, _, err := Decode(bad[len(a):]); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("corrupt frame: %v", err)
	}

	// Unknown version is corruption, not a crash.
	future := append([]byte{}, a...)
	future[7] = 9
	if _, _, err := Decode(future); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("unknown version: %v", err)
	}
}

func TestScanCallbackError(t *testing.T) {
	var stream []byte
	for i := uint64(1); i <= 3; i++ {
		stream, _ = Append(stream, &Frame{Type: 1, Seq: i})
	}
	stop := errors.New("stop")
	seen := 0
	consumed, err := Scan(stream, func(f Frame, size int) error {
		seen++
		if f.Seq == 2 {
			return stop
		}
		return nil
	})
	if !errors.Is(err, stop) || seen != 2 {
		t.Fatalf("callback error: err %v, seen %d", err, seen)
	}
	if consumed != len(stream)/3 {
		t.Fatalf("consumed %d, want only the first frame (%d)", consumed, len(stream)/3)
	}
}
