package wire

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"

	"flipc/internal/israce"
)

func mustAddr(t *testing.T, node NodeID, idx, gen uint16) Addr {
	t.Helper()
	a, err := MakeAddr(node, idx, gen)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestMakeAddrRoundTrip(t *testing.T) {
	a := mustAddr(t, 3, 17, 9)
	if a.Node() != 3 || a.Index() != 17 || a.Gen() != 9 {
		t.Fatalf("round trip: node=%d idx=%d gen=%d", a.Node(), a.Index(), a.Gen())
	}
	if !a.Valid() {
		t.Fatal("valid address reported invalid")
	}
}

func TestMakeAddrLimits(t *testing.T) {
	if _, err := MakeAddr(MaxNodes-1, MaxEndpoints-1, MaxGen-1); err != nil {
		t.Fatalf("max fields rejected: %v", err)
	}
	for _, tc := range []struct {
		node NodeID
		idx  uint16
		gen  uint16
	}{
		{MaxNodes, 0, 1},
		{0, MaxEndpoints, 1},
		{0, 0, 0},
		{0, 0, MaxGen},
	} {
		if _, err := MakeAddr(tc.node, tc.idx, tc.gen); err == nil {
			t.Errorf("MakeAddr(%d,%d,%d) accepted", tc.node, tc.idx, tc.gen)
		}
	}
}

func TestNilAddr(t *testing.T) {
	if NilAddr.Valid() {
		t.Fatal("NilAddr valid")
	}
	if NilAddr.String() != "addr(nil)" {
		t.Fatalf("NilAddr.String() = %q", NilAddr.String())
	}
	if mustAddr(t, 1, 2, 3).String() == "" {
		t.Fatal("empty addr string")
	}
}

func TestQuickAddrRoundTrip(t *testing.T) {
	prop := func(node, idx, gen uint16) bool {
		n := NodeID(node % MaxNodes)
		i := idx % MaxEndpoints
		g := gen%(MaxGen-1) + 1
		a, err := MakeAddr(n, i, g)
		if err != nil {
			return false
		}
		return a.Node() == n && a.Index() == i && a.Gen() == g && a.Valid()
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCheckMessageSize(t *testing.T) {
	for _, ok := range []int{64, 96, 128, 1024} {
		if err := CheckMessageSize(ok); err != nil {
			t.Errorf("CheckMessageSize(%d): %v", ok, err)
		}
	}
	for _, bad := range []int{0, 32, 63, 65, 100, -64} {
		if err := CheckMessageSize(bad); err == nil {
			t.Errorf("CheckMessageSize(%d) accepted", bad)
		}
	}
}

func TestMaxPayloadMatchesPaper(t *testing.T) {
	// "56 bytes is the minimum application message size" at the 64-byte
	// minimum message size.
	if got := MaxPayload(MinMessageSize); got != 56 {
		t.Fatalf("MaxPayload(64) = %d, want 56", got)
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	dst := mustAddr(t, 5, 42, 2)
	payload := []byte("track update: contact 7 bearing 045 range 12nm")
	p := &Packet{Dst: dst, Size: uint16(len(payload)), Flags: FlagUrgent | 3, Seq: 99, Payload: payload}
	frame := make([]byte, 96)
	if err := Encode(p, frame); err != nil {
		t.Fatal(err)
	}
	got, err := Decode(frame)
	if err != nil {
		t.Fatal(err)
	}
	if got.Dst != dst || got.Size != p.Size || got.Flags != p.Flags || got.Seq != 99 {
		t.Fatalf("decoded header = %+v", got)
	}
	if !bytes.Equal(got.Payload, payload) {
		t.Fatalf("payload = %q", got.Payload)
	}
}

// DecodeInto reuses the caller's packet: every field is overwritten (a
// stamped, checksummed frame leaves nothing behind for a plain one), a
// refused frame leaves it untouched, and no call allocates.
func TestDecodeIntoReusesPacket(t *testing.T) {
	dst := mustAddr(t, 5, 42, 2)
	rich, plain := make([]byte, 96), make([]byte, 96)
	if err := Encode(&Packet{Dst: dst, Size: 3, Flags: 3, Seq: 7, Payload: []byte("abc"), Stamp: 12345, Checksum: true}, rich); err != nil {
		t.Fatal(err)
	}
	if err := Encode(&Packet{Dst: dst, Size: 2, Seq: 8, Payload: []byte("de")}, plain); err != nil {
		t.Fatal(err)
	}
	var p Packet
	if err := DecodeInto(rich, &p); err != nil {
		t.Fatal(err)
	}
	if p.Stamp != 12345 || !p.Checksum || string(p.Payload) != "abc" {
		t.Fatalf("rich frame decoded as %+v", p)
	}
	if err := DecodeInto(plain, &p); err != nil {
		t.Fatal(err)
	}
	if p.Stamp != 0 || p.Checksum || p.Seq != 8 || p.Flags != 0 || string(p.Payload) != "de" {
		t.Fatalf("plain frame decoded as %+v", p)
	}
	rich[20] ^= 1
	if err := DecodeInto(rich, &p); !errors.Is(err, ErrChecksum) {
		t.Fatalf("corrupt frame: %v", err)
	}
	if p.Seq != 8 || string(p.Payload) != "de" {
		t.Fatalf("refused frame overwrote the packet: %+v", p)
	}
	if israce.Enabled {
		return
	}
	if n := testing.AllocsPerRun(100, func() {
		if err := DecodeInto(plain, &p); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("DecodeInto allocates %v objects per call, want 0", n)
	}
}

func TestEncodeZeroFillsTail(t *testing.T) {
	dst := mustAddr(t, 1, 1, 1)
	frame := make([]byte, 64)
	for i := range frame {
		frame[i] = 0xFF // stale garbage
	}
	p := &Packet{Dst: dst, Size: 4, Payload: []byte("abcd")}
	if err := Encode(p, frame); err != nil {
		t.Fatal(err)
	}
	for i := HeaderBytes + 4; i < len(frame); i++ {
		if frame[i] != 0 {
			t.Fatalf("frame[%d] = %#x, stale bytes leaked", i, frame[i])
		}
	}
}

func TestEncodeErrors(t *testing.T) {
	dst := mustAddr(t, 1, 1, 1)
	if err := Encode(&Packet{Dst: dst, Size: 0}, make([]byte, 60)); err == nil {
		t.Fatal("bad frame size accepted")
	}
	if err := Encode(&Packet{Dst: dst, Size: 5, Payload: []byte("ab")}, make([]byte, 64)); err == nil {
		t.Fatal("size/payload mismatch accepted")
	}
	big := make([]byte, 57)
	if err := Encode(&Packet{Dst: dst, Size: 57, Payload: big}, make([]byte, 64)); err == nil {
		t.Fatal("oversized payload accepted")
	}
	if err := Encode(&Packet{Dst: NilAddr, Size: 0}, make([]byte, 64)); err == nil {
		t.Fatal("nil destination accepted")
	}
}

func TestDecodeErrors(t *testing.T) {
	if _, err := Decode(make([]byte, 63)); err == nil {
		t.Fatal("bad frame size accepted")
	}
	frame := make([]byte, 64)
	if _, err := Decode(frame); err == nil {
		t.Fatal("nil destination frame accepted")
	}
	// Valid dst but size field too large.
	dst := mustAddr(t, 1, 1, 1)
	p := &Packet{Dst: dst, Size: 8, Payload: make([]byte, 8)}
	if err := Encode(p, frame); err != nil {
		t.Fatal(err)
	}
	frame[4], frame[5] = 0xFF, 0xFF
	if _, err := Decode(frame); err == nil {
		t.Fatal("oversize size field accepted")
	}
}

func TestDecodePayloadCapped(t *testing.T) {
	dst := mustAddr(t, 1, 1, 1)
	frame := make([]byte, 64)
	p := &Packet{Dst: dst, Size: 10, Payload: make([]byte, 10)}
	if err := Encode(p, frame); err != nil {
		t.Fatal(err)
	}
	got, err := Decode(frame)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Payload) != 10 || cap(got.Payload) != 10 {
		t.Fatalf("payload len=%d cap=%d, want capped slice", len(got.Payload), cap(got.Payload))
	}
}

func TestPriority(t *testing.T) {
	if Priority(FlagUrgent|5) != 5 {
		t.Fatalf("Priority = %d, want 5", Priority(FlagUrgent|5))
	}
	if Priority(0) != 0 {
		t.Fatal("zero flags priority")
	}
}

func TestQuickEncodeDecode(t *testing.T) {
	prop := func(payload []byte, flags, seq uint8, sizeSel uint8) bool {
		msgSize := 64 + 32*int(sizeSel%8) // 64..288
		if len(payload) > MaxPayload(msgSize) {
			payload = payload[:MaxPayload(msgSize)]
		}
		flags &^= FlagStamped | FlagChecksummed // reserved transport bits, masked by Encode
		dst, err := MakeAddr(7, 7, 7)
		if err != nil {
			return false
		}
		p := &Packet{Dst: dst, Size: uint16(len(payload)), Flags: flags, Seq: seq, Payload: payload}
		frame := make([]byte, msgSize)
		if err := Encode(p, frame); err != nil {
			return false
		}
		got, err := Decode(frame)
		if err != nil {
			return false
		}
		return got.Dst == dst && got.Flags == flags && got.Seq == seq && bytes.Equal(got.Payload, payload)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestStampRoundTrip(t *testing.T) {
	dst := mustAddr(t, 3, 9, 1)
	payload := []byte("stamped")
	stamp := int64(1_700_000_000_123_456_789)
	p := &Packet{Dst: dst, Size: uint16(len(payload)), Payload: payload, Stamp: stamp}
	frame := make([]byte, 128)
	if err := Encode(p, frame); err != nil {
		t.Fatal(err)
	}
	if frame[6]&FlagStamped == 0 {
		t.Fatal("FlagStamped not set on stamped frame")
	}
	got, err := Decode(frame)
	if err != nil {
		t.Fatal(err)
	}
	if got.Stamp != stamp {
		t.Fatalf("stamp = %d, want %d", got.Stamp, stamp)
	}
	if got.Flags&FlagStamped != 0 {
		t.Fatal("FlagStamped leaked to application flags")
	}
	if !bytes.Equal(got.Payload, payload) {
		t.Fatalf("payload = %q", got.Payload)
	}
}

func TestStampOmittedWhenNoRoom(t *testing.T) {
	dst := mustAddr(t, 3, 9, 1)
	frame := make([]byte, 64)
	// Payload fills the frame to within StampBytes-1 of capacity: no
	// room for the trailer, so the stamp is silently dropped.
	payload := make([]byte, MaxPayload(64)-StampBytes+1)
	p := &Packet{Dst: dst, Size: uint16(len(payload)), Payload: payload, Stamp: 42}
	if err := Encode(p, frame); err != nil {
		t.Fatal(err)
	}
	if frame[6]&FlagStamped != 0 {
		t.Fatal("FlagStamped set with no trailer room")
	}
	got, err := Decode(frame)
	if err != nil {
		t.Fatal(err)
	}
	if got.Stamp != 0 {
		t.Fatalf("stamp = %d, want 0", got.Stamp)
	}
	// Exactly StampBytes of slack is enough.
	payload = make([]byte, MaxPayload(64)-StampBytes)
	p = &Packet{Dst: dst, Size: uint16(len(payload)), Payload: payload, Stamp: 42}
	if err := Encode(p, frame); err != nil {
		t.Fatal(err)
	}
	got, err = Decode(frame)
	if err != nil {
		t.Fatal(err)
	}
	if got.Stamp != 42 {
		t.Fatalf("stamp = %d, want 42", got.Stamp)
	}
}

func TestChecksumRoundTrip(t *testing.T) {
	dst := mustAddr(t, 3, 9, 1)
	payload := []byte("integrity")
	p := &Packet{Dst: dst, Size: uint16(len(payload)), Payload: payload, Checksum: true, Stamp: 777}
	frame := make([]byte, 128)
	if err := Encode(p, frame); err != nil {
		t.Fatal(err)
	}
	if frame[6]&FlagChecksummed == 0 {
		t.Fatal("FlagChecksummed not set on checksummed frame")
	}
	got, err := Decode(frame)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Checksum {
		t.Fatal("verified checksum not reported")
	}
	if got.Flags&FlagChecksummed != 0 {
		t.Fatal("FlagChecksummed leaked to application flags")
	}
	if got.Stamp != 777 || !bytes.Equal(got.Payload, payload) {
		t.Fatalf("stamp=%d payload=%q", got.Stamp, got.Payload)
	}
}

func TestChecksumDetectsAnySingleBitFlip(t *testing.T) {
	dst := mustAddr(t, 3, 9, 1)
	payload := []byte("every bit is load-bearing")
	p := &Packet{Dst: dst, Size: uint16(len(payload)), Payload: payload, Checksum: true, Stamp: 123456789}
	pristine := make([]byte, 64)
	if err := Encode(p, pristine); err != nil {
		t.Fatal(err)
	}
	frame := make([]byte, len(pristine))
	for bit := 0; bit < len(pristine)*8; bit++ {
		if bit == 6*8+5 {
			// The one blind spot of a flag-gated checksum: flipping the
			// FlagChecksummed bit itself turns verification off. DESIGN.md
			// documents this as the compatibility trade-off.
			continue
		}
		copy(frame, pristine)
		frame[bit/8] ^= 1 << (bit % 8)
		if _, err := Decode(frame); err == nil {
			t.Fatalf("bit flip at %d undetected", bit)
		}
	}
}

func TestChecksumErrorIsSentinel(t *testing.T) {
	dst := mustAddr(t, 3, 9, 1)
	p := &Packet{Dst: dst, Size: 2, Payload: []byte("ok"), Checksum: true}
	frame := make([]byte, 64)
	if err := Encode(p, frame); err != nil {
		t.Fatal(err)
	}
	frame[HeaderBytes] ^= 0x01
	_, err := Decode(frame)
	if !errors.Is(err, ErrChecksum) {
		t.Fatalf("corrupted checksummed frame: err = %v, want ErrChecksum", err)
	}
	// A non-checksummed frame with a corrupted payload is NOT a checksum
	// error (nothing to verify): corruption passes through undetected,
	// which is exactly the flag-gated contract.
	p = &Packet{Dst: dst, Size: 2, Payload: []byte("ok")}
	if err := Encode(p, frame); err != nil {
		t.Fatal(err)
	}
	frame[HeaderBytes] ^= 0x01
	if _, err := Decode(frame); err != nil {
		t.Fatalf("unchecksummed frame rejected: %v", err)
	}
}

func TestChecksumOmittedWhenNoRoom(t *testing.T) {
	dst := mustAddr(t, 3, 9, 1)
	frame := make([]byte, 64)
	// Payload leaves less than StampBytes+ChecksumBytes of slack: the
	// checksum is silently omitted and the frame decodes unverified.
	payload := make([]byte, MaxPayload(64)-StampBytes-ChecksumBytes+1)
	p := &Packet{Dst: dst, Size: uint16(len(payload)), Payload: payload, Checksum: true}
	if err := Encode(p, frame); err != nil {
		t.Fatal(err)
	}
	if frame[6]&FlagChecksummed != 0 {
		t.Fatal("FlagChecksummed set with no trailer room")
	}
	got, err := Decode(frame)
	if err != nil {
		t.Fatal(err)
	}
	if got.Checksum {
		t.Fatal("unverified frame reported as checksummed")
	}
	// Exactly StampBytes+ChecksumBytes of slack is enough.
	payload = make([]byte, MaxPayload(64)-StampBytes-ChecksumBytes)
	p = &Packet{Dst: dst, Size: uint16(len(payload)), Payload: payload, Checksum: true}
	if err := Encode(p, frame); err != nil {
		t.Fatal(err)
	}
	got, err = Decode(frame)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Checksum {
		t.Fatal("checksum dropped with exactly enough room")
	}
}

func TestChecksumFlagCannotBeForged(t *testing.T) {
	dst := mustAddr(t, 3, 9, 1)
	// An application setting the reserved bit gets it masked; a frame
	// whose flag byte is corrupted to claim a checksum fails closed.
	p := &Packet{Dst: dst, Size: 2, Payload: []byte("hi"), Flags: FlagChecksummed | FlagUrgent}
	frame := make([]byte, 64)
	if err := Encode(p, frame); err != nil {
		t.Fatal(err)
	}
	got, err := Decode(frame)
	if err != nil {
		t.Fatal(err)
	}
	if got.Checksum || got.Flags != FlagUrgent {
		t.Fatalf("checksum=%v flags=%#x, want unforged", got.Checksum, got.Flags)
	}
	// Now forge the wire bit directly: the zero trailer slot will not
	// match the computed CRC, so the frame is dropped as checksum loss.
	frame[6] |= FlagChecksummed
	if _, err := Decode(frame); !errors.Is(err, ErrChecksum) {
		t.Fatalf("forged wire flag: err = %v, want ErrChecksum", err)
	}
}

func TestQuickChecksumCorruption(t *testing.T) {
	// Fuzz: any random mutation of a checksummed frame must either be
	// detected (decode error) or leave the frame byte-identical.
	prop := func(payload []byte, idx uint16, mutation byte) bool {
		frame := make([]byte, 96)
		if len(payload) > MaxPayload(96)-StampBytes-ChecksumBytes {
			payload = payload[:MaxPayload(96)-StampBytes-ChecksumBytes]
		}
		dst, err := MakeAddr(2, 4, 6)
		if err != nil {
			return false
		}
		p := &Packet{Dst: dst, Size: uint16(len(payload)), Payload: payload, Checksum: true, Stamp: 42}
		if err := Encode(p, frame); err != nil {
			return false
		}
		i := int(idx) % len(frame)
		orig := frame[i]
		frame[i] ^= mutation
		_, err = Decode(frame)
		if frame[i] == orig {
			return err == nil
		}
		if frame[6]&FlagChecksummed == 0 {
			// Corruption cleared the gate flag itself: verification is
			// off, so detection is not guaranteed (flag-gated by design).
			return true
		}
		return errors.Is(err, ErrChecksum)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestStampFlagCannotBeForged(t *testing.T) {
	dst := mustAddr(t, 3, 9, 1)
	// An application setting the reserved bit gets it masked: no stale
	// trailer bytes are ever interpreted as a timestamp.
	p := &Packet{Dst: dst, Size: 2, Payload: []byte("hi"), Flags: FlagStamped | FlagUrgent}
	frame := make([]byte, 64)
	if err := Encode(p, frame); err != nil {
		t.Fatal(err)
	}
	got, err := Decode(frame)
	if err != nil {
		t.Fatal(err)
	}
	if got.Stamp != 0 || got.Flags != FlagUrgent {
		t.Fatalf("stamp=%d flags=%#x, want unforged", got.Stamp, got.Flags)
	}
}

func TestParseAddr(t *testing.T) {
	for _, c := range []struct {
		in   string
		want Addr
		ok   bool
	}{
		{"0x1", 1, true},
		{"0X400401", 0x400401, true},
		{"400401", 0x400401, true},
		{"ffffffff", 0xffffffff, true},
		{"", NilAddr, false},
		{"0x", NilAddr, false},
		{"xyz", NilAddr, false},
		{"0x1g", NilAddr, false},
		{"100000000", NilAddr, false}, // wider than 32 bits
		{"0", NilAddr, false},         // nil address
		{"0x400", NilAddr, false},     // generation 0
	} {
		got, err := ParseAddr(c.in)
		if (err == nil) != c.ok || got != c.want {
			t.Errorf("ParseAddr(%q) = %#x, %v; want %#x, ok=%v", c.in, uint32(got), err, uint32(c.want), c.ok)
		}
	}
}
