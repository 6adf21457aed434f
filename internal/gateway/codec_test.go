package gateway

import (
	"bytes"
	"errors"
	"io"
	"net"
	"testing"

	"flipc/internal/israce"
)

func roundTrip(t *testing.T, f Frame) Frame {
	t.Helper()
	enc, err := AppendFrame(nil, f)
	if err != nil {
		t.Fatalf("encode %+v: %v", f, err)
	}
	sc := NewScanner(bytes.NewReader(enc))
	body, err := sc.Next()
	if err != nil {
		t.Fatalf("scan: %v", err)
	}
	got, err := DecodeBody(body)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	return got
}

func TestCodecRoundTrip(t *testing.T) {
	cases := []Frame{
		{Op: OpHello, Ver: 1, Name: "sensor-7"},
		{Op: OpSub, Class: 2, Name: "metrics.*"},
		{Op: OpUnsub, Name: "metrics.**"},
		{Op: OpPub, Class: 1, Name: "metrics.cpu", Payload: []byte("42")},
		{Op: OpDeliver, Class: 0, Name: "a.b", Payload: []byte{0, 1, 2}},
		{Op: OpErr, Code: ErrCodeThrottled, Payload: []byte("slow down")},
		{Op: OpPing, Payload: []byte("echo-me")},
		{Op: OpPong},
		{Op: OpPub, Class: 1, Name: "t", Payload: nil}, // empty payload is legal
	}
	for _, f := range cases {
		got := roundTrip(t, f)
		if got.Op != f.Op || got.Ver != f.Ver || got.Code != f.Code ||
			got.Class != f.Class || got.Name != f.Name || !bytes.Equal(got.Payload, f.Payload) {
			t.Fatalf("round trip: sent %+v got %+v", f, got)
		}
	}
}

func TestCodecRejects(t *testing.T) {
	if _, err := AppendFrame(nil, Frame{Op: 99}); err == nil {
		t.Fatal("unknown op encoded")
	}
	if _, err := AppendFrame(nil, Frame{Op: OpHello, Name: string(make([]byte, MaxClientName+1))}); err == nil {
		t.Fatal("oversized name encoded")
	}
	if _, err := AppendFrame(nil, Frame{Op: OpPub, Name: "t", Payload: make([]byte, MaxFrameBody)}); !errors.Is(err, ErrFrameTooBig) {
		t.Fatalf("oversized body: %v", err)
	}
	bad := [][]byte{
		{},                      // empty body
		{OpHello},               // truncated hello
		{OpHello, 1, 0},         // zero-length id
		{OpHello, 1, 5, 'a'},    // id overruns body
		{OpSub, 0, 3, 'a', 'b'}, // pattern overruns
		{OpPub, 0, 2, 'a'},      // topic overruns
		{OpErr, 1, 9},           // message overruns
		{99, 0},                 // unknown op
	}
	for _, body := range bad {
		if _, err := DecodeBody(body); err == nil {
			t.Fatalf("decoded malformed body % x", body)
		}
	}
}

// Extra bytes after a fixed-length op body must be rejected, not
// silently ignored — they would desync a sloppy peer.
func TestCodecRejectsTrailingBytes(t *testing.T) {
	enc, err := AppendFrame(nil, Frame{Op: OpHello, Ver: 1, Name: "x"})
	if err != nil {
		t.Fatal(err)
	}
	body := append(enc[frameHeaderBytes:], 0xFF)
	if _, err := DecodeBody(body); err == nil {
		t.Fatal("decoded hello with trailing garbage")
	}
}

func TestScannerRejectsBadLengths(t *testing.T) {
	if _, err := NewScanner(bytes.NewReader([]byte{0, 0})).Next(); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("zero-length frame: %v", err)
	}
	if _, err := NewScanner(bytes.NewReader([]byte{0xFF, 0xFF})).Next(); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("oversized frame: %v", err)
	}
	if _, err := NewScanner(bytes.NewReader([]byte{0, 5, 1})).Next(); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("truncated body: %v", err)
	}
}

func TestScannerStream(t *testing.T) {
	var stream []byte
	frames := []Frame{
		{Op: OpPing, Payload: []byte("a")},
		{Op: OpDeliver, Class: 1, Name: "x.y", Payload: []byte("zz")},
		{Op: OpPong},
	}
	for _, f := range frames {
		var err error
		stream, err = AppendFrame(stream, f)
		if err != nil {
			t.Fatal(err)
		}
	}
	sc := NewScanner(bytes.NewReader(stream))
	for i, want := range frames {
		body, err := sc.Next()
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		got, err := DecodeBody(body)
		if err != nil || got.Op != want.Op {
			t.Fatalf("frame %d: %+v, %v", i, got, err)
		}
	}
	if _, err := sc.Next(); !errors.Is(err, io.EOF) {
		t.Fatalf("after stream: %v", err)
	}
}

// DecodeBody lends its frame: decoding any body, Name included,
// allocates nothing.
func TestDecodeBodyAllocs(t *testing.T) {
	if israce.Enabled {
		t.Skip("allocation counts differ under the race detector")
	}
	for _, f := range []Frame{
		{Op: OpHello, Ver: 1, Name: "sensor-7"},
		{Op: OpSub, Class: 2, Name: "metrics.*"},
		{Op: OpUnsub, Name: "metrics.**"},
		{Op: OpPub, Class: 1, Name: "metrics.cpu", Payload: []byte("42")},
		{Op: OpDeliver, Class: 0, Name: "a.b", Payload: []byte{0, 1, 2}},
	} {
		enc, err := AppendFrame(nil, f)
		if err != nil {
			t.Fatal(err)
		}
		body := enc[frameHeaderBytes:]
		if n := testing.AllocsPerRun(100, func() {
			if got, err := DecodeBody(body); err != nil || got.Name != f.Name {
				t.Fatalf("decode %+v: %+v, %v", f, got, err)
			}
		}); n != 0 {
			t.Fatalf("op %d: DecodeBody allocates %v objects, want 0", f.Op, n)
		}
	}
}

// Conn.Recv hands out copies: a frame's Name and Payload survive the
// next Recv, which reads into the same scanner buffer.
func TestRecvFrameOutlivesNextRecv(t *testing.T) {
	near, far := net.Pipe()
	defer near.Close()
	defer far.Close()
	go func() {
		for _, f := range []Frame{
			{Op: OpDeliver, Class: 1, Name: "a.first", Payload: []byte("one")},
			{Op: OpDeliver, Class: 1, Name: "b.other", Payload: []byte("two")},
		} {
			enc, _ := AppendFrame(nil, f)
			if _, err := far.Write(enc); err != nil {
				return
			}
		}
	}()
	g := &Conn{c: near, sc: NewScanner(near)}
	first, err := g.Recv()
	if err != nil {
		t.Fatal(err)
	}
	second, err := g.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if first.Name != "a.first" || string(first.Payload) != "one" || second.Name != "b.other" || string(second.Payload) != "two" {
		t.Fatalf("frames changed under the next Recv: %q %q, %q %q", first.Name, first.Payload, second.Name, second.Payload)
	}
}
