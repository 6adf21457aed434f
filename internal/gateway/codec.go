// Package gateway is FLIPC's client edge plane: a daemon that
// terminates long-lived TCP client connections, speaks a small
// length-prefixed framing protocol with them, and bridges their
// subscribe/publish traffic onto the topic plane through a SMALL FIXED
// set of commbuf endpoints — one per priority class, not one per
// client. The fabric's resources (endpoints, posted buffers, registry
// leases) scale with the number of gateways and classes, never with
// the client population; per-client state lives entirely in the
// gateway's memory as bounded queues and drop ledgers.
//
// The three planes:
//
//   - connection: the TCP front (server.go) owns sockets and framing;
//   - fanout: the Mux (mux.go) owns the class inboxes, the pattern
//     subscriptions, the per-client wildcard index, and per-client
//     backpressure with FLIPC's counted-loss discipline;
//   - durability/membership: the registry, reached through a
//     topic.Directory — pattern subscriptions and presence leases
//     are lease-renewed soft state there.
package gateway

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"unsafe"
)

// Client framing: every frame on the wire is
//
//	[2-byte big-endian body length][body]
//
// and every body starts with an op byte. Bodies are bounded by
// MaxFrameBody; a peer announcing a longer frame is cut off (framing
// desync is unrecoverable on a stream). Layouts after the op byte:
//
//	hello   (1), client→gw: ver(1) | idlen(1) | id — names the client;
//	                        the id becomes its presence key, prefixed
//	                        with the gateway name.
//	sub     (2), client→gw: class(1) | plen(1) | pattern — subscribe to
//	                        a wildcard pattern (nameservice grammar; an
//	                        exact topic name is a valid pattern). class
//	                        picks the priority lane the subscription's
//	                        deliveries ride (0 bulk, 1 normal, 2 ctl).
//	unsub   (3), client→gw: plen(1) | pattern.
//	pub     (4), client→gw: class(1) | tlen(1) | topic | payload.
//	deliver (5), gw→client: class(1) | tlen(1) | topic | payload.
//	err     (6), gw→client: code(1) | mlen(1) | message.
//	ping    (7), either:    opaque echo bytes; answered with pong.
//	pong    (8), either:    the echoed bytes.
//
// The codec is deliberately dumb — fixed offsets, one length byte per
// name — so the fuzzer can reach every parse path in a few bytes.

// Frame ops.
const (
	OpHello   = 1
	OpSub     = 2
	OpUnsub   = 3
	OpPub     = 4
	OpDeliver = 5
	OpErr     = 6
	OpPing    = 7
	OpPong    = 8
)

// Err codes carried by OpErr frames.
const (
	ErrCodeBadFrame  = 1 // unparseable or unknown frame
	ErrCodeNoHello   = 2 // op before hello
	ErrCodeBadName   = 3 // invalid pattern/topic
	ErrCodeThrottled = 4 // client marked throttled (queue overflow)
	ErrCodePublish   = 5 // publish failed upstream
)

// MaxFrameBody bounds one frame body (op byte included). Client
// payloads must also fit the fabric MTU minus the topic envelope; the
// Mux enforces that per publish.
const MaxFrameBody = 16 * 1024

// MaxClientName bounds client ids, patterns, and topic names in the
// client protocol (one length byte, and the registry's own 200-byte
// bound applies downstream).
const MaxClientName = 200

// frameHeaderBytes is the length prefix size.
const frameHeaderBytes = 2

// Frame is one decoded client-protocol frame.
type Frame struct {
	Op    byte
	Ver   byte   // hello: protocol version
	Code  byte   // err: code
	Class uint8  // sub/pub/deliver: priority lane
	Name  string // hello: id; sub/unsub: pattern; pub/deliver: topic
	// Payload: pub/deliver payload, ping/pong echo, err message bytes.
	Payload []byte
}

// Codec errors.
var (
	ErrFrameTooBig = errors.New("gateway: frame exceeds MaxFrameBody")
	ErrBadFrame    = errors.New("gateway: malformed frame")
)

// AppendFrame appends the wire encoding of f (length prefix included)
// to dst. It is the single encoder for both directions. On error dst
// comes back with its length unchanged.
func AppendFrame(dst []byte, f Frame) ([]byte, error) {
	if len(f.Name) > MaxClientName {
		return dst, fmt.Errorf("%w: name %d bytes", ErrBadFrame, len(f.Name))
	}
	start := len(dst)
	dst = append(dst, 0, 0, f.Op) // the length prefix is patched in below
	switch f.Op {
	case OpHello:
		dst = append(append(dst, f.Ver, byte(len(f.Name))), f.Name...)
	case OpSub:
		dst = append(append(dst, f.Class, byte(len(f.Name))), f.Name...)
	case OpUnsub:
		dst = append(append(dst, byte(len(f.Name))), f.Name...)
	case OpPub, OpDeliver:
		dst = append(append(append(dst, f.Class, byte(len(f.Name))), f.Name...), f.Payload...)
	case OpErr:
		if len(f.Payload) > 255 {
			return dst[:start], fmt.Errorf("%w: err message %d bytes", ErrBadFrame, len(f.Payload))
		}
		dst = append(append(dst, f.Code, byte(len(f.Payload))), f.Payload...)
	case OpPing, OpPong:
		dst = append(dst, f.Payload...)
	default:
		return dst[:start], fmt.Errorf("%w: op %d", ErrBadFrame, f.Op)
	}
	body := len(dst) - start - frameHeaderBytes
	if body > MaxFrameBody {
		return dst[:start], ErrFrameTooBig
	}
	binary.BigEndian.PutUint16(dst[start:], uint16(body))
	return dst, nil
}

// splitName parses lead(1) | nlen(1) | name | rest — what follows the
// op byte of a hello, sub, pub or deliver body — in place.
func splitName(body []byte) (lead byte, name, rest []byte, ok bool) {
	if len(body) < 2 {
		return 0, nil, nil, false
	}
	n := int(body[1])
	if n == 0 || n > MaxClientName || 2+n > len(body) {
		return 0, nil, nil, false
	}
	return body[0], body[2 : 2+n], body[2+n:], true
}

// DecodeBody parses one frame body (the bytes after the length
// prefix). It lends body: Name is a string view of it and Payload a
// slice of it, valid until body is reused — clone them to retain.
func DecodeBody(body []byte) (Frame, error) {
	var f Frame
	if len(body) < 1 || len(body) > MaxFrameBody {
		return f, ErrBadFrame
	}
	f.Op = body[0]
	rest := body[1:]
	switch f.Op {
	case OpHello, OpSub, OpPub, OpDeliver:
		lead, name, payload, ok := splitName(rest)
		short := f.Op == OpHello || f.Op == OpSub // nothing may follow the name
		if !ok || short && len(payload) > 0 {
			return f, ErrBadFrame
		}
		f.Name = unsafe.String(&name[0], len(name))
		switch {
		case f.Op == OpHello:
			f.Ver = lead
		case short:
			f.Class = lead
		default:
			f.Class, f.Payload = lead, payload
		}
	case OpUnsub:
		if len(rest) < 1 {
			return f, ErrBadFrame
		}
		n := int(rest[0])
		if n == 0 || n > MaxClientName || 1+n != len(rest) {
			return f, ErrBadFrame
		}
		f.Name = unsafe.String(&rest[1], n)
	case OpErr:
		if len(rest) < 2 {
			return f, ErrBadFrame
		}
		n := int(rest[1])
		if 2+n != len(rest) {
			return f, ErrBadFrame
		}
		f.Code = rest[0]
		f.Payload = rest[2 : 2+n]
	case OpPing, OpPong:
		f.Payload = rest
	default:
		return f, fmt.Errorf("%w: op %d", ErrBadFrame, f.Op)
	}
	return f, nil
}

// Scanner reads length-prefixed frame bodies off a byte stream. One
// scanner per connection; not concurrency-safe.
type Scanner struct {
	r   io.Reader
	hdr [frameHeaderBytes]byte
	buf []byte
}

// NewScanner wraps r.
func NewScanner(r io.Reader) *Scanner { return &Scanner{r: r} }

// Next returns the next frame body. The slice is reused by the
// following Next call. An announced body over MaxFrameBody (or zero)
// returns ErrBadFrame without consuming it — framing is unrecoverable
// at that point, and the caller must drop the connection.
func (s *Scanner) Next() ([]byte, error) {
	if _, err := io.ReadFull(s.r, s.hdr[:]); err != nil {
		return nil, err
	}
	n := int(binary.BigEndian.Uint16(s.hdr[:]))
	if n == 0 || n > MaxFrameBody {
		return nil, fmt.Errorf("%w: announced body %d", ErrBadFrame, n)
	}
	if cap(s.buf) < n {
		s.buf = make([]byte, n)
	}
	body := s.buf[:n]
	if _, err := io.ReadFull(s.r, body); err != nil {
		return nil, err
	}
	return body, nil
}
