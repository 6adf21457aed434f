package gateway

import (
	"fmt"
	"net"
	"time"

	"flipc/internal/topic"
)

// Conn is a minimal client for the gateway protocol, used by the
// benchmark, the examples, and tests. It is synchronous and owns its
// socket; Recv blocks until the next gateway→client frame arrives.
// Not safe for concurrent use — one goroutine per Conn.
type Conn struct {
	c   net.Conn
	sc  *Scanner
	out []byte
}

// Dial connects to a gateway and sends the hello identifying id.
func Dial(addr, id string) (*Conn, error) {
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	if tc, ok := nc.(*net.TCPConn); ok {
		_ = tc.SetNoDelay(true)
	}
	gc := &Conn{c: nc, sc: NewScanner(nc)}
	if err := gc.send(Frame{Op: OpHello, Ver: 1, Name: id}); err != nil {
		_ = nc.Close()
		return nil, err
	}
	return gc, nil
}

func (g *Conn) send(f Frame) error {
	var err error
	g.out, err = AppendFrame(g.out[:0], f)
	if err != nil {
		return err
	}
	_, err = g.c.Write(g.out)
	return err
}

// Subscribe subscribes to a pattern on the given delivery lane.
func (g *Conn) Subscribe(pattern string, class topic.Class) error {
	return g.send(Frame{Op: OpSub, Class: uint8(class.Base()), Name: pattern})
}

// Unsubscribe drops a pattern on every lane.
func (g *Conn) Unsubscribe(pattern string) error {
	return g.send(Frame{Op: OpUnsub, Name: pattern})
}

// Publish publishes payload on a topic at the given class.
func (g *Conn) Publish(topicName string, class topic.Class, payload []byte) error {
	return g.send(Frame{Op: OpPub, Class: uint8(class.Base()), Name: topicName, Payload: payload})
}

// Ping sends a ping with opaque echo bytes; the gateway answers with a
// pong carrying them back (received via Recv).
func (g *Conn) Ping(echo []byte) error {
	return g.send(Frame{Op: OpPing, Payload: echo})
}

// Recv returns the next gateway→client frame. Name and Payload are
// copies and safe to retain. An OpErr frame is returned, not turned
// into an error — protocol errors are data, the stream stays usable.
func (g *Conn) Recv() (Frame, error) {
	body, err := g.sc.Next()
	if err != nil {
		return Frame{}, err
	}
	f, err := DecodeBody(body)
	if err != nil {
		return Frame{}, err
	}
	f.Payload = append([]byte(nil), f.Payload...) // DecodeBody copied Name already
	return f, nil
}

// RecvDeliver returns the next OpDeliver frame, surfacing any OpErr
// received before it as an error. Ping/pong frames are skipped.
func (g *Conn) RecvDeliver() (Frame, error) {
	for {
		f, err := g.Recv()
		if err != nil {
			return f, err
		}
		switch f.Op {
		case OpDeliver:
			return f, nil
		case OpErr:
			return f, fmt.Errorf("gateway: err code %d: %s", f.Code, f.Payload)
		}
	}
}

// SetReadDeadline bounds the next Recv.
func (g *Conn) SetReadDeadline(t time.Time) error { return g.c.SetReadDeadline(t) }

// Close closes the socket.
func (g *Conn) Close() error { return g.c.Close() }
