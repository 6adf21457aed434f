package gateway

import (
	"errors"
	"io"
	"net"
	"sync"
	"time"

	"flipc/internal/core"
	"flipc/internal/topic"
)

// Server is the connection plane: it owns the listener and the
// per-connection reader/writer goroutines, and drives everything else
// through the Mux. One reader per connection feeds frames to
// Mux.HandleFrame; one writer per connection blocks on the client's
// kick channel and drains PopOut. A connection error in either
// direction detaches the client (releasing subscriptions and its
// presence lease) and closes the socket.
type Server struct {
	mux *Mux

	mu     sync.Mutex
	ln     net.Listener
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup
	inbox  *core.Group // the class inboxes the pump blocks on; Close closes it
}

// NewServer wraps a Mux for TCP serving.
func NewServer(m *Mux) *Server {
	eps := make([]*core.Endpoint, NumClasses)
	for lane, in := range m.in {
		eps[lane] = in.Endpoint()
	}
	g, _ := m.d.NewGroup(eps...) // receive endpoints of m's domain: cannot fail
	return &Server{mux: m, conns: make(map[net.Conn]struct{}), inbox: g}
}

// Mux returns the server's core (health, stats).
func (s *Server) Mux() *Mux { return s.mux }

// Serve accepts connections on ln until Close. It also runs the fanout
// pump loop, which blocks on the class inboxes as one endpoint group
// between Pump calls and is woken by the engine's doorbell.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return net.ErrClosed
	}
	s.ln = ln
	s.mu.Unlock()

	s.wg.Add(1)
	go s.pumpLoop()

	for {
		conn, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return nil
			}
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() {
				continue
			}
			return err
		}
		if tc, ok := conn.(*net.TCPConn); ok {
			_ = tc.SetNoDelay(true)
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			_ = conn.Close()
			return nil
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go s.handle(conn)
	}
}

// pumpLoop drains the inboxes with Pump, then blocks, at the control
// class's priority, for the next frame and fans it out as Pump would.
func (s *Server) pumpLoop() {
	defer s.wg.Done()
	for {
		s.mux.Pump()
		msg, from, err := s.inbox.ReceiveBlock(topic.Control.SchedPriority(), time.Time{})
		if err != nil {
			return // Close closed the group, or the domain closed
		}
		s.mux.take(from, msg)
	}
}

func (s *Server) handle(conn net.Conn) {
	defer s.wg.Done()
	c := s.mux.Attach()
	done := make(chan struct{})

	// Writer: drain the client's queues, blocking on Kick when they are
	// empty; exit when the reader is done (connection gone, client
	// detached). Its PopOut after the detach hands back the frame it
	// last wrote.
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		defer func() { <-done; c.PopOut() }()
		for {
			frame, ok := c.PopOut()
			if !ok {
				select {
				case <-c.Kick():
					continue
				case <-done:
					return
				}
			}
			if _, err := conn.Write(frame); err != nil {
				_ = conn.Close()
				return
			}
		}
	}()

	sc := NewScanner(conn)
	for {
		body, err := sc.Next()
		if err != nil {
			if !errors.Is(err, io.EOF) && errors.Is(err, ErrBadFrame) {
				// Framing desync: nothing more can be parsed.
				_ = conn.Close()
			}
			break
		}
		s.mux.HandleFrame(c, body)
	}
	s.mux.Detach(c)
	close(done)
	_ = conn.Close()
	s.mu.Lock()
	delete(s.conns, conn)
	s.mu.Unlock()
}

// Close stops accepting, closes every connection, and waits for the
// reader/writer/pump goroutines to drain.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	ln := s.ln
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	s.inbox.Close()
	var err error
	if ln != nil {
		err = ln.Close()
	}
	for _, c := range conns {
		_ = c.Close()
	}
	s.wg.Wait()
	return err
}
