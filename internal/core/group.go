package core

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"flipc/internal/commbuf"
	"flipc/internal/rtsched"
)

// Group logically combines several receive endpoints into a single
// receive abstraction (paper §Architecture and Design). The receive
// operation returns a message from *any* member endpoint.
//
// The group is implemented entirely in the library: the resource
// control model ties buffers to endpoints, so the endpoint queues
// cannot be merged — the library scans members instead, round-robin so
// a busy member cannot starve the others.
type Group struct {
	d      *Domain
	eps    []*Endpoint
	rr     int
	sem    rtsched.Semaphore
	closed atomic.Bool
}

// ErrEmptyGroup is returned when constructing a group with no members.
var ErrEmptyGroup = errors.New("flipc: endpoint group needs at least one member")

// NewGroup builds a group from receive endpoints of one domain.
func (d *Domain) NewGroup(eps ...*Endpoint) (*Group, error) {
	if len(eps) == 0 {
		return nil, ErrEmptyGroup
	}
	for _, e := range eps {
		if e == nil || e.d != d {
			return nil, fmt.Errorf("flipc: group member from another domain")
		}
		if e.ep.Type() != commbuf.EndpointRecv {
			return nil, fmt.Errorf("flipc: group member %v is not a receive endpoint", e.Addr())
		}
	}
	return &Group{d: d, eps: append([]*Endpoint(nil), eps...)}, nil
}

// Members returns the group's endpoints (in construction order).
func (g *Group) Members() []*Endpoint { return append([]*Endpoint(nil), g.eps...) }

// Receive returns the next available message from any member endpoint,
// scanning round-robin from after the last successful member.
func (g *Group) Receive() (*Message, *Endpoint, bool) {
	n := len(g.eps)
	for k := 0; k < n; k++ {
		e := g.eps[(g.rr+k)%n]
		if msg, ok := e.Receive(); ok {
			g.rr = (g.rr + k + 1) % n
			return msg, e, true
		}
	}
	return nil, nil, false
}

// ReceiveBlock blocks until any member endpoint has a message, waking
// through the same kernel/scheduler path as Endpoint.ReceiveBlock, or
// until the deadline (zero: none) passes. All members share one
// semaphore registration while the call is blocked.
func (g *Group) ReceiveBlock(prio Priority, deadline time.Time) (*Message, *Endpoint, error) {
	var msg *Message
	var from *Endpoint
	err := g.d.block(&g.sem, g.eps, prio, deadline, func() bool {
		var ok bool
		msg, from, ok = g.Receive()
		return ok || g.closed.Load()
	})
	if err == nil && msg == nil {
		err = ErrClosed
	}
	return msg, from, err
}

// Close ends the group's blocking: a ReceiveBlock in progress, and every
// later one, returns ErrClosed. The members stay open.
func (g *Group) Close() {
	g.closed.Store(true)
	g.sem.Post()
}

// Drops sums the members' discarded-message counts (without resetting).
func (g *Group) Drops() uint64 {
	var total uint64
	for _, e := range g.eps {
		total += e.Drops()
	}
	return total
}
