// Package core is the FLIPC application interface library: the formal
// API applications program against, hiding the communication buffer's
// data structures (paper Figure 1).
//
// A Domain is one node's FLIPC instance: a communication buffer, a
// messaging engine bound to a transport, and the kernel wakeup path.
// Applications allocate fixed-size message buffers and endpoints, then
// move messages with the five-step cycle of paper Figure 2:
//
//  1. receiver posts an empty buffer on a receive endpoint   (Post)
//  2. sender queues a full buffer on a send endpoint         (Send)
//  3. the messaging engine transfers the message
//  4. receiver removes the message from the receive endpoint (Receive)
//  5. sender reclaims its buffer for reuse                   (Acquire)
//
// Send/Post/Receive/Acquire are the tuned lock-free interface variants:
// they assume at most one application thread uses the endpoint (or that
// mutual exclusion is provided at a higher level), avoiding the
// Paragon's expensive bus-locked test-and-set. The *Locked variants add
// a per-endpoint test-and-set lock for multithreaded endpoints — the
// paper's measurements all use the lock-free forms, and experiment E4
// shows why.
//
// Blocking receives use the real-time semaphore option: the waiting
// thread is woken by the kernel presenting it to the scheduler in
// priority order; FLIPC never interrupts application code with upcalls.
package core

import (
	"errors"
	"fmt"
	"runtime"
	"sync"

	"flipc/internal/commbuf"
	"flipc/internal/engine"
	"flipc/internal/interconnect"
	"flipc/internal/mem"
	"flipc/internal/rtsched"
	"flipc/internal/wire"
)

// Addr re-exports the opaque endpoint address type. Receivers obtain
// addresses from Endpoint.Addr and pass them to senders out of band.
type Addr = wire.Addr

// Priority re-exports the scheduler priority type.
type Priority = rtsched.Priority

// Errors returned by the endpoint operations.
var (
	// ErrQueueFull: the endpoint queue has no free slot. Resource
	// management is the application's responsibility (or a layered
	// library's, see internal/flowctl).
	ErrQueueFull = errors.New("flipc: endpoint queue full")
	// ErrWrongType: operation does not match the endpoint type.
	ErrWrongType = errors.New("flipc: wrong endpoint type for operation")
	// ErrClosed: the domain has been closed.
	ErrClosed = errors.New("flipc: domain closed")
)

// Config configures one domain.
type Config struct {
	// Node is this node's cluster identity.
	Node wire.NodeID
	// MessageSize is the boot-time fixed message size (>=64, multiple
	// of 32); applications get MessageSize-8 payload bytes.
	MessageSize int
	// NumBuffers sizes the message buffer table.
	NumBuffers int
	// MaxEndpoints sizes the endpoint descriptor table.
	MaxEndpoints int
	// EndpointBase offsets this domain's endpoint indices so several
	// domains (mutually untrusting applications, each with its own
	// communication buffer) can share one node through
	// interconnect.NewMux.
	EndpointBase int
	// DefaultQueueDepth is the endpoint queue capacity used when
	// endpoints are allocated with depth 0.
	DefaultQueueDepth int
	// Padded selects the tuned cache layout (default true — pass
	// UnpaddedLayout to reproduce the pre-tuning behaviour).
	UnpaddedLayout bool
	// AllowedNodes, when non-empty, restricts where this domain may
	// send (enforced by the engine's validity checks) — the paper's
	// future-work protection extension for mutually untrusting
	// applications. The local node is always allowed.
	AllowedNodes []wire.NodeID
	// Engine tunes the messaging engine (validity checks, quanta,
	// send policy).
	Engine engine.Config
}

// Domain is one node's FLIPC instance.
type Domain struct {
	buf    *commbuf.Buffer
	eng    *engine.Engine
	kernel *rtsched.Kernel
	app    mem.View
	msgs   []Message // the canonical handle for each buffer id

	mu      sync.Mutex
	started bool
	closed  bool
	stop    chan struct{}
	done    chan struct{}
}

// NewDomain creates a domain on the given transport. The transport's
// local node must match cfg.Node.
func NewDomain(cfg Config, tr interconnect.Transport) (*Domain, error) {
	buf, err := commbuf.New(commbuf.Config{
		Node:              cfg.Node,
		MessageSize:       cfg.MessageSize,
		NumBuffers:        cfg.NumBuffers,
		MaxEndpoints:      cfg.MaxEndpoints,
		EndpointBase:      cfg.EndpointBase,
		DefaultQueueDepth: cfg.DefaultQueueDepth,
		AllowedNodes:      cfg.AllowedNodes,
		Padded:            !cfg.UnpaddedLayout,
	})
	if err != nil {
		return nil, err
	}
	eng, err := engine.New(buf, tr, cfg.Engine)
	if err != nil {
		return nil, err
	}
	d := &Domain{
		buf:    buf,
		eng:    eng,
		kernel: rtsched.NewKernel(buf.Doorbell(), buf.View(mem.ActorKernel)),
		app:    buf.View(mem.ActorApp),
		msgs:   make([]Message, buf.NumBuffers()),
		stop:   make(chan struct{}),
		done:   make(chan struct{}),
	}
	for i := range d.msgs {
		m, _ := buf.MsgByID(uint64(i)) // i < NumBuffers: cannot fail
		d.msgs[i] = Message{d: d, m: m}
	}
	return d, nil
}

// Buffer exposes the communication buffer (experiments, tracing).
func (d *Domain) Buffer() *commbuf.Buffer { return d.buf }

// Engine exposes the messaging engine (experiments, stats).
func (d *Domain) Engine() *engine.Engine { return d.eng }

// Kernel exposes the wakeup kernel (experiments, scheduling tests).
func (d *Domain) Kernel() *rtsched.Kernel { return d.kernel }

// MaxPayload returns the application payload bytes per message.
func (d *Domain) MaxPayload() int { return d.buf.Config().MaxPayload() }

// Poll runs one engine pass plus a kernel pump, for callers that drive
// the domain manually (simulations, single-threaded tests). Returns
// whether the engine did any work.
func (d *Domain) Poll() bool {
	work := d.eng.Poll()
	d.kernel.Pump()
	return work
}

// Start launches the host loop that drives the engine and kernel from a
// dedicated goroutine — the in-process stand-in for the Paragon's
// message coprocessor. Safe to call once; Close stops it.
func (d *Domain) Start() {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.started || d.closed {
		return
	}
	d.started = true
	go func() {
		defer close(d.done)
		for {
			select {
			case <-d.stop:
				return
			default:
			}
			if !d.Poll() {
				// Idle: yield the processor, mirroring the coprocessor's
				// event loop spinning on quiet hardware.
				runtime.Gosched()
			}
		}
	}()
}

// Close stops the host loop. Endpoint operations after Close return
// ErrClosed.
func (d *Domain) Close() {
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return
	}
	d.closed = true
	started := d.started
	d.mu.Unlock()
	close(d.stop)
	if started {
		<-d.done
	}
}

func (d *Domain) isClosed() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.closed
}

// Message is an application handle on one fixed-size message buffer:
// one immutable entry per buffer ID, built by NewDomain, so AllocBuffer
// and Acquire return the same pointer for the same buffer.
type Message struct {
	d *Domain
	m *commbuf.Msg
}

// AllocBuffer takes a message buffer from the communication buffer's
// pool. FLIPC internalizes buffers to guarantee alignment; applications
// must allocate through here rather than supplying their own memory.
func (d *Domain) AllocBuffer() (*Message, error) {
	if d.isClosed() {
		return nil, ErrClosed
	}
	m, err := d.buf.AllocMsg()
	if err != nil {
		return nil, err
	}
	return &d.msgs[m.ID()], nil
}

// FreeBuffer returns a buffer to the pool.
func (d *Domain) FreeBuffer(msg *Message) error {
	if msg == nil || msg.d != d {
		return fmt.Errorf("flipc: FreeBuffer of foreign or nil message")
	}
	return d.buf.FreeMsg(msg.m)
}

// Payload returns the full payload area (MaxPayload bytes). Valid only
// while the application owns the buffer.
func (msg *Message) Payload() []byte { return msg.m.Payload() }

// Len returns the message's payload length: what the sender staged, or
// what arrived on a received message.
func (msg *Message) Len() int { return msg.m.Size(msg.d.app) }

// Flags returns the received message's flags byte.
func (msg *Message) Flags() uint8 { return msg.m.Flags(msg.d.app) }

// Done reports whether the engine has finished with this buffer —
// per-buffer completion detection without touching the queue.
func (msg *Message) Done() bool { return msg.m.Done(msg.d.app) }

// Dropped reports whether the engine refused this send during validity
// checking.
func (msg *Message) Dropped() bool { return msg.m.State(msg.d.app) == commbuf.StateDropped }

// ID returns the buffer-table index (diagnostics).
func (msg *Message) ID() int { return msg.m.ID() }
