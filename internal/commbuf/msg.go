package commbuf

import (
	"fmt"

	"flipc/internal/mem"
	"flipc/internal/wire"
)

// State is a message buffer's position in its ownership cycle. The
// state field lives in the buffer's meta word; ownership alternates
// between the application and the engine through the endpoint queue, so
// although both sides write the field over a buffer's lifetime, they
// never do so concurrently (the paper's rule is about *concurrent*
// writes; handoff is ordered by the queue-pointer atomics).
type State uint8

// Buffer states.
const (
	// StateFree: in the application library's free pool.
	StateFree State = iota
	// StateOwned: allocated to the application, being filled or read.
	StateOwned
	// StateQueued: released onto an endpoint queue; the engine may
	// process it at any time. The application must not touch it.
	StateQueued
	// StateDone: processed by the engine (sent, or filled with a
	// received message); waiting for the application to acquire it.
	StateDone
	// StateDropped: a send the engine refused during validity checking
	// (bad destination or size). Counted on the endpoint's counter.
	StateDropped
)

// String returns the state name.
func (s State) String() string {
	switch s {
	case StateFree:
		return "free"
	case StateOwned:
		return "owned"
	case StateQueued:
		return "queued"
	case StateDone:
		return "done"
	case StateDropped:
		return "dropped"
	default:
		return fmt.Sprintf("state(%d)", uint8(s))
	}
}

// metaWord is the unpacked form of a buffer's 8-byte meta word — the
// paper's per-message overhead for "internal addressing and
// synchronization purposes". Layout (bits):
//
//	[63:32] destination or source endpoint address
//	[31:16] payload size
//	[15:8]  flags
//	[7:0]   state
type metaWord struct {
	addr  wire.Addr
	size  uint16
	flags uint8
	state State
}

func packMeta(m metaWord) uint64 {
	return uint64(m.addr)<<32 | uint64(m.size)<<16 | uint64(m.flags)<<8 | uint64(m.state)
}

func unpackMeta(v uint64) metaWord {
	return metaWord{
		addr:  wire.Addr(v >> 32),
		size:  uint16(v >> 16),
		flags: uint8(v >> 8),
		state: State(v),
	}
}

// Msg is the handle on one fixed-size message buffer inside the
// communication buffer: one immutable entry per buffer ID, built by New.
// The handle caches only the buffer ID and where its meta word lives; all
// mutable state is in the arena.
type Msg struct {
	buf     *Buffer
	id      int
	metaOff int // word offset of the meta word
}

// ID returns the buffer-table index.
func (m *Msg) ID() int { return m.id }

// Payload returns the buffer's full application payload area
// (MessageSize-8 bytes). The application may only touch it while it
// owns the buffer (StateOwned or StateDone).
func (m *Msg) Payload() []byte {
	return m.buf.arena.Payload(m.buf.payloadOffset(m.id), m.buf.cfg.MaxPayload())
}

func (m *Msg) meta(v mem.View) metaWord { return unpackMeta(v.Load(m.metaOff)) }

func (m *Msg) setMeta(v mem.View, w metaWord) { v.Store(m.metaOff, packMeta(w)) }

// State returns the buffer's current state as seen through v.
func (m *Msg) State(v mem.View) State { return m.meta(v).state }

// Done reports whether the engine has finished processing this buffer —
// the paper's "state field ... allowing an application to determine
// when processing of a specific buffer is complete".
func (m *Msg) Done(v mem.View) bool {
	s := m.State(v)
	return s == StateDone || s == StateDropped
}

// Size returns the meta word's payload size field.
func (m *Msg) Size(v mem.View) int { return int(m.meta(v).size) }

// Flags returns the meta word's flags field.
func (m *Msg) Flags(v mem.View) uint8 { return m.meta(v).flags }

// Addr returns the meta word's address field: the destination on a
// queued send, untouched on a received message (FLIPC does not deliver
// sender identity).
func (m *Msg) Addr(v mem.View) wire.Addr { return m.meta(v).addr }

// StageSend prepares the buffer for transmission: destination, payload
// size, and flags, moving it to StateQueued. Called by the library
// (while the application owns the buffer) immediately before releasing
// it onto a send endpoint's queue.
func (m *Msg) StageSend(v mem.View, dst wire.Addr, size int, flags uint8) error {
	if !dst.Valid() {
		return fmt.Errorf("commbuf: invalid destination %v", dst)
	}
	if size < 0 || size > m.buf.cfg.MaxPayload() {
		return fmt.Errorf("commbuf: payload size %d out of range [0,%d]", size, m.buf.cfg.MaxPayload())
	}
	if st := m.State(v); st != StateOwned {
		return fmt.Errorf("commbuf: StageSend on buffer %d in state %v", m.id, st)
	}
	m.setMeta(v, metaWord{addr: dst, size: uint16(size), flags: flags, state: StateQueued})
	return nil
}

// StageRecv prepares the buffer to receive: zero size, StateQueued.
// Called immediately before releasing it onto a receive endpoint.
func (m *Msg) StageRecv(v mem.View) error {
	if st := m.State(v); st != StateOwned {
		return fmt.Errorf("commbuf: StageRecv on buffer %d in state %v", m.id, st)
	}
	m.setMeta(v, metaWord{state: StateQueued})
	return nil
}

// Reclaim moves a Done/Dropped buffer back to application ownership
// after it has been acquired from a queue.
func (m *Msg) Reclaim(v mem.View) error {
	st := m.State(v)
	if st != StateDone && st != StateDropped {
		return fmt.Errorf("commbuf: Reclaim of buffer %d in state %v", m.id, st)
	}
	mw := m.meta(v)
	mw.state = StateOwned
	m.setMeta(v, mw)
	return nil
}

// Unstage undoes StageSend/StageRecv on a buffer the queue then refused
// (a racing thread took the last slot): Queued back to Owned, so its
// owner can stage it again. The engine never saw the buffer.
func (m *Msg) Unstage(v mem.View) error {
	if st := m.State(v); st != StateQueued {
		return fmt.Errorf("commbuf: Unstage of buffer %d in state %v", m.id, st)
	}
	m.setMeta(v, metaWord{state: StateOwned})
	return nil
}

// Engine-side meta transitions. These take the engine's view; the
// engine owns the buffer between the queue's process handoff and its
// AdvanceProcess.

// EngineCompleteSend marks a queued send buffer as transmitted.
func (m *Msg) EngineCompleteSend(eng mem.View) {
	mw := m.meta(eng)
	mw.state = StateDone
	m.setMeta(eng, mw)
}

// EngineDropSend marks a queued send buffer as refused by validity
// checking.
func (m *Msg) EngineDropSend(eng mem.View) {
	mw := m.meta(eng)
	mw.state = StateDropped
	m.setMeta(eng, mw)
}

// EngineFillRecv records an arrived message into a posted receive
// buffer: the payload must already be copied; this publishes size and
// flags and marks the buffer Done.
func (m *Msg) EngineFillRecv(eng mem.View, size int, flags uint8) {
	m.setMeta(eng, metaWord{size: uint16(size), flags: flags, state: StateDone})
}

// EngineMeta returns the raw meta fields for validity checking.
func (m *Msg) EngineMeta(eng mem.View) (dst wire.Addr, size int, flags uint8, state State) {
	mw := m.meta(eng)
	return mw.addr, int(mw.size), mw.flags, mw.state
}
