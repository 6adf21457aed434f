// Package commbuf implements FLIPC's communication buffer: the
// fixed-size, non-pageable shared-memory region that is the focal
// point of the system (paper §Architecture and Design).
//
// The communication buffer contains all of the memory resources used
// for messaging — endpoint descriptors, the per-endpoint buffer queues
// of Figure 3, the message buffers themselves, the discarded-message
// counters, and the engine→kernel wakeup doorbell. Both the
// application (through the interface library, internal/core) and the
// messaging engine (internal/engine) operate directly on this region;
// neither crosses a protection boundary into the other, and the OS
// kernel is off the messaging path entirely.
//
// Two layouts are supported:
//
//   - the tuned layout (Padded=true) line-aligns every structure so no
//     cache line holds both application-written and engine-written
//     words — the false-sharing fix from §Implementation;
//   - the legacy layout (Padded=false) packs words densely, which is
//     exactly the false sharing the paper measured before tuning. It
//     exists so the E4 ablation can reproduce that finding.
//
// All shared state lives in an internal/mem arena and is accessed only
// via actor-attributed atomic loads and stores; Go-side structs cache
// immutable word offsets only.
package commbuf

import (
	"fmt"
	"sync"

	"flipc/internal/mem"
	"flipc/internal/waitfree"
	"flipc/internal/wire"
)

// EndpointType distinguishes send from receive endpoints.
type EndpointType uint8

// Endpoint types. A send endpoint queues full buffers for transmission;
// a receive endpoint queues empty buffers for incoming messages.
const (
	EndpointInvalid EndpointType = iota
	EndpointSend
	EndpointRecv
)

// String returns the endpoint type name.
func (t EndpointType) String() string {
	switch t {
	case EndpointSend:
		return "send"
	case EndpointRecv:
		return "recv"
	default:
		return fmt.Sprintf("endpoint-type(%d)", uint8(t))
	}
}

// Endpoint descriptor slot states, stored in the config word.
const (
	slotUnallocated uint64 = iota
	slotActive
	slotFreed
)

// Config sizes a communication buffer. The fixed message size and all
// capacities are chosen at boot time, as in the paper; nothing grows
// afterwards.
type Config struct {
	// Node is this node's cluster identity, baked into endpoint
	// addresses allocated here.
	Node wire.NodeID
	// MessageSize is the fixed message size (>= 64, multiple of 32).
	// Applications get MessageSize-8 payload bytes per message.
	MessageSize int
	// NumBuffers is the number of message buffers in the buffer table.
	NumBuffers int
	// MaxEndpoints is the number of endpoint descriptor slots.
	MaxEndpoints int
	// EndpointBase offsets this buffer's endpoint indices in the node's
	// address space. Multiple communication buffers can share one node
	// (mutually untrusting applications, each with its own buffer) by
	// taking disjoint [EndpointBase, EndpointBase+MaxEndpoints) ranges
	// and demultiplexing one transport with interconnect.NewMux.
	EndpointBase int
	// DefaultQueueDepth is the per-endpoint queue capacity assumed when
	// sizing the arena, and used by AllocEndpoint when depth is 0.
	// Must be a power of two >= 2.
	DefaultQueueDepth int
	// DoorbellDepth is the engine→kernel wakeup ring capacity
	// (power of two >= 2).
	DoorbellDepth int
	// AllowedNodes, when non-empty, restricts where this buffer's
	// applications may send: the engine's validity checks refuse sends
	// to any node not listed. This is the paper's future-work
	// "protection mechanisms that restrict where messages can be sent
	// ... to support multiple applications that do not trust each
	// other". The local node is always allowed.
	AllowedNodes []wire.NodeID
	// Padded selects the tuned, line-isolated layout.
	Padded bool
	// LineWords is the cache line size in words (default 4 = 32 bytes,
	// the Paragon's).
	LineWords int
}

func (c *Config) applyDefaults() {
	if c.MessageSize == 0 {
		c.MessageSize = wire.MinMessageSize
	}
	if c.NumBuffers == 0 {
		c.NumBuffers = 64
	}
	if c.MaxEndpoints == 0 {
		c.MaxEndpoints = 16
	}
	if c.DefaultQueueDepth == 0 {
		c.DefaultQueueDepth = 8
	}
	if c.DoorbellDepth == 0 {
		c.DoorbellDepth = 64
	}
	if c.LineWords == 0 {
		c.LineWords = mem.DefaultLineWords
	}
}

func (c Config) validate() error {
	if err := wire.CheckMessageSize(c.MessageSize); err != nil {
		return err
	}
	if c.NumBuffers < 1 {
		return fmt.Errorf("commbuf: NumBuffers %d must be positive", c.NumBuffers)
	}
	if c.MaxEndpoints < 1 || c.MaxEndpoints > wire.MaxEndpoints {
		return fmt.Errorf("commbuf: MaxEndpoints %d out of range [1,%d]", c.MaxEndpoints, wire.MaxEndpoints)
	}
	if c.EndpointBase < 0 || c.EndpointBase+c.MaxEndpoints > wire.MaxEndpoints {
		return fmt.Errorf("commbuf: endpoint range [%d,%d) exceeds address space [0,%d)",
			c.EndpointBase, c.EndpointBase+c.MaxEndpoints, wire.MaxEndpoints)
	}
	if c.DefaultQueueDepth < 2 || c.DefaultQueueDepth&(c.DefaultQueueDepth-1) != 0 {
		return fmt.Errorf("commbuf: DefaultQueueDepth %d must be a power of two >= 2", c.DefaultQueueDepth)
	}
	if c.DoorbellDepth < 2 || c.DoorbellDepth&(c.DoorbellDepth-1) != 0 {
		return fmt.Errorf("commbuf: DoorbellDepth %d must be a power of two >= 2", c.DoorbellDepth)
	}
	return nil
}

// MaxPayload returns the application payload capacity per message.
func (c Config) MaxPayload() int { return wire.MaxPayload(c.MessageSize) }

// Buffer is one node's communication buffer. The struct itself holds
// only immutable layout information plus application-side bookkeeping
// (the free-buffer pool, endpoint handles); every word shared with the
// messaging engine lives in the arena.
type Buffer struct {
	cfg   Config
	arena *mem.Arena

	// Layout (word offsets), fixed at New time.
	payloadBase []int // per-buffer payload byte offsets
	msgs        []Msg // the canonical handle for each buffer id
	epCfgBase   int   // endpoint descriptor config area
	epCfgStride int

	doorbell *waitfree.Ring

	// sendMaskBase is the word offset of the allowed-destination mask:
	// one enable word followed by MaxNodes/64 bitmask words, written by
	// the kernel at boot and read by the engine's validity checks.
	sendMaskBase int

	// Application-side state. Application threads synchronize with each
	// other using conventional locking (the paper leaves inter-thread
	// synchronization to the application library); the engine never
	// touches any of this.
	mu       sync.Mutex
	freeBufs []int
	eps      []*Endpoint // by slot index; nil when unallocated
	nextGen  []uint16
}

// arenaWordsFor computes the control-word budget for a config, assuming
// every endpoint uses the default queue depth.
func arenaWordsFor(c Config) int {
	lw := c.LineWords
	words := 0
	lines := func(n int) int { return (n + lw - 1) / lw * lw }
	maskWords := 1 + wire.MaxNodes/64
	if c.Padded {
		words += lines(maskWords)
	} else {
		words += maskWords
	}
	if c.Padded {
		words += lines(1) * c.NumBuffers // buffer meta: one line each
		words += lines(epCfgWords) * c.MaxEndpoints
		words += waitfree.RingWords(c.DoorbellDepth, lw, true) + lw
		per := lines(1) + // app line (wake flag + lock)
			waitfree.QueueWords(c.DefaultQueueDepth, lw, true) +
			waitfree.CounterWords(lw, true)
		words += (per + lw) * c.MaxEndpoints // + slack line per ep for alignment
	} else {
		words += bufMetaWordsUnpadded * c.NumBuffers
		words += epCfgWords * c.MaxEndpoints
		words += waitfree.RingWords(c.DoorbellDepth, lw, false) + lw
		per := 2 + waitfree.QueueWords(c.DefaultQueueDepth, lw, false) +
			waitfree.CounterWords(lw, false)
		words += per * c.MaxEndpoints
	}
	return words + 4*lw // header slack
}

// New creates and lays out a communication buffer.
func New(cfg Config) (*Buffer, error) {
	cfg.applyDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	payloadStride := (cfg.MaxPayload() + 31) &^ 31
	arena, err := mem.New(mem.Config{
		ControlWords: arenaWordsFor(cfg),
		PayloadBytes: payloadStride*cfg.NumBuffers + 32,
		LineWords:    cfg.LineWords,
	})
	if err != nil {
		return nil, err
	}
	b := &Buffer{
		cfg:     cfg,
		arena:   arena,
		eps:     make([]*Endpoint, cfg.MaxEndpoints),
		nextGen: make([]uint16, cfg.MaxEndpoints),
	}
	for i := range b.nextGen {
		b.nextGen[i] = 1
	}
	lw := cfg.LineWords

	// Buffer metadata table: one meta word per buffer, a line apart in
	// the padded layout.
	var metaBase int
	metaStride := bufMetaWordsUnpadded
	if cfg.Padded {
		metaStride = lw
		metaBase, err = arena.AllocLines(cfg.NumBuffers)
	} else {
		metaBase, err = arena.AllocWords(cfg.NumBuffers * bufMetaWordsUnpadded)
	}
	if err != nil {
		return nil, err
	}

	// Payload area: one aligned region per buffer. FLIPC internalizes
	// all message buffers so it can guarantee DMA alignment (§Architecture).
	b.payloadBase = make([]int, cfg.NumBuffers)
	b.msgs = make([]Msg, cfg.NumBuffers)
	for i := 0; i < cfg.NumBuffers; i++ {
		off, err := arena.AllocPayload(cfg.MaxPayload(), 32)
		if err != nil {
			return nil, err
		}
		b.payloadBase[i] = off
		b.msgs[i] = Msg{buf: b, id: i, metaOff: metaBase + i*metaStride}
	}

	// Endpoint descriptor config area.
	if cfg.Padded {
		b.epCfgStride = (epCfgWords + lw - 1) / lw * lw
		base, err := arena.AllocLines(b.epCfgStride / lw * cfg.MaxEndpoints)
		if err != nil {
			return nil, err
		}
		b.epCfgBase = base
	} else {
		b.epCfgStride = epCfgWords
		base, err := arena.AllocWords(epCfgWords * cfg.MaxEndpoints)
		if err != nil {
			return nil, err
		}
		b.epCfgBase = base
	}

	// Doorbell ring.
	var dbBase int
	if cfg.Padded {
		dbBase, err = arena.AllocLines(waitfree.RingWords(cfg.DoorbellDepth, lw, true) / lw)
	} else {
		dbBase, err = arena.AllocWords(waitfree.RingWords(cfg.DoorbellDepth, lw, false))
	}
	if err != nil {
		return nil, err
	}
	b.doorbell, err = waitfree.NewRing(arena, dbBase, cfg.DoorbellDepth, lw, cfg.Padded)
	if err != nil {
		return nil, err
	}

	// Allowed-destination mask (protection extension).
	maskWords := 1 + wire.MaxNodes/64
	if cfg.Padded {
		b.sendMaskBase, err = arena.AllocLines((maskWords + lw - 1) / lw)
	} else {
		b.sendMaskBase, err = arena.AllocWords(maskWords)
	}
	if err != nil {
		return nil, err
	}
	if len(cfg.AllowedNodes) > 0 {
		kv := mem.NewView(arena, mem.ActorKernel)
		set := func(n wire.NodeID) {
			if int(n) >= wire.MaxNodes {
				return
			}
			w := b.sendMaskBase + 1 + int(n)/64
			kv.Store(w, kv.Load(w)|1<<(uint(n)%64))
		}
		set(cfg.Node) // the local node is always reachable
		for _, n := range cfg.AllowedNodes {
			set(n)
		}
		kv.Store(b.sendMaskBase, 1) // publish enable last
	}

	// All buffers start free, owned by the application library.
	b.freeBufs = make([]int, cfg.NumBuffers)
	for i := range b.freeBufs {
		b.freeBufs[i] = cfg.NumBuffers - 1 - i // pop order = 0,1,2,...
	}
	return b, nil
}

// Config returns the buffer's (defaulted) configuration.
func (b *Buffer) Config() Config { return b.cfg }

// Arena exposes the underlying shared region (for tracer installation
// and for the engine's views).
func (b *Buffer) Arena() *mem.Arena { return b.arena }

// Doorbell returns the engine→kernel wakeup ring.
func (b *Buffer) Doorbell() *waitfree.Ring { return b.doorbell }

// Node returns the configured node ID.
func (b *Buffer) Node() wire.NodeID { return b.cfg.Node }

// View returns an actor-bound view of the shared region.
func (b *Buffer) View(a mem.Actor) mem.View { return mem.NewView(b.arena, a) }

// FreeBufferCount returns how many message buffers are in the free pool.
func (b *Buffer) FreeBufferCount() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.freeBufs)
}

// AllocMsg takes a message buffer from the free pool. This is the
// application-library operation behind flipc_buffer_allocate; callers
// get a correctly aligned buffer without seeing alignment rules.
func (b *Buffer) AllocMsg() (*Msg, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if len(b.freeBufs) == 0 {
		return nil, ErrNoBuffers
	}
	id := b.freeBufs[len(b.freeBufs)-1]
	b.freeBufs = b.freeBufs[:len(b.freeBufs)-1]
	m := &b.msgs[id]
	m.setMeta(b.View(mem.ActorApp), metaWord{state: StateOwned})
	return m, nil
}

// FreeMsg returns a message buffer to the free pool. The buffer must be
// application-owned (not queued on any endpoint).
func (b *Buffer) FreeMsg(m *Msg) error {
	if m == nil || m.buf != b {
		return fmt.Errorf("commbuf: FreeMsg of foreign or nil buffer")
	}
	v := b.View(mem.ActorApp)
	st := m.State(v)
	if st != StateOwned && st != StateDone && st != StateDropped {
		return fmt.Errorf("commbuf: FreeMsg of buffer %d in state %v", m.id, st)
	}
	m.setMeta(v, metaWord{state: StateFree})
	b.mu.Lock()
	defer b.mu.Unlock()
	b.freeBufs = append(b.freeBufs, m.id)
	return nil
}

// ErrNoBuffers is returned when the free pool is exhausted. Resource
// management is explicitly the application's job in FLIPC; see
// internal/flowctl for policies layered on top.
var ErrNoBuffers = fmt.Errorf("commbuf: no free message buffers")

// NumBuffers returns the buffer table size.
func (b *Buffer) NumBuffers() int { return b.cfg.NumBuffers }

// ValidBufID reports whether id names a buffer-table entry. The engine
// uses this as part of its validity checks on untrusted queue slots.
func (b *Buffer) ValidBufID(id uint64) bool { return id < uint64(b.cfg.NumBuffers) }

// MetaWordOffset returns the word offset of buffer id's meta word, for
// fault-injection tooling that models a hostile application scribbling
// on its own control words. Reports false for out-of-range ids.
// Production code never needs this.
func (b *Buffer) MetaWordOffset(id int) (int, bool) {
	if id < 0 || id >= b.cfg.NumBuffers {
		return 0, false
	}
	return b.msgs[id].metaOff, true
}

// payloadOffset returns the byte offset of buffer id's payload.
func (b *Buffer) payloadOffset(id int) int { return b.payloadBase[id] }

// SlotForAddrIndex maps an address's endpoint-index field to this
// buffer's descriptor slot, reporting false when the index falls
// outside this buffer's [EndpointBase, EndpointBase+MaxEndpoints)
// range — another buffer's traffic, not ours.
func (b *Buffer) SlotForAddrIndex(idx int) (int, bool) {
	slot := idx - b.cfg.EndpointBase
	if slot < 0 || slot >= b.cfg.MaxEndpoints {
		return 0, false
	}
	return slot, true
}

// EndpointRange returns this buffer's [lo, hi) endpoint-index range in
// the node's address space.
func (b *Buffer) EndpointRange() (lo, hi int) {
	return b.cfg.EndpointBase, b.cfg.EndpointBase + b.cfg.MaxEndpoints
}

// NodeAllowed reports whether this buffer's applications may send to
// node n, per the boot-time AllowedNodes restriction (always true when
// the restriction is not configured). The engine consults this during
// validity checking.
func (b *Buffer) NodeAllowed(v mem.View, n wire.NodeID) bool {
	if v.Load(b.sendMaskBase) == 0 {
		return true // protection not configured
	}
	if int(n) >= wire.MaxNodes {
		return false
	}
	w := b.sendMaskBase + 1 + int(n)/64
	return v.Load(w)&(1<<(uint(n)%64)) != 0
}

// MsgByID returns the handle for a buffer ID (engine-validated): always
// the same table entry AllocMsg hands out for that id. A handle holds no
// mutable state, so the application and the engine may share it. It does
// not change ownership; callers must respect the state machine.
func (b *Buffer) MsgByID(id uint64) (*Msg, error) {
	if !b.ValidBufID(id) {
		return nil, fmt.Errorf("commbuf: buffer id %d out of range [0,%d)", id, b.cfg.NumBuffers)
	}
	return &b.msgs[id], nil
}

const (
	// epCfgWords is the endpoint descriptor config size in words:
	// word0 packed state|type|depth|gen, word1 queue base, word2
	// counter base, word3 app-line base.
	epCfgWords = 4

	// bufMetaWordsUnpadded is the per-buffer metadata footprint in the
	// legacy layout (meta word + spare).
	bufMetaWordsUnpadded = 2
)
