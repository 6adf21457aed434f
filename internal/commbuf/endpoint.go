package commbuf

import (
	"fmt"

	"flipc/internal/mem"
	"flipc/internal/waitfree"
	"flipc/internal/wire"
)

// Endpoint descriptor config word packing (word 0 of the descriptor):
//
//	[63:56] reserved
//	[55:48] priority (transport prioritization extension)
//	[47:32] generation
//	[31:16] queue depth
//	[15:8]  endpoint type
//	[7:0]   slot state
func packEpCfg(state uint64, typ EndpointType, depth int, gen uint16, prio uint8) uint64 {
	return uint64(prio)<<48 | uint64(gen)<<32 | uint64(uint16(depth))<<16 | uint64(typ)<<8 | state
}

func unpackEpCfg(v uint64) (state uint64, typ EndpointType, depth int, gen uint16, prio uint8) {
	return v & 0xFF, EndpointType(v >> 8 & 0xFF), int(uint16(v >> 16)), uint16(v >> 32), uint8(v >> 48)
}

// Endpoint is one endpoint descriptor as a value: its slot, the fields
// of its config word, its queue and drop counter (held by value), and
// its wake and lock words. The application's handle (AllocEndpoint) and
// the engine's (OpenEndpoint) are this one type, built by one
// constructor from the descriptor's word offsets. It caches only
// immutable offsets; all mutable state lives in the arena. The zero
// value describes no endpoint (type EndpointInvalid).
//
// Endpoints implement the paper's resource-control model: message
// buffers are associated with endpoints by being queued on them, so
// separate traffic classes on separate endpoints cannot consume each
// other's resources.
type Endpoint struct {
	buf   *Buffer
	index int
	typ   EndpointType
	gen   uint16
	prio  uint8
	addr  wire.Addr

	queue waitfree.Queue
	drops waitfree.Counter

	wakeWord int // app-written: blocked-receiver flag
	lockWord int // app-written: test-and-set lock for *Locked interfaces
}

// endpointAt builds slot i's descriptor value from cfg, an active config
// word of a valid type, and the word offsets of the queue, counter and
// app line. The allocator passes the words it has just written, the
// engine the words it has just read: neither makes another arena access.
// An error means the offsets do not describe a sane endpoint.
func (b *Buffer) endpointAt(i int, cfg uint64, qBase, cBase, aBase int) (Endpoint, error) {
	_, typ, depth, gen, prio := unpackEpCfg(cfg)
	ep := Endpoint{buf: b, index: i, typ: typ, gen: gen, prio: prio, wakeWord: aBase, lockWord: aBase + 1}
	// A generation no allocation writes (a forged word) reads as NilAddr.
	ep.addr, _ = wire.MakeAddr(b.cfg.Node, uint16(b.cfg.EndpointBase+i), gen)
	if err := ep.queue.Init(b.arena, qBase, depth, b.cfg.LineWords, b.cfg.Padded); err != nil {
		return Endpoint{}, fmt.Errorf("commbuf: endpoint %d descriptor: %w", i, err)
	}
	if err := ep.drops.Init(b.arena, cBase, b.cfg.LineWords, b.cfg.Padded); err != nil {
		return Endpoint{}, fmt.Errorf("commbuf: endpoint %d descriptor: %w", i, err)
	}
	if !b.arena.ValidWord(aBase) || !b.arena.ValidWord(aBase+1) {
		return Endpoint{}, fmt.Errorf("commbuf: endpoint %d app line %d outside arena", i, aBase)
	}
	return ep, nil
}

// AllocEndpoint allocates an endpoint descriptor slot and its queue,
// counter, and app-line storage from the arena. depth is the queue
// capacity (0 selects the config default; must be a power of two >= 2).
// The config word is published last, so the engine never observes a
// half-initialized endpoint.
func (b *Buffer) AllocEndpoint(typ EndpointType, depth int) (*Endpoint, error) {
	return b.AllocEndpointPrio(typ, depth, 0)
}

// AllocEndpointPrio is AllocEndpoint with a transport priority — the
// paper's future-work "real time prioritization ... of the basic
// inter-node transport" extension. The engine's prioritized send
// policy scans higher-priority send endpoints first.
func (b *Buffer) AllocEndpointPrio(typ EndpointType, depth int, prio uint8) (*Endpoint, error) {
	if typ != EndpointSend && typ != EndpointRecv {
		return nil, fmt.Errorf("commbuf: cannot allocate endpoint of type %v", typ)
	}
	if depth == 0 {
		depth = b.cfg.DefaultQueueDepth
	}
	if depth < 2 || depth&(depth-1) != 0 {
		return nil, fmt.Errorf("commbuf: queue depth %d must be a power of two >= 2", depth)
	}

	b.mu.Lock()
	defer b.mu.Unlock()
	slot := -1
	for i, ep := range b.eps {
		if ep == nil {
			slot = i
			break
		}
	}
	if slot < 0 {
		return nil, fmt.Errorf("commbuf: all %d endpoint slots in use", b.cfg.MaxEndpoints)
	}

	lw := b.cfg.LineWords
	padded := b.cfg.Padded
	var qBase, cBase, aBase int
	var err error
	if padded {
		if qBase, err = b.arena.AllocLines(waitfree.QueueWords(depth, lw, true) / lw); err != nil {
			return nil, fmt.Errorf("commbuf: endpoint queue: %w", err)
		}
		if cBase, err = b.arena.AllocLines(waitfree.CounterWords(lw, true) / lw); err != nil {
			return nil, fmt.Errorf("commbuf: endpoint counter: %w", err)
		}
		if aBase, err = b.arena.AllocLines(1); err != nil {
			return nil, fmt.Errorf("commbuf: endpoint app line: %w", err)
		}
	} else {
		if qBase, err = b.arena.AllocWords(waitfree.QueueWords(depth, lw, false)); err != nil {
			return nil, fmt.Errorf("commbuf: endpoint queue: %w", err)
		}
		if cBase, err = b.arena.AllocWords(waitfree.CounterWords(lw, false)); err != nil {
			return nil, fmt.Errorf("commbuf: endpoint counter: %w", err)
		}
		if aBase, err = b.arena.AllocWords(2); err != nil {
			return nil, fmt.Errorf("commbuf: endpoint app line: %w", err)
		}
	}

	gen := b.nextGen[slot]
	b.nextGen[slot]++
	if int(b.nextGen[slot]) >= wire.MaxGen {
		b.nextGen[slot] = 1
	}
	cfg := packEpCfg(slotActive, typ, depth, gen, prio)
	ep, err := b.endpointAt(slot, cfg, qBase, cBase, aBase)
	if err != nil {
		return nil, err
	}
	b.eps[slot] = &ep

	// Write descriptor body, then publish the config word.
	kv := b.View(mem.ActorKernel)
	cfgOff := b.epCfgBase + slot*b.epCfgStride
	kv.Store(cfgOff+1, uint64(qBase))
	kv.Store(cfgOff+2, uint64(cBase))
	kv.Store(cfgOff+3, uint64(aBase))
	kv.Store(cfgOff, cfg)
	return &ep, nil
}

// FreeEndpoint deactivates an endpoint. Its arena storage is not
// reclaimed (the communication buffer is a fixed boot-time resource),
// but its address is invalidated: the slot's generation advances, so
// the engine refuses traffic addressed to the old endpoint.
func (b *Buffer) FreeEndpoint(ep *Endpoint) error {
	if ep == nil || ep.buf != b {
		return fmt.Errorf("commbuf: FreeEndpoint of foreign or nil endpoint")
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.eps[ep.index] != ep {
		return fmt.Errorf("commbuf: endpoint %v already freed", ep.addr)
	}
	b.eps[ep.index] = nil
	kv := b.View(mem.ActorKernel)
	cfgOff := b.epCfgBase + ep.index*b.epCfgStride
	kv.Store(cfgOff, packEpCfg(slotFreed, ep.typ, ep.queue.Capacity(), ep.gen, ep.prio))
	return nil
}

// Addr returns the endpoint's opaque address. Receivers pass this to
// senders out of band; FLIPC itself has no name service (§Architecture).
func (ep *Endpoint) Addr() wire.Addr { return ep.addr }

// Type returns send or recv.
func (ep *Endpoint) Type() EndpointType { return ep.typ }

// Priority returns the endpoint's transport priority (extension).
func (ep *Endpoint) Priority() uint8 { return ep.prio }

// Index returns the descriptor slot index.
func (ep *Endpoint) Index() int { return ep.index }

// Gen returns the slot generation the descriptor was allocated at.
func (ep *Endpoint) Gen() uint16 { return ep.gen }

// Queue returns the endpoint's buffer queue.
func (ep *Endpoint) Queue() *waitfree.Queue { return &ep.queue }

// Drops returns the endpoint's discarded-message counter.
func (ep *Endpoint) Drops() *waitfree.Counter { return &ep.drops }

// Buffer returns the owning communication buffer.
func (ep *Endpoint) Buffer() *Buffer { return ep.buf }

// SetWakeup sets or clears the blocked-thread flag. The engine reads
// it after delivering to this endpoint or completing sends from it and,
// when set, posts the endpoint index on the doorbell ring for the kernel.
func (ep *Endpoint) SetWakeup(app mem.View, waiting bool) {
	var v uint64
	if waiting {
		v = 1
	}
	app.Store(ep.wakeWord, v)
}

// WakeupRequested reads the blocked-thread flag.
func (ep *Endpoint) WakeupRequested(v mem.View) bool { return v.Load(ep.wakeWord) != 0 }

// Lock acquires the endpoint's application lock by spinning on
// test-and-set. This is the multiprocessor lock whose lack of cache
// residency on the Paragon motivated the lock-free interface variants;
// it synchronizes application threads only — the engine never locks.
func (ep *Endpoint) Lock(app mem.View) {
	for !app.TestAndSet(ep.lockWord) {
	}
}

// TryLock attempts one test-and-set.
func (ep *Endpoint) TryLock(app mem.View) bool { return app.TestAndSet(ep.lockWord) }

// Unlock releases the application lock.
func (ep *Endpoint) Unlock(app mem.View) { app.Unset(ep.lockWord) }

// EndpointCfgOffset returns the word offset of descriptor slot i's
// config word, or false for an out-of-range slot. The engine loads it
// every pass as its change detection: any allocation, free, generation
// bump, or priority change alters the word, so an unchanged value means
// its cached descriptor is still valid. Fault-injection tooling stores
// to it to model a hostile application forging descriptors.
func (b *Buffer) EndpointCfgOffset(i int) (int, bool) {
	if i < 0 || i >= b.cfg.MaxEndpoints {
		return 0, false
	}
	return b.epCfgBase + i*b.epCfgStride, true
}

// ForgedCfgWord returns a descriptor config word that claims to be
// active but cannot describe a sane endpoint (invalid type), for
// fault-injection tooling. Storing it in a descriptor slot makes the
// engine observe a forged config word and quarantine the slot.
func ForgedCfgWord() uint64 {
	return packEpCfg(slotActive, EndpointType(0x7F), 8, 1, 0)
}

// OpenEndpoint reads descriptor slot i through the engine's view (the
// engine trusts nothing cached on the application side). A slot that
// is simply not active (unallocated, freed, out of range) yields the
// zero Endpoint and no error. A slot whose config word claims to be
// active but whose descriptor body does not describe a sane endpoint —
// a forged config word or scribbled descriptor, which the engine
// quarantines rather than silently ignores — yields an error.
func (b *Buffer) OpenEndpoint(eng mem.View, i int) (Endpoint, error) {
	if i < 0 || i >= b.cfg.MaxEndpoints {
		return Endpoint{}, nil
	}
	cfgOff := b.epCfgBase + i*b.epCfgStride
	cfg := eng.Load(cfgOff)
	state, typ, _, _, _ := unpackEpCfg(cfg)
	if state != slotActive {
		return Endpoint{}, nil
	}
	if typ != EndpointSend && typ != EndpointRecv {
		return Endpoint{}, fmt.Errorf("commbuf: endpoint %d active with invalid type %d", i, uint8(typ))
	}
	return b.endpointAt(i, cfg, int(eng.Load(cfgOff+1)), int(eng.Load(cfgOff+2)), int(eng.Load(cfgOff+3)))
}
