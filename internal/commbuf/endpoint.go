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

// Endpoint is the application-side handle on one endpoint: its queue,
// drop counter, wakeup flag, and application lock word. The handle
// caches immutable offsets; all mutable state lives in the arena.
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

	queue *waitfree.Queue
	drops *waitfree.Counter

	wakeWord int // app-written: blocked-receiver flag
	lockWord int // app-written: test-and-set lock for *Locked interfaces
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
	queue, err := waitfree.NewQueue(b.arena, qBase, depth, lw, padded)
	if err != nil {
		return nil, err
	}
	drops, err := waitfree.NewCounter(b.arena, cBase, lw, padded)
	if err != nil {
		return nil, err
	}

	gen := b.nextGen[slot]
	b.nextGen[slot]++
	if int(b.nextGen[slot]) >= wire.MaxGen {
		b.nextGen[slot] = 1
	}
	addr, err := wire.MakeAddr(b.cfg.Node, uint16(b.cfg.EndpointBase+slot), gen)
	if err != nil {
		return nil, err
	}

	ep := &Endpoint{
		buf:      b,
		index:    slot,
		typ:      typ,
		gen:      gen,
		prio:     prio,
		addr:     addr,
		queue:    queue,
		drops:    drops,
		wakeWord: aBase,
		lockWord: aBase + 1,
	}
	b.eps[slot] = ep

	// Write descriptor body, then publish the config word.
	kv := b.View(mem.ActorKernel)
	cfgOff := b.epCfgBase + slot*b.epCfgStride
	kv.Store(cfgOff+1, uint64(qBase))
	kv.Store(cfgOff+2, uint64(cBase))
	kv.Store(cfgOff+3, uint64(aBase))
	kv.Store(cfgOff, packEpCfg(slotActive, typ, depth, gen, prio))
	return ep, nil
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

// EndpointByIndex returns the live endpoint handle in a slot, or nil.
func (b *Buffer) EndpointByIndex(i int) *Endpoint {
	b.mu.Lock()
	defer b.mu.Unlock()
	if i < 0 || i >= len(b.eps) {
		return nil
	}
	return b.eps[i]
}

// ActiveEndpoints returns the number of allocated endpoints.
func (b *Buffer) ActiveEndpoints() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	n := 0
	for _, ep := range b.eps {
		if ep != nil {
			n++
		}
	}
	return n
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

// Queue returns the endpoint's buffer queue.
func (ep *Endpoint) Queue() *waitfree.Queue { return ep.queue }

// Drops returns the endpoint's discarded-message counter.
func (ep *Endpoint) Drops() *waitfree.Counter { return ep.drops }

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

// EndpointInfo is the engine's handle on an endpoint, reconstructed
// from the shared descriptor (the engine trusts nothing cached on the
// application side). Returned by OpenEndpoint.
type EndpointInfo struct {
	Index    int
	Type     EndpointType
	Depth    int
	Gen      uint16
	Priority uint8
	Queue    *waitfree.Queue
	Drops    *waitfree.Counter

	wakeWord int
}

// EndpointCfgWord loads descriptor slot i's config word — the cheap
// change-detection read the engine performs every scan pass. Any
// allocation, free, generation bump, or priority change alters the
// word, so an unchanged value means a cached EndpointInfo is still
// valid. Out-of-range slots read as 0 (never a valid active word).
func (b *Buffer) EndpointCfgWord(eng mem.View, i int) uint64 {
	if i < 0 || i >= b.cfg.MaxEndpoints {
		return 0
	}
	return eng.Load(b.epCfgBase + i*b.epCfgStride)
}

// EndpointCfgOffset returns the word offset of descriptor slot i's
// config word, for fault-injection tooling that models a hostile
// application forging descriptors. Reports false for out-of-range
// slots. Production code never needs this.
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

// OpenEndpoint reads descriptor slot i through the engine's view and
// returns a handle when the slot holds an active, sane endpoint.
func (b *Buffer) OpenEndpoint(eng mem.View, i int) (*EndpointInfo, bool) {
	info, err := b.OpenEndpointChecked(eng, i)
	return info, err == nil && info != nil
}

// OpenEndpointChecked is OpenEndpoint distinguishing the two ways a
// slot can yield no endpoint: (nil, nil) for a slot that is simply not
// active (unallocated, freed, out of range), versus (nil, error) for a
// slot whose config word claims to be active but whose descriptor body
// does not describe a sane endpoint — a forged config word or scribbled
// descriptor, which the engine quarantines rather than silently
// ignores.
func (b *Buffer) OpenEndpointChecked(eng mem.View, i int) (*EndpointInfo, error) {
	if i < 0 || i >= b.cfg.MaxEndpoints {
		return nil, nil
	}
	cfgOff := b.epCfgBase + i*b.epCfgStride
	state, typ, depth, gen, prio := unpackEpCfg(eng.Load(cfgOff))
	if state != slotActive {
		return nil, nil
	}
	if typ != EndpointSend && typ != EndpointRecv {
		return nil, fmt.Errorf("commbuf: endpoint %d active with invalid type %d", i, uint8(typ))
	}
	qBase := int(eng.Load(cfgOff + 1))
	cBase := int(eng.Load(cfgOff + 2))
	aBase := int(eng.Load(cfgOff + 3))
	queue, err := waitfree.NewQueue(b.arena, qBase, depth, b.cfg.LineWords, b.cfg.Padded)
	if err != nil {
		return nil, fmt.Errorf("commbuf: endpoint %d descriptor: %w", i, err)
	}
	drops, err := waitfree.NewCounter(b.arena, cBase, b.cfg.LineWords, b.cfg.Padded)
	if err != nil {
		return nil, fmt.Errorf("commbuf: endpoint %d descriptor: %w", i, err)
	}
	if !b.arena.ValidWord(aBase + 1) {
		return nil, fmt.Errorf("commbuf: endpoint %d app line %d outside arena", i, aBase)
	}
	return &EndpointInfo{
		Index: i, Type: typ, Depth: depth, Gen: gen, Priority: prio,
		Queue: queue, Drops: drops, wakeWord: aBase,
	}, nil
}

// WakeupRequested reads the blocked-receiver flag through the engine's
// view.
func (e *EndpointInfo) WakeupRequested(eng mem.View) bool { return eng.Load(e.wakeWord) != 0 }
