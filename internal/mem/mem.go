// Package mem implements the shared-memory arena that stands in for
// FLIPC's wired, physically shared communication buffer.
//
// The paper's communication buffer is a fixed-size, non-pageable region
// shared between every application using FLIPC and the messaging engine
// running on the node's communication controller. The controller cannot
// perform atomic read-modify-write operations on main memory, so all
// synchronization between the engine and applications must be built
// from plain loads and stores (wait-free, single-writer-per-word).
//
// This package models that region as two areas:
//
//   - a control area of 64-bit words holding endpoint descriptors,
//     queue slots, and counters, accessed only through atomic loads and
//     stores attributed to an Actor (application, engine, or kernel);
//   - a payload area of raw bytes holding message buffer contents,
//     whose cross-actor visibility is ordered by atomic stores to
//     control words (valid under the Go memory model).
//
// Read-modify-write (TestAndSet) is provided but is reserved for
// application-to-application locking, mirroring the paper: application
// threads run on the main processors, which do have test-and-set, while
// engine/application synchronization never uses it. The arena records
// every access through an optional Tracer so the cache cost model
// (internal/cachesim) can reproduce the paper's coherency findings.
package mem

import (
	"fmt"
	"sync/atomic"
)

// Actor identifies which protection domain performs a memory access.
// The distinction matters to the cache model (app and engine run on
// different processors in the paper's MP3 nodes) and to the
// single-writer audits in tests.
type Actor uint8

// Actors. ActorNone marks unattributed setup-time accesses.
const (
	ActorNone Actor = iota
	ActorApp
	ActorEngine
	ActorKernel
)

// String returns the actor name.
func (a Actor) String() string {
	switch a {
	case ActorNone:
		return "none"
	case ActorApp:
		return "app"
	case ActorEngine:
		return "engine"
	case ActorKernel:
		return "kernel"
	default:
		return fmt.Sprintf("actor(%d)", uint8(a))
	}
}

// Tracer observes arena accesses. Implementations must be fast; the
// arena invokes them inline on every traced operation. A nil tracer
// disables tracing.
type Tracer interface {
	OnLoad(a Actor, word int)
	OnStore(a Actor, word int)
	// OnBusLock records a bus-locking read-modify-write (test-and-set),
	// which on the Paragon bypasses the cache and locks the memory bus.
	OnBusLock(a Actor, word int)
}

// Config sizes an arena.
type Config struct {
	// ControlWords is the number of 64-bit words in the control area.
	ControlWords int
	// PayloadBytes is the size of the payload area in bytes.
	PayloadBytes int
	// LineWords is the cache line size in words. The Paragon's i860
	// caches use 32-byte lines, i.e. 4 words. Must be a power of two.
	LineWords int
}

// DefaultLineWords is the Paragon's 32-byte line expressed in words.
const DefaultLineWords = 4

// Arena is the shared region. The allocator methods (AllocWords,
// AllocLines, AllocPayload) are setup-time only and not safe for
// concurrent use; Load/Store/Payload access is safe for concurrent use
// by multiple goroutines.
type Arena struct {
	words     []uint64
	payload   []byte
	lineWords int
	tracer    Tracer

	nextWord    int
	nextPayload int
}

// New creates an arena. LineWords defaults to DefaultLineWords when zero.
func New(cfg Config) (*Arena, error) {
	if cfg.LineWords == 0 {
		cfg.LineWords = DefaultLineWords
	}
	if cfg.LineWords < 1 || cfg.LineWords&(cfg.LineWords-1) != 0 {
		return nil, fmt.Errorf("mem: LineWords %d must be a power of two", cfg.LineWords)
	}
	if cfg.ControlWords <= 0 {
		return nil, fmt.Errorf("mem: ControlWords %d must be positive", cfg.ControlWords)
	}
	if cfg.PayloadBytes < 0 {
		return nil, fmt.Errorf("mem: PayloadBytes %d must be non-negative", cfg.PayloadBytes)
	}
	return &Arena{
		words:     make([]uint64, cfg.ControlWords),
		payload:   make([]byte, cfg.PayloadBytes),
		lineWords: cfg.LineWords,
	}, nil
}

// SetTracer installs (or clears, with nil) the access tracer.
// Install tracers before concurrent access begins.
func (a *Arena) SetTracer(t Tracer) { a.tracer = t }

// LineWords returns the configured cache line size in words.
func (a *Arena) LineWords() int { return a.lineWords }

// Words returns the control area size in words.
func (a *Arena) Words() int { return len(a.words) }

// PayloadBytes returns the payload area size.
func (a *Arena) PayloadBytes() int { return len(a.payload) }

// LineOf returns the cache line index containing control word w.
func (a *Arena) LineOf(w int) int { return w / a.lineWords }

// ValidWord reports whether w is a legal control word index. The
// messaging engine uses this (never panicking access) to validate
// untrusted offsets read from the communication buffer.
func (a *Arena) ValidWord(w int) bool { return w >= 0 && w < len(a.words) }

// ValidPayload reports whether [off, off+n) lies within the payload area.
func (a *Arena) ValidPayload(off, n int) bool {
	return off >= 0 && n >= 0 && off+n <= len(a.payload) && off+n >= off
}

// Load atomically reads control word w on behalf of actor. Untraced it
// is a bounds check and one atomic load and inlines at every call site.
func (a *Arena) Load(actor Actor, w int) uint64 {
	if a.tracer != nil {
		return a.tracedLoad(actor, w)
	}
	return atomic.LoadUint64(&a.words[w])
}

// Store atomically writes control word w on behalf of actor.
func (a *Arena) Store(actor Actor, w int, v uint64) {
	if a.tracer != nil {
		a.tracedStore(actor, w, v)
		return
	}
	atomic.StoreUint64(&a.words[w], v)
}

// tracedLoad and tracedStore must stay out of line: folded back in they
// put Load and Store over the inliner's budget, and every word access on
// the message path is a call again (CI's inlining gate watches this).
//
//go:noinline
func (a *Arena) tracedLoad(actor Actor, w int) uint64 {
	v := atomic.LoadUint64(&a.words[w])
	a.tracer.OnLoad(actor, w)
	return v
}

//go:noinline
func (a *Arena) tracedStore(actor Actor, w int, v uint64) {
	atomic.StoreUint64(&a.words[w], v)
	a.tracer.OnStore(actor, w)
}

// TestAndSet attempts to set word w from 0 to 1, returning true on
// success. This is the application-side lock primitive; the messaging
// engine must never call it (the paper's controllers cannot perform
// read-modify-write on main memory). On the Paragon the operation
// locks the memory bus, which is why the tuned FLIPC interfaces avoid
// it; the tracer's OnBusLock hook lets the cache model charge for that.
func (a *Arena) TestAndSet(actor Actor, w int) bool {
	if actor == ActorEngine {
		panic("mem: messaging engine attempted test-and-set (no RMW on controller)")
	}
	ok := atomic.CompareAndSwapUint64(&a.words[w], 0, 1)
	if a.tracer != nil {
		a.tracer.OnBusLock(actor, w)
	}
	return ok
}

// Unset releases a lock word previously acquired via TestAndSet.
func (a *Arena) Unset(actor Actor, w int) {
	a.Store(actor, w, 0)
}

// Payload returns the byte slice [off, off+n) of the payload area.
// Callers must ensure cross-actor ordering through control-word
// atomics before touching the returned bytes.
func (a *Arena) Payload(off, n int) []byte {
	return a.payload[off : off+n : off+n]
}

// AllocWords reserves n control words and returns the offset of the
// first. Setup-time only.
func (a *Arena) AllocWords(n int) (int, error) {
	if n <= 0 {
		return 0, fmt.Errorf("mem: AllocWords(%d): size must be positive", n)
	}
	if a.nextWord+n > len(a.words) {
		return 0, fmt.Errorf("mem: control area exhausted: need %d words, %d free", n, len(a.words)-a.nextWord)
	}
	off := a.nextWord
	a.nextWord += n
	return off, nil
}

// AllocLines reserves n whole cache lines, aligned to a line boundary,
// and returns the word offset of the first line. Line-aligned
// allocation is how the tuned FLIPC layout guarantees that words
// written by the application and words written by the engine never
// share a cache line. Setup-time only.
func (a *Arena) AllocLines(n int) (int, error) {
	if n <= 0 {
		return 0, fmt.Errorf("mem: AllocLines(%d): size must be positive", n)
	}
	aligned := (a.nextWord + a.lineWords - 1) &^ (a.lineWords - 1)
	need := n * a.lineWords
	if aligned+need > len(a.words) {
		return 0, fmt.Errorf("mem: control area exhausted: need %d words at %d, have %d", need, aligned, len(a.words))
	}
	a.nextWord = aligned + need
	return aligned, nil
}

// AllocPayload reserves n payload bytes aligned to align (a power of
// two; 0 or 1 means unaligned) and returns the byte offset. FLIPC
// internalizes all message buffers precisely so it can enforce the
// platform's DMA alignment here on behalf of applications. Setup-time
// only.
func (a *Arena) AllocPayload(n, align int) (int, error) {
	if n <= 0 {
		return 0, fmt.Errorf("mem: AllocPayload(%d): size must be positive", n)
	}
	if align < 0 || (align > 1 && align&(align-1) != 0) {
		return 0, fmt.Errorf("mem: alignment %d must be a power of two", align)
	}
	off := a.nextPayload
	if align > 1 {
		off = (off + align - 1) &^ (align - 1)
	}
	if off+n > len(a.payload) {
		return 0, fmt.Errorf("mem: payload area exhausted: need %d bytes at %d, have %d", n, off, len(a.payload))
	}
	a.nextPayload = off + n
	return off, nil
}

// FreeWords returns the number of unallocated control words remaining.
func (a *Arena) FreeWords() int { return len(a.words) - a.nextWord }

// FreePayload returns the number of unallocated payload bytes remaining.
func (a *Arena) FreePayload() int { return len(a.payload) - a.nextPayload }

// View binds an arena to a fixed actor so call sites do not repeat the
// actor on every access. The zero View is invalid.
type View struct {
	arena *Arena
	actor Actor
}

// NewView returns a view of arena as actor.
func NewView(arena *Arena, actor Actor) View {
	return View{arena: arena, actor: actor}
}

// Arena returns the underlying arena.
func (v View) Arena() *Arena { return v.arena }

// Actor returns the view's actor.
func (v View) Actor() Actor { return v.actor }

// Load atomically reads control word w. Not forwarded to Arena.Load:
// the forwarding layer alone puts it over the inlining budget.
func (v View) Load(w int) uint64 {
	if v.arena.tracer != nil {
		return v.arena.tracedLoad(v.actor, w)
	}
	return atomic.LoadUint64(&v.arena.words[w])
}

// Store atomically writes control word w.
func (v View) Store(w int, val uint64) {
	if v.arena.tracer != nil {
		v.arena.tracedStore(v.actor, w, val)
		return
	}
	atomic.StoreUint64(&v.arena.words[w], val)
}

// TestAndSet attempts the application lock primitive on word w.
func (v View) TestAndSet(w int) bool { return v.arena.TestAndSet(v.actor, w) }

// Unset releases lock word w.
func (v View) Unset(w int) { v.arena.Unset(v.actor, w) }

// Payload returns payload bytes [off, off+n).
func (v View) Payload(off, n int) []byte { return v.arena.Payload(off, n) }
