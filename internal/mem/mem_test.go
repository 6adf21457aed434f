package mem

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
	"testing/quick"
)

func mustArena(t *testing.T, cfg Config) *Arena {
	t.Helper()
	a, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestNewDefaults(t *testing.T) {
	a := mustArena(t, Config{ControlWords: 64, PayloadBytes: 128})
	if a.LineWords() != DefaultLineWords {
		t.Fatalf("LineWords = %d, want %d", a.LineWords(), DefaultLineWords)
	}
	if a.Words() != 64 || a.PayloadBytes() != 128 {
		t.Fatalf("sizes = %d words, %d bytes", a.Words(), a.PayloadBytes())
	}
}

func TestNewValidation(t *testing.T) {
	cases := []Config{
		{ControlWords: 0, PayloadBytes: 1},
		{ControlWords: -4, PayloadBytes: 1},
		{ControlWords: 4, PayloadBytes: -1},
		{ControlWords: 4, PayloadBytes: 0, LineWords: 3},
		{ControlWords: 4, PayloadBytes: 0, LineWords: -2},
	}
	for _, cfg := range cases {
		if _, err := New(cfg); err == nil {
			t.Errorf("New(%+v) accepted invalid config", cfg)
		}
	}
}

func TestLoadStoreRoundTrip(t *testing.T) {
	a := mustArena(t, Config{ControlWords: 8, PayloadBytes: 0})
	a.Store(ActorApp, 3, 0xdeadbeef)
	if got := a.Load(ActorEngine, 3); got != 0xdeadbeef {
		t.Fatalf("Load = %#x", got)
	}
	if got := a.Load(ActorEngine, 4); got != 0 {
		t.Fatalf("untouched word = %#x, want 0", got)
	}
}

func TestValidWord(t *testing.T) {
	a := mustArena(t, Config{ControlWords: 8, PayloadBytes: 0})
	if !a.ValidWord(0) || !a.ValidWord(7) {
		t.Fatal("valid words rejected")
	}
	if a.ValidWord(-1) || a.ValidWord(8) {
		t.Fatal("invalid words accepted")
	}
}

func TestTestAndSet(t *testing.T) {
	a := mustArena(t, Config{ControlWords: 4, PayloadBytes: 0})
	if !a.TestAndSet(ActorApp, 0) {
		t.Fatal("first acquire failed")
	}
	if a.TestAndSet(ActorApp, 0) {
		t.Fatal("second acquire on held lock succeeded")
	}
	a.Unset(ActorApp, 0)
	if !a.TestAndSet(ActorApp, 0) {
		t.Fatal("acquire after release failed")
	}
}

func TestEngineTestAndSetPanics(t *testing.T) {
	a := mustArena(t, Config{ControlWords: 4, PayloadBytes: 0})
	defer func() {
		if recover() == nil {
			t.Fatal("engine test-and-set did not panic")
		}
	}()
	a.TestAndSet(ActorEngine, 0)
}

func TestPayloadSliceBounds(t *testing.T) {
	a := mustArena(t, Config{ControlWords: 4, PayloadBytes: 64})
	p := a.Payload(16, 8)
	if len(p) != 8 || cap(p) != 8 {
		t.Fatalf("len=%d cap=%d, want 8/8 (full-slice expression)", len(p), cap(p))
	}
	p[0] = 0xAA
	if a.Payload(16, 1)[0] != 0xAA {
		t.Fatal("payload write not visible through second slice")
	}
}

func TestAllocWords(t *testing.T) {
	a := mustArena(t, Config{ControlWords: 10, PayloadBytes: 0})
	off1, err := a.AllocWords(4)
	if err != nil || off1 != 0 {
		t.Fatalf("first alloc: %d, %v", off1, err)
	}
	off2, err := a.AllocWords(4)
	if err != nil || off2 != 4 {
		t.Fatalf("second alloc: %d, %v", off2, err)
	}
	if a.FreeWords() != 2 {
		t.Fatalf("FreeWords = %d", a.FreeWords())
	}
	if _, err := a.AllocWords(3); err == nil {
		t.Fatal("over-allocation succeeded")
	}
	if _, err := a.AllocWords(0); err == nil {
		t.Fatal("zero-size alloc succeeded")
	}
}

func TestAllocLinesAligned(t *testing.T) {
	a := mustArena(t, Config{ControlWords: 32, PayloadBytes: 0, LineWords: 4})
	if _, err := a.AllocWords(3); err != nil { // misalign the cursor
		t.Fatal(err)
	}
	off, err := a.AllocLines(2)
	if err != nil {
		t.Fatal(err)
	}
	if off%4 != 0 {
		t.Fatalf("line alloc not aligned: %d", off)
	}
	if off != 4 {
		t.Fatalf("off = %d, want 4", off)
	}
	off2, err := a.AllocLines(1)
	if err != nil || off2 != 12 {
		t.Fatalf("second line alloc = %d, %v", off2, err)
	}
	if _, err := a.AllocLines(10); err == nil {
		t.Fatal("over-allocation succeeded")
	}
}

func TestAllocPayloadAlignment(t *testing.T) {
	a := mustArena(t, Config{ControlWords: 4, PayloadBytes: 256})
	if _, err := a.AllocPayload(5, 0); err != nil {
		t.Fatal(err)
	}
	off, err := a.AllocPayload(64, 32)
	if err != nil {
		t.Fatal(err)
	}
	if off%32 != 0 {
		t.Fatalf("payload not 32-byte aligned: %d", off)
	}
	if _, err := a.AllocPayload(1000, 1); err == nil {
		t.Fatal("over-allocation succeeded")
	}
	if _, err := a.AllocPayload(8, 3); err == nil {
		t.Fatal("non-power-of-two alignment accepted")
	}
	if _, err := a.AllocPayload(0, 1); err == nil {
		t.Fatal("zero-size payload alloc accepted")
	}
}

func TestFreePayload(t *testing.T) {
	a := mustArena(t, Config{ControlWords: 4, PayloadBytes: 100})
	if a.FreePayload() != 100 {
		t.Fatalf("FreePayload = %d", a.FreePayload())
	}
	if _, err := a.AllocPayload(60, 1); err != nil {
		t.Fatal(err)
	}
	if a.FreePayload() != 40 {
		t.Fatalf("FreePayload = %d after alloc", a.FreePayload())
	}
}

type countTracer struct {
	loads, stores, locks int
	lastActor            Actor
	lastWord             int
}

func (c *countTracer) OnLoad(a Actor, w int)    { c.loads++; c.lastActor = a; c.lastWord = w }
func (c *countTracer) OnStore(a Actor, w int)   { c.stores++; c.lastActor = a; c.lastWord = w }
func (c *countTracer) OnBusLock(a Actor, w int) { c.locks++; c.lastActor = a; c.lastWord = w }

func TestTracerSeesAccesses(t *testing.T) {
	a := mustArena(t, Config{ControlWords: 8, PayloadBytes: 0})
	tr := &countTracer{}
	a.SetTracer(tr)
	a.Store(ActorEngine, 5, 1)
	if tr.stores != 1 || tr.lastActor != ActorEngine || tr.lastWord != 5 {
		t.Fatalf("tracer after store: %+v", tr)
	}
	a.Load(ActorApp, 5)
	if tr.loads != 1 || tr.lastActor != ActorApp {
		t.Fatalf("tracer after load: %+v", tr)
	}
	a.TestAndSet(ActorApp, 2)
	if tr.locks != 1 {
		t.Fatalf("tracer after TAS: %+v", tr)
	}
	a.SetTracer(nil)
	a.Load(ActorApp, 5)
	if tr.loads != 1 {
		t.Fatal("cleared tracer still invoked")
	}
}

func TestViewBindsActor(t *testing.T) {
	a := mustArena(t, Config{ControlWords: 8, PayloadBytes: 16})
	tr := &countTracer{}
	a.SetTracer(tr)
	v := NewView(a, ActorEngine)
	if v.Actor() != ActorEngine || v.Arena() != a {
		t.Fatal("view accessors wrong")
	}
	v.Store(1, 7)
	if tr.lastActor != ActorEngine {
		t.Fatalf("view store attributed to %v", tr.lastActor)
	}
	if v.Load(1) != 7 {
		t.Fatal("view load wrong value")
	}
	av := NewView(a, ActorApp)
	if !av.TestAndSet(3) {
		t.Fatal("view TAS failed")
	}
	av.Unset(3)
	if p := av.Payload(0, 16); len(p) != 16 {
		t.Fatal("view payload wrong length")
	}
}

func TestActorString(t *testing.T) {
	for a, want := range map[Actor]string{
		ActorNone: "none", ActorApp: "app", ActorEngine: "engine",
		ActorKernel: "kernel", Actor(9): "actor(9)",
	} {
		if got := a.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", a, got, want)
		}
	}
}

// Concurrent single-writer usage must be race-detector clean: one
// goroutine (engine) writes word E, another (app) writes word A, both
// read each other's word. The app hands over a payload byte and an
// owned word, written with a plain store, by its store to A; it
// rewrites both only after loading E, which the engine stores after
// reading them.
func TestConcurrentSingleWriterClean(t *testing.T) {
	a := mustArena(t, Config{ControlWords: 12, PayloadBytes: 64})
	const wordApp, wordEng, wordOwned = 0, 4, 8 // separate lines
	const rounds = 10000
	app, eng := NewView(a, ActorApp), NewView(a, ActorEngine)
	var wg sync.WaitGroup
	wg.Add(2)
	errs := make(chan error, 1)
	go func() { // engine: waits for app word to advance, then echoes
		defer wg.Done()
		for i := uint64(1); i <= rounds; i++ {
			for eng.Load(wordApp) < i {
				runtime.Gosched()
			}
			// App published payload and the owned word before storing
			// wordApp; read them.
			b := a.Payload(0, 8)
			_ = b[0]
			if got := eng.Load(wordOwned); got != i*3 {
				select {
				case errs <- fmt.Errorf("round %d: owned word %d, want %d", i, got, i*3):
				default:
				}
			}
			eng.Store(wordEng, i)
		}
	}()
	go func() { // app
		defer wg.Done()
		for i := uint64(1); i <= rounds; i++ {
			a.Payload(0, 8)[0] = byte(i)
			app.StoreOwned(wordOwned, i*3)
			app.Store(wordApp, i)
			for app.Load(wordEng) < i {
				runtime.Gosched()
			}
		}
	}()
	wg.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}
	if a.Load(ActorNone, wordEng) != rounds {
		t.Fatalf("final engine word = %d", a.Load(ActorNone, wordEng))
	}
}

// StoreOwned is Store to a tracer: the same access, attributed to the
// view's actor.
func TestStoreOwnedTraced(t *testing.T) {
	a := mustArena(t, Config{ControlWords: 8, PayloadBytes: 0})
	tr := &countTracer{}
	a.SetTracer(tr)
	NewView(a, ActorEngine).StoreOwned(6, 9)
	if tr.stores != 1 || tr.lastActor != ActorEngine || tr.lastWord != 6 {
		t.Fatalf("tracer after owned store: %+v", tr)
	}
	a.SetTracer(nil)
	NewView(a, ActorApp).StoreOwned(6, 10)
	if tr.stores != 1 || a.Load(ActorNone, 6) != 10 {
		t.Fatalf("untraced owned store: %+v, word %d", tr, a.Load(ActorNone, 6))
	}
}

// Property: AllocLines always returns line-aligned offsets and
// allocations never overlap.
func TestQuickAllocLinesAlignedDisjoint(t *testing.T) {
	prop := func(sizes []uint8) bool {
		a, err := New(Config{ControlWords: 1 << 14, PayloadBytes: 0, LineWords: 4})
		if err != nil {
			return false
		}
		type span struct{ off, n int }
		var spans []span
		for _, s := range sizes {
			n := int(s%8) + 1
			off, err := a.AllocLines(n)
			if err != nil {
				break // exhaustion is fine
			}
			if off%4 != 0 {
				return false
			}
			spans = append(spans, span{off, n * 4})
		}
		for i := range spans {
			for j := i + 1; j < len(spans); j++ {
				a, b := spans[i], spans[j]
				if a.off < b.off+b.n && b.off < a.off+a.n {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
