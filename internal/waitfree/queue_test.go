package waitfree

import (
	"runtime"
	"sync"
	"testing"
	"testing/quick"

	"flipc/internal/mem"
)

func newArena(t *testing.T, words int) *mem.Arena {
	t.Helper()
	a, err := mem.New(mem.Config{ControlWords: words, PayloadBytes: 0, LineWords: 4})
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func newQueue(t *testing.T, capacity int, padded bool) (*Queue, mem.View, mem.View) {
	t.Helper()
	a := newArena(t, 4096)
	var base int
	var err error
	if padded {
		base, err = a.AllocLines(QueueWords(capacity, a.LineWords(), true) / a.LineWords())
	} else {
		base, err = a.AllocWords(QueueWords(capacity, a.LineWords(), false))
	}
	if err != nil {
		t.Fatal(err)
	}
	q, err := NewQueue(a, base, capacity, a.LineWords(), padded)
	if err != nil {
		t.Fatal(err)
	}
	return q, mem.NewView(a, mem.ActorApp), mem.NewView(a, mem.ActorEngine)
}

func TestQueueWordsPadded(t *testing.T) {
	// 3 pointer lines + 2 slot lines for capacity 8, line=4.
	if got := QueueWords(8, 4, true); got != 20 {
		t.Fatalf("QueueWords(8,4,padded) = %d, want 20", got)
	}
	if got := QueueWords(8, 4, false); got != 11 {
		t.Fatalf("QueueWords(8,4,unpadded) = %d, want 11", got)
	}
}

func TestNewQueueValidation(t *testing.T) {
	a := newArena(t, 64)
	if _, err := NewQueue(a, 0, 3, 4, false); err == nil {
		t.Fatal("non-power-of-two capacity accepted")
	}
	if _, err := NewQueue(a, 0, 1, 4, false); err == nil {
		t.Fatal("capacity 1 accepted")
	}
	if _, err := NewQueue(a, 60, 8, 4, false); err == nil {
		t.Fatal("out-of-arena queue accepted")
	}
	if _, err := NewQueue(a, 2, 4, 4, true); err == nil {
		t.Fatal("misaligned padded base accepted")
	}
	if _, err := NewQueue(a, -4, 4, 4, false); err == nil {
		t.Fatal("negative base accepted")
	}
}

func TestQueueLifecycle(t *testing.T) {
	for _, padded := range []bool{true, false} {
		q, app, eng := newQueue(t, 4, padded)
		if !q.Empty(app) {
			t.Fatal("new queue not empty")
		}
		if q.Capacity() != 4 {
			t.Fatalf("capacity = %d", q.Capacity())
		}

		// App releases two buffers.
		if !q.Release(app, 100) || !q.Release(app, 101) {
			t.Fatal("release failed on non-full queue")
		}
		toProc, toAcq := q.Depths(app)
		if toProc != 2 || toAcq != 0 {
			t.Fatalf("depths = %d,%d", toProc, toAcq)
		}

		// Engine processes them in order.
		v, ok := q.ProcessPeek(eng)
		if !ok || v != 100 {
			t.Fatalf("ProcessPeek = %d,%v", v, ok)
		}
		q.AdvanceProcess(eng)
		v, ok = q.ProcessPeek(eng)
		if !ok || v != 101 {
			t.Fatalf("second ProcessPeek = %d,%v", v, ok)
		}
		q.AdvanceProcess(eng)
		if _, ok := q.ProcessPeek(eng); ok {
			t.Fatal("ProcessPeek found phantom buffer")
		}

		// App acquires both back, in order.
		v, ok = q.Acquire(app)
		if !ok || v != 100 {
			t.Fatalf("Acquire = %d,%v", v, ok)
		}
		v, ok = q.AcquirePeek(app)
		if !ok || v != 101 {
			t.Fatalf("AcquirePeek = %d,%v", v, ok)
		}
		v, ok = q.Acquire(app)
		if !ok || v != 101 {
			t.Fatalf("Acquire2 = %d,%v", v, ok)
		}
		if _, ok := q.Acquire(app); ok {
			t.Fatal("Acquire on empty succeeded")
		}
		if !q.Empty(app) {
			t.Fatal("queue not empty after full cycle")
		}
		if err := q.CheckInvariant(app); err != nil {
			t.Fatal(err)
		}
	}
}

func TestQueueFull(t *testing.T) {
	q, app, eng := newQueue(t, 2, true)
	if !q.Release(app, 1) || !q.Release(app, 2) {
		t.Fatal("fill failed")
	}
	if q.Release(app, 3) {
		t.Fatal("release on full queue succeeded")
	}
	if toProcess, toAcquire := q.Depths(app); toProcess+toAcquire != q.Capacity() {
		t.Fatalf("full queue holds %d+%d, want %d", toProcess, toAcquire, q.Capacity())
	}
	// Processing alone does not free space; acquire does.
	if _, ok := q.ProcessPeek(eng); !ok {
		t.Fatal("peek failed")
	}
	q.AdvanceProcess(eng)
	if q.Release(app, 3) {
		t.Fatal("release succeeded while buffer unacquired")
	}
	if _, ok := q.Acquire(app); !ok {
		t.Fatal("acquire failed")
	}
	if !q.Release(app, 3) {
		t.Fatal("release failed after acquire freed a slot")
	}
}

func TestAcquireCannotPassProcess(t *testing.T) {
	q, app, eng := newQueue(t, 4, true)
	q.Release(app, 7)
	if _, ok := q.Acquire(app); ok {
		t.Fatal("acquired a buffer the engine has not processed")
	}
	if _, ok := q.ProcessPeek(eng); !ok {
		t.Fatal("peek failed")
	}
	q.AdvanceProcess(eng)
	if v, ok := q.Acquire(app); !ok || v != 7 {
		t.Fatalf("Acquire = %d,%v", v, ok)
	}
}

func TestAdvanceProcessPanicsWhenEmpty(t *testing.T) {
	q, _, eng := newQueue(t, 4, true)
	defer func() {
		if recover() == nil {
			t.Fatal("AdvanceProcess on empty did not panic")
		}
	}()
	q.AdvanceProcess(eng)
}

func TestQueueWrapAround(t *testing.T) {
	q, app, eng := newQueue(t, 4, false)
	for round := 0; round < 100; round++ {
		v := uint64(round * 3)
		if !q.Release(app, v) {
			t.Fatalf("round %d: release failed", round)
		}
		got, ok := q.ProcessPeek(eng)
		if !ok || got != v {
			t.Fatalf("round %d: peek = %d,%v", round, got, ok)
		}
		q.AdvanceProcess(eng)
		got, ok = q.Acquire(app)
		if !ok || got != v {
			t.Fatalf("round %d: acquire = %d,%v", round, got, ok)
		}
		if err := q.CheckInvariant(app); err != nil {
			t.Fatal(err)
		}
	}
}

// The central concurrency test: an application goroutine and an engine
// goroutine hammer the queue; FIFO order and the invariant must hold,
// and the race detector must stay quiet (single-writer-per-word).
func TestQueueConcurrentFIFO(t *testing.T) {
	q, app, eng := newQueue(t, 8, true)
	const n = 50000
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { // engine
		defer wg.Done()
		processed := uint64(0)
		for processed < n {
			if _, ok := q.ProcessPeek(eng); ok {
				q.AdvanceProcess(eng)
				processed++
			} else {
				runtime.Gosched() // single-CPU hosts: don't starve the app
			}
		}
	}()
	errs := make(chan error, 1)
	go func() { // app: release then acquire, interleaved
		defer wg.Done()
		next := uint64(0)
		expect := uint64(0)
		for expect < n {
			progress := false
			if next < n && q.Release(app, next) {
				next++
				progress = true
			}
			if v, ok := q.Acquire(app); ok {
				progress = true
				if v != expect {
					select {
					case errs <- errOutOfOrder(v, expect):
					default:
					}
					return
				}
				expect++
			}
			if !progress {
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
	if !q.Empty(app) {
		t.Fatal("queue not empty at end")
	}
}

type orderErr struct{ got, want uint64 }

func errOutOfOrder(got, want uint64) error { return orderErr{got, want} }
func (e orderErr) Error() string           { return "out of order acquire" }

// Property: any valid interleaving of release/process/acquire steps
// preserves the pointer invariant and FIFO delivery.
func TestQuickQueueInterleavings(t *testing.T) {
	prop := func(ops []uint8) bool {
		a, err := mem.New(mem.Config{ControlWords: 256, LineWords: 4})
		if err != nil {
			return false
		}
		base, err := a.AllocLines(QueueWords(4, 4, true) / 4)
		if err != nil {
			return false
		}
		q, err := NewQueue(a, base, 4, 4, true)
		if err != nil {
			return false
		}
		app := mem.NewView(a, mem.ActorApp)
		eng := mem.NewView(a, mem.ActorEngine)
		var released, processed, acquired uint64
		for _, op := range ops {
			switch op % 3 {
			case 0:
				if q.Release(app, released) {
					released++
				}
			case 1:
				if v, ok := q.ProcessPeek(eng); ok {
					if v != processed {
						return false // engine must see FIFO
					}
					q.AdvanceProcess(eng)
					processed++
				}
			case 2:
				if v, ok := q.Acquire(app); ok {
					if v != acquired {
						return false // app must reclaim FIFO
					}
					acquired++
				}
			}
			if err := q.CheckInvariant(app); err != nil {
				return false
			}
			if acquired > processed || processed > released || released > acquired+4 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// The padded layout must put the three pointers on distinct lines and
// keep engine-written words off application-written lines.
func TestPaddedLayoutLineIsolation(t *testing.T) {
	a := newArena(t, 4096)
	base, err := a.AllocLines(QueueWords(8, 4, true) / 4)
	if err != nil {
		t.Fatal(err)
	}
	q, err := NewQueue(a, base, 8, 4, true)
	if err != nil {
		t.Fatal(err)
	}
	tr := &lineTracer{arena: a, writers: map[int]map[mem.Actor]bool{}}
	a.SetTracer(tr)
	app := mem.NewView(a, mem.ActorApp)
	eng := mem.NewView(a, mem.ActorEngine)
	for i := 0; i < 16; i++ {
		q.Release(app, uint64(i))
		if _, ok := q.ProcessPeek(eng); ok {
			q.AdvanceProcess(eng)
		}
		q.Acquire(app)
	}
	for line, actors := range tr.writers {
		if actors[mem.ActorApp] && actors[mem.ActorEngine] {
			t.Fatalf("line %d written by both app and engine in padded layout", line)
		}
	}
}

// In the unpadded layout, app and engine DO write the same line — that
// is the false sharing the paper tuned away; assert we reproduce it.
func TestUnpaddedLayoutSharesLines(t *testing.T) {
	a := newArena(t, 4096)
	base, err := a.AllocLines((QueueWords(8, 4, false) + 3) / 4)
	if err != nil {
		t.Fatal(err)
	}
	q, err := NewQueue(a, base, 8, 4, false)
	if err != nil {
		t.Fatal(err)
	}
	tr := &lineTracer{arena: a, writers: map[int]map[mem.Actor]bool{}}
	a.SetTracer(tr)
	app := mem.NewView(a, mem.ActorApp)
	eng := mem.NewView(a, mem.ActorEngine)
	q.Release(app, 1)
	if _, ok := q.ProcessPeek(eng); ok {
		q.AdvanceProcess(eng)
	}
	q.Acquire(app)
	shared := false
	for _, actors := range tr.writers {
		if actors[mem.ActorApp] && actors[mem.ActorEngine] {
			shared = true
		}
	}
	if !shared {
		t.Fatal("unpadded layout shows no app/engine line sharing; ablation would be vacuous")
	}
}

type lineTracer struct {
	arena   *mem.Arena
	writers map[int]map[mem.Actor]bool
}

func (l *lineTracer) OnLoad(a mem.Actor, w int) {}
func (l *lineTracer) OnStore(a mem.Actor, w int) {
	line := w / l.arena.LineWords()
	if l.writers[line] == nil {
		l.writers[line] = map[mem.Actor]bool{}
	}
	l.writers[line][a] = true
}
func (l *lineTracer) OnBusLock(a mem.Actor, w int) {}

// TestSlotRun: an engine side that loads process and release once reads
// the backlog between them with Slot and hands it all back with one
// store of process; the buffers become acquirable only at that store.
func TestSlotRun(t *testing.T) {
	q, app, eng := newQueue(t, 4, true)
	for v := uint64(10); v < 13; v++ {
		if !q.Release(app, v) {
			t.Fatalf("release %d failed", v)
		}
	}
	process, release := q.ProcessWords()
	proc, rel := eng.Load(process), eng.Load(release)
	for i := proc; i != rel; i++ {
		if v := q.Slot(eng, i); v != 10+i-proc {
			t.Fatalf("Slot(%d) = %d, want %d", i, v, 10+i-proc)
		}
	}
	if _, ok := q.Acquire(app); ok {
		t.Fatal("acquired before the run stored process")
	}
	eng.Store(process, rel)
	for want := uint64(10); want < 13; want++ {
		if v, ok := q.Acquire(app); !ok || v != want {
			t.Fatalf("Acquire = %d,%v; want %d", v, ok, want)
		}
	}
	if err := q.CheckInvariant(app); err != nil || !q.Empty(app) {
		t.Fatalf("after the run: %v, empty %v", err, q.Empty(app))
	}
}

func TestAdvanceProcessPanicsForTrustedCallers(t *testing.T) {
	q, _, eng := newQueue(t, 4, true)
	defer func() {
		if recover() == nil {
			t.Fatal("AdvanceProcess on empty queue did not panic")
		}
	}()
	q.AdvanceProcess(eng)
}

func TestDebugOffsets(t *testing.T) {
	q, app, eng := newQueue(t, 4, true)
	rel, proc, acq, slots := q.DebugOffsets()
	// Offsets must be the live control words: a store through them is
	// visible to normal operations.
	app.Store(rel, 3)
	app.Store(slots, 42)
	if v, ok := q.ProcessPeek(eng); !ok || v != 42 {
		t.Fatalf("ProcessPeek after raw stores = %d,%v", v, ok)
	}
	if proc == rel || acq == rel || proc == acq {
		t.Fatal("control-word offsets alias")
	}
}

// Process is a peek and an advance in one step; Unacquired walks what
// the application still owns, processed or not, and moves nothing.
func TestProcessAndUnacquired(t *testing.T) {
	q, app, eng := newQueue(t, 8, true)
	for v := uint64(10); v < 15; v++ {
		q.Release(app, v)
	}
	for want := uint64(10); want < 12; want++ {
		if v, ok := q.Process(eng); !ok || v != want {
			t.Fatalf("Process = %d, %v; want %d", v, ok, want)
		}
	}
	if v, ok := q.Acquire(app); !ok || v != 10 {
		t.Fatalf("Acquire = %d, %v; want 10", v, ok)
	}
	var seen []uint64
	q.Unacquired(app, func(v uint64) { seen = append(seen, v) })
	if len(seen) != 4 || seen[0] != 11 || seen[3] != 14 {
		t.Fatalf("Unacquired visited %v, want 11..14", seen)
	}
	if toProc, toAcq := q.Depths(app); toProc != 3 || toAcq != 1 {
		t.Fatalf("Depths after Unacquired = %d, %d; want 3, 1", toProc, toAcq)
	}
	for q.Release(app, 0) {
	}
	for i := 0; i < 7; i++ {
		q.Process(eng)
	}
	if _, ok := q.Process(eng); ok {
		t.Fatal("Process past release")
	}
	if err := q.CheckInvariant(app); err != nil {
		t.Fatal(err)
	}
}
