// Package waitfree implements FLIPC's wait-free synchronization
// structures for the load/store-only memory model shared by the
// application and the messaging engine.
//
// The Paragon's communication controllers (and the SCSI and Myrinet
// controllers the paper surveys) cannot perform atomic
// read-modify-write on main memory, so every structure here follows the
// paper's design rule: separate or duplicate data so that the
// application and the messaging engine never attempt to concurrently
// write the same memory location. Concretely, each shared word has
// exactly one writer side, and in the tuned ("padded") layout no cache
// line mixes application-written and engine-written words — that
// line-level separation is what eliminated the false-sharing
// invalidations worth almost a factor of two in latency (§Implementation).
//
// The package provides:
//
//   - Queue: the endpoint buffer queue of Figure 3 — a circular queue
//     of buffer pointers with release (head), process (middle), and
//     acquire (tail) pointers;
//   - Counter: the two-location discarded-message counter whose
//     read-and-reset never loses increments;
//   - Ring: a generic single-producer/single-consumer ring used as the
//     engine→kernel wakeup doorbell.
package waitfree

import (
	"fmt"

	"flipc/internal/mem"
)

// Queue is the endpoint buffer queue (paper Figure 3). The application
// releases buffers into the queue at the head, the messaging engine
// processes buffers in the middle, and the application acquires
// finished buffers back at the tail:
//
//	release (app writes)  -> next slot the application fills
//	process (engine writes) -> next slot the engine will handle
//	acquire (app writes)  -> next slot the application reclaims
//
// All three are free-running 64-bit counters; slot index = counter mod
// capacity. Invariant: acquire <= process <= release <= acquire+capacity.
// Slot words are written only by the application (the engine just reads
// them), so no word has two writers. The queue is empty when all three
// counters are equal; "nothing to process" when process == release;
// "nothing to acquire" when acquire == process.
type Queue struct {
	arena    *mem.Arena
	release  int // word offset, application-written
	process  int // word offset, engine-written
	acquire  int // word offset, application-written
	slotBase int // word offset of slot array, application-written
	capacity uint64
}

// QueueWords returns the number of control words a queue of the given
// capacity occupies, for the padded (tuned) or unpadded (legacy,
// false-sharing) layout. Capacity must be a power of two.
func QueueWords(capacity, lineWords int, padded bool) int {
	if padded {
		// One line per pointer (release/process/acquire) so app- and
		// engine-written words never share a line, plus slots rounded
		// up to whole lines (slots are app-written only, so they may
		// share lines with each other but not with process).
		slotLines := (capacity + lineWords - 1) / lineWords
		return (3 + slotLines) * lineWords
	}
	// Legacy layout: three pointers packed together, slots following.
	return 3 + capacity
}

// NewQueue lays out a queue at base in arena. Capacity must be a power
// of two >= 2. The caller must have reserved QueueWords words at base
// (line-aligned when padded).
func NewQueue(a *mem.Arena, base, capacity, lineWords int, padded bool) (*Queue, error) {
	q := new(Queue)
	if err := q.Init(a, base, capacity, lineWords, padded); err != nil {
		return nil, err
	}
	return q, nil
}

// Init is NewQueue into a Queue the caller holds, for a descriptor that
// embeds its queue by value. It reads and writes no arena word.
func (q *Queue) Init(a *mem.Arena, base, capacity, lineWords int, padded bool) error {
	if capacity < 2 || capacity&(capacity-1) != 0 {
		return fmt.Errorf("waitfree: queue capacity %d must be a power of two >= 2", capacity)
	}
	words := QueueWords(capacity, lineWords, padded)
	if base < 0 || !a.ValidWord(base) || !a.ValidWord(base+words-1) {
		return fmt.Errorf("waitfree: queue [%d,%d) outside arena (%d words)", base, base+words, a.Words())
	}
	step := 1
	if padded {
		if base%lineWords != 0 {
			return fmt.Errorf("waitfree: padded queue base %d not line-aligned (line=%d words)", base, lineWords)
		}
		step = lineWords
	}
	*q = Queue{arena: a, capacity: uint64(capacity),
		release: base, process: base + step, acquire: base + 2*step, slotBase: base + 3*step}
	return nil
}

// Capacity returns the number of slots.
func (q *Queue) Capacity() int { return int(q.capacity) }

func (q *Queue) slot(i uint64) int { return q.slotBase + int(i&(q.capacity-1)) }

// Release inserts v at the head of the queue on behalf of the
// application. It returns false when the queue is full (capacity
// buffers between acquire and release). The slot is the application's
// until the release pointer moves past it, so it takes a plain store;
// the sequentially consistent store to release that follows is what
// publishes the slot to the engine, which loads release before it
// reads the slot.
func (q *Queue) Release(app mem.View, v uint64) bool {
	rel := app.Load(q.release)
	acq := app.Load(q.acquire)
	if rel-acq >= q.capacity {
		return false
	}
	app.StoreOwned(q.slot(rel), v)
	app.Store(q.release, rel+1)
	return true
}

// ProcessPeek returns the slot value at the engine's process position
// without advancing, and reports whether one is available; a trusted
// caller handles the buffer, then calls AdvanceProcess. The engine
// itself, whose application may scribble the pointers, loads process
// and release once per run and reads the backlog with Slot.
func (q *Queue) ProcessPeek(eng mem.View) (uint64, bool) {
	proc := eng.Load(q.process)
	rel := eng.Load(q.release)
	if proc == rel {
		return 0, false
	}
	return eng.Load(q.slot(proc)), true
}

// AdvanceProcess moves the engine's process pointer past the buffer
// returned by the last ProcessPeek. Calling it with nothing pending
// (a backlog release-process outside (0, capacity]) is a bug in the
// trusted caller; it panics rather than corrupt the invariant.
func (q *Queue) AdvanceProcess(eng mem.View) {
	proc := eng.Load(q.process)
	rel := eng.Load(q.release)
	if pending := rel - proc; pending == 0 || pending > q.capacity {
		panic(fmt.Sprintf("waitfree: AdvanceProcess with no processable buffer (process=%d release=%d)", proc, rel))
	}
	eng.Store(q.process, proc+1)
}

// Process is ProcessPeek and AdvanceProcess in one step, for an engine
// side whose application is trusted code in the same process: the
// value at the process position and a move past it, or false.
func (q *Queue) Process(eng mem.View) (uint64, bool) {
	proc := eng.Load(q.process)
	if proc == eng.Load(q.release) {
		return 0, false
	}
	v := eng.Load(q.slot(proc))
	eng.Store(q.process, proc+1)
	return v, true
}

// Acquire removes and returns the slot value at the tail on behalf of
// the application: a buffer the engine has finished processing. It
// returns false when no processed buffer is available.
func (q *Queue) Acquire(app mem.View) (uint64, bool) {
	acq := app.Load(q.acquire)
	proc := app.Load(q.process)
	if acq == proc {
		return 0, false
	}
	v := app.Load(q.slot(acq))
	app.Store(q.acquire, acq+1)
	return v, true
}

// Unacquired visits, oldest first, every value released and not yet
// acquired, processed or not, moving no pointer: how the application
// takes back what a departed engine side will never finish.
func (q *Queue) Unacquired(app mem.View, visit func(uint64)) {
	for i, rel := app.Load(q.acquire), app.Load(q.release); i != rel; i++ {
		visit(app.Load(q.slot(i)))
	}
}

// Depths returns the number of buffers waiting to be processed by the
// engine and the number processed but not yet acquired, as seen by
// view's actor. The two sum to the queue occupancy.
func (q *Queue) Depths(v mem.View) (toProcess, toAcquire int) {
	rel := v.Load(q.release)
	proc := v.Load(q.process)
	acq := v.Load(q.acquire)
	return int(rel - proc), int(proc - acq)
}

// Slot returns the value released at free-running position i, for an
// engine that loaded process and release once and reads the backlog
// between them (i in [process, release)) as one run.
func (q *Queue) Slot(eng mem.View, i uint64) uint64 { return eng.Load(q.slot(i)) }

// ProcessWords returns the offsets of the process and release pointers,
// for the engine, which loads the two itself: equal values mean nothing
// to process, and a run reads the backlog between them with Slot and
// hands it back with one store of process.
func (q *Queue) ProcessWords() (process, release int) { return q.process, q.release }
