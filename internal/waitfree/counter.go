package waitfree

import (
	"fmt"

	"flipc/internal/mem"
)

// Counter is the paper's two-location wait-free event counter, used to
// track discarded messages per endpoint (§Wait-Free Synchronization).
//
// A single shared word cannot support an application-side
// "read and reset" without losing increments that land between the read
// and the zeroing write. Instead:
//
//   - count (engine-written) is incremented on each event;
//   - snapshot (application-written) holds the count value as of the
//     last read-and-reset.
//
// The logical value is count - snapshot; read-and-reset copies count
// into snapshot. Events occurring between the application's read of
// count and its store to snapshot are not lost: they keep count ahead
// of the stored snapshot and surface on the next read.
type Counter struct {
	arena    *mem.Arena
	count    int // engine-written
	snapshot int // application-written
}

// CounterWords returns the control words needed for a counter in the
// given layout. The padded layout puts each word on its own line so an
// engine increment never invalidates the application's line and vice
// versa.
func CounterWords(lineWords int, padded bool) int {
	if padded {
		return 2 * lineWords
	}
	return 2
}

// NewCounter lays out a counter at base. The caller must have reserved
// CounterWords words (line-aligned when padded).
func NewCounter(a *mem.Arena, base, lineWords int, padded bool) (*Counter, error) {
	c := new(Counter)
	if err := c.Init(a, base, lineWords, padded); err != nil {
		return nil, err
	}
	return c, nil
}

// Init is NewCounter into a Counter the caller holds, for a descriptor
// that embeds its counter by value. It reads and writes no arena word.
func (c *Counter) Init(a *mem.Arena, base, lineWords int, padded bool) error {
	words := CounterWords(lineWords, padded)
	if base < 0 || !a.ValidWord(base) || !a.ValidWord(base+words-1) {
		return fmt.Errorf("waitfree: counter [%d,%d) outside arena", base, base+words)
	}
	snapshot := base + 1
	if padded {
		if base%lineWords != 0 {
			return fmt.Errorf("waitfree: padded counter base %d not line-aligned", base)
		}
		snapshot = base + lineWords
	}
	*c = Counter{arena: a, count: base, snapshot: snapshot}
	return nil
}

// Incr increments the event count on behalf of the engine. Load+store
// is sufficient because the engine is the only writer of count.
func (c *Counter) Incr(eng mem.View) {
	eng.Store(c.count, eng.Load(c.count)+1)
}

// Read returns the number of events since the last reset, without
// resetting.
func (c *Counter) Read(v mem.View) uint64 {
	return v.Load(c.count) - v.Load(c.snapshot)
}

// ReadAndReset returns the number of events since the last reset and
// resets the counter, atomically in the sense that no event is ever
// counted twice or lost: the application copies its read of count into
// snapshot, so increments racing with the reset remain pending.
func (c *Counter) ReadAndReset(app mem.View) uint64 {
	count := app.Load(c.count)
	val := count - app.Load(c.snapshot)
	app.Store(c.snapshot, count)
	return val
}

// Total returns the all-time event count (ignores resets).
func (c *Counter) Total(v mem.View) uint64 {
	return v.Load(c.count)
}
