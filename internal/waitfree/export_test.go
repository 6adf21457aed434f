package waitfree

import (
	"fmt"

	"flipc/internal/mem"
)

// DebugOffsets returns the queue's control-word offsets — release,
// process, acquire, and the first slot — for tests that model wild
// application writes.
func (q *Queue) DebugOffsets() (release, process, acquire, slotBase int) {
	return q.release, q.process, q.acquire, q.slotBase
}

// CheckInvariant verifies acquire <= process <= release <= acquire+capacity.
func (q *Queue) CheckInvariant(v mem.View) error {
	rel := v.Load(q.release)
	proc := v.Load(q.process)
	acq := v.Load(q.acquire)
	if !(acq <= proc && proc <= rel && rel <= acq+q.capacity) {
		return fmt.Errorf("waitfree: queue invariant violated: acquire=%d process=%d release=%d capacity=%d",
			acq, proc, rel, q.capacity)
	}
	return nil
}

// AcquirePeek returns the value the next Acquire would return without
// consuming it.
func (q *Queue) AcquirePeek(app mem.View) (uint64, bool) {
	acq := app.Load(q.acquire)
	proc := app.Load(q.process)
	if acq == proc {
		return 0, false
	}
	return app.Load(q.slot(acq)), true
}

// Empty reports whether all three pointers coincide (no buffers at any
// stage).
func (q *Queue) Empty(v mem.View) bool {
	rel := v.Load(q.release)
	return rel == v.Load(q.process) && rel == v.Load(q.acquire)
}
