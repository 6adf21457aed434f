package engine

import (
	"fmt"
)

// FaultKind categorizes the communication-buffer invariant violations
// that quarantine an endpoint. The categories follow the engine's
// validity-check surface: everything the engine reads from
// application-writable memory has a kind here, so EndpointFaults
// accounts for every way a hostile or buggy application can be caught.
type FaultKind uint8

// Fault categories. FaultNone (index 0 of Stats.EndpointFaults) marks
// a healthy endpoint and is never counted.
const (
	// FaultNone: not quarantined.
	FaultNone FaultKind = iota
	// FaultBadDescriptor: the slot's config word claims an active
	// endpoint but the descriptor body is not sane (forged config word,
	// wild queue/counter base, invalid type).
	FaultBadDescriptor
	// FaultBadBufID: a queue slot names no buffer-table entry.
	FaultBadBufID
	// FaultBadBufState: a queued buffer's meta word is not in the
	// queued state — the application kept ownership or double-queued.
	FaultBadBufState
	// FaultQueueInvariant: the queue's release/process/acquire pointers
	// violate acquire <= process <= release <= acquire+capacity.
	FaultQueueInvariant

	numFaultKindsSentinel
)

// NumFaultKinds is the number of fault categories including FaultNone —
// the length of Stats.EndpointFaults.
const NumFaultKinds = int(numFaultKindsSentinel)

// String returns the category name used in metrics labels and traces.
func (k FaultKind) String() string {
	switch k {
	case FaultNone:
		return "none"
	case FaultBadDescriptor:
		return "bad-descriptor"
	case FaultBadBufID:
		return "bad-buffer-id"
	case FaultBadBufState:
		return "bad-buffer-state"
	case FaultQueueInvariant:
		return "queue-invariant"
	default:
		return fmt.Sprintf("fault(%d)", uint8(k))
	}
}

// MarshalText renders the category as its name, the form /healthz
// shows.
func (k FaultKind) MarshalText() ([]byte, error) { return []byte(k.String()), nil }

// QuarantinedEndpoint describes one endpoint the engine has stopped
// servicing: which slot, why, and on which Poll pass the fault was
// detected. Exposed through Engine.Quarantined for core, msglib, and
// the observability surfaces.
type QuarantinedEndpoint struct {
	Slot int       `json:"slot"`
	Kind FaultKind `json:"kind"`
	Pass uint64    `json:"pass"` // Stats.Polls value when the fault was detected
}

// quarantine freezes endpoint slot after a detected invariant
// violation: the engine skips it on subsequent passes (consuming no
// send/recv quantum on it) until the application re-allocates the slot,
// which bumps the config word and lifts the quarantine in endpoint().
// Idempotent per quarantine episode — only the first fault on a slot is
// counted, so EndpointFaults counts episodes, not arrivals.
func (e *Engine) quarantine(slot int, k FaultKind) {
	c := &e.eps[slot]
	if c.fault != FaultNone {
		return
	}
	c.fault = k
	c.faultPass = e.stats.Polls
	e.stats.EndpointFaults[k]++
	e.stats.Quarantines++
	e.orderStale = true
	if e.lab != nil {
		e.cfg.Trace.Add2(e.lab.epQuarantine, uint64(slot), uint64(k))
	}
	e.publishQuarantined()
}

// publishQuarantined rebuilds the cross-goroutine quarantine snapshot.
// Called only from the engine's own loop (single writer); readers get
// an immutable slice via Engine.Quarantined.
func (e *Engine) publishQuarantined() {
	var qs []QuarantinedEndpoint
	for i := range e.eps {
		if c := &e.eps[i]; c.fault != FaultNone {
			qs = append(qs, QuarantinedEndpoint{Slot: i, Kind: c.fault, Pass: c.faultPass})
		}
	}
	e.qsnap.Store(&qs)
	if e.m != nil {
		e.m.quarantined.Set(float64(len(qs)))
	}
}

// Quarantined returns the currently quarantined endpoints, oldest slot
// first. Unlike Stats it is safe from any goroutine: the engine
// publishes an immutable snapshot on every quarantine and recovery.
// Callers must not modify the returned slice.
func (e *Engine) Quarantined() []QuarantinedEndpoint {
	if p := e.qsnap.Load(); p != nil {
		return *p
	}
	return nil
}
