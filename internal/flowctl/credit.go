package flowctl

// The reusable credit core: cumulative-count window accounting, the
// AIMD window controller, and the credit/hello frame codec. The
// per-topic receive credit in internal/topic is built on it.
//
// Credit frames carry a *cumulative* disposed count (everything the
// receiving endpoint has ever consumed or discarded), not a delta: the
// sender reconstructs the available window as
//
//	available = window - (sent - acked)
//
// where acked is the highest cumulative count it has seen. A credit
// frame lost in flight therefore shrinks the window only until the next
// frame arrives — loss of the feedback channel is self-healing, which a
// delta protocol cannot be (every lost delta shrinks the window
// permanently). This matters because credit frames ride the same
// optimistic transport as everything else: they can be dropped at a
// full endpoint, lost to a transient peer outage, or reordered.

import (
	"encoding/binary"

	"flipc/internal/wire"
)

// Account is the sender-side ledger of one credited flow. It is plain
// state, single-writer like the send paths that embed it; wrap
// externally for concurrent use.
type Account struct {
	window int
	sent   uint64 // frames charged to this flow (cumulative)
	acked  uint64 // highest cumulative disposed count reported by the peer
}

// NewAccount returns an account with the given window and zeroed
// counters.
func NewAccount(window int) Account { return Account{window: window} }

// SetWindow installs the peer's advertised window.
func (a *Account) SetWindow(w int) {
	if w < 0 {
		w = 0
	}
	a.window = w
}

// Window returns the advertised window.
func (a *Account) Window() int { return a.window }

// Outstanding returns the frames charged but not yet reported disposed.
func (a *Account) Outstanding() int { return int(a.sent - a.acked) }

// Available returns the credits left in the window.
func (a *Account) Available() int {
	out := a.Outstanding()
	if out >= a.window {
		return 0
	}
	return a.window - out
}

// Spend charges one frame to the flow. Callers gate on Available; Spend
// itself never refuses, so a caller that deliberately oversends (e.g. a
// control frame that must go regardless) still keeps the ledger honest.
func (a *Account) Spend() { a.sent++ }

// Ack applies a cumulative disposed report. Stale or reordered reports
// (count below the high-water mark) are ignored; a report above the
// charged count realigns sent (the peer disposed of frames this account
// never charged — e.g. traffic from before the handshake), so the
// window can only be over-throttled transiently, never corrupted.
// Returns whether the report advanced the ledger.
func (a *Account) Ack(disposed uint64) bool {
	if disposed <= a.acked {
		return false
	}
	a.acked = disposed
	if a.acked > a.sent {
		a.sent = a.acked
	}
	return true
}

// Baseline aligns both counters to the peer's cumulative count — the
// handshake step: everything the peer has disposed of so far predates
// this flow, so the full window starts available.
func (a *Account) Baseline(disposed uint64) {
	a.sent = disposed
	a.acked = disposed
}

// Resync forgives all outstanding frames, restoring the full window.
// It is the stall escape hatch: frames lost between sender and receiver
// (not at the receiver's endpoint — those are counted in its disposed
// total) are never reported disposed, and without intervention they
// occupy the window forever. A sender that has been throttled for a
// long stretch with no ack progress calls Resync to re-probe; if the
// peer is genuinely saturated the re-probed frames are dropped at its
// endpoint and counted, per the optimistic discipline.
func (a *Account) Resync() { a.acked = a.sent }

// AIMD is the adaptive window controller: halve on a drop epoch
// (additive-increase/multiplicative-decrease, the TCP lesson applied to
// receive credit), grow by one per clean interval. The receiver runs it
// on its renewal cadence against its own cumulative endpoint drop
// counter and advertises the result.
type AIMD struct {
	min, max  int
	window    int
	lastDrops uint64
}

// NewAIMD returns a controller bounded to [min, max] starting at
// initial (all clamped into range; min is floored at 1).
func NewAIMD(min, max, initial int) *AIMD {
	if min < 1 {
		min = 1
	}
	if max < min {
		max = min
	}
	if initial < min {
		initial = min
	}
	if initial > max {
		initial = max
	}
	return &AIMD{min: min, max: max, window: initial}
}

// Window returns the current window.
func (c *AIMD) Window() int { return c.window }

// Observe runs one controller interval against the cumulative drop
// counter: any drops since the last interval halve the window (floored
// at min); a clean interval grows it by one (capped at max). Returns
// the new window.
func (c *AIMD) Observe(dropsCum uint64) int {
	if dropsCum > c.lastDrops {
		c.window /= 2
		if c.window < c.min {
			c.window = c.min
		}
	} else if c.window < c.max {
		c.window++
	}
	c.lastDrops = dropsCum
	return c.window
}

// Frame codec. Both frames fit the 56-byte minimum payload.
const (
	// CreditMagic tags a credit frame: a receiver's cumulative window
	// advertisement on the feedback channel.
	CreditMagic = 0xC4
	// HelloMagic tags a hello frame: a sender announcing the address
	// its peers should return credits to.
	HelloMagic = 0xC7
	// creditVersion is the codec version byte (frames from other
	// versions are ignored, not errors — the flow falls back to
	// uncredited optimism).
	creditVersion = 1

	// CreditFrameBytes is the credit frame payload size:
	// magic(1) ver(1) window(2) disposed(8) from(4).
	CreditFrameBytes = 16
	// HelloFrameBytes is the hello frame payload size:
	// magic(1) ver(1) pad(2) creditAddr(4).
	HelloFrameBytes = 8
)

// EncodeCredit writes a credit frame into p (at least CreditFrameBytes)
// and returns its length. from identifies the advertising endpoint —
// FLIPC delivers no sender identity, so the feedback channel carries it
// in-band; window is the advertised receive window; disposed is the
// cumulative consumed+discarded count of the advertising endpoint.
func EncodeCredit(p []byte, from wire.Addr, window uint16, disposed uint64) int {
	p[0] = CreditMagic
	p[1] = creditVersion
	binary.BigEndian.PutUint16(p[2:4], window)
	binary.BigEndian.PutUint64(p[4:12], disposed)
	binary.BigEndian.PutUint32(p[12:16], uint32(from))
	return CreditFrameBytes
}

// DecodeCredit parses a credit frame; ok is false for anything that is
// not a well-formed current-version credit frame.
func DecodeCredit(p []byte) (from wire.Addr, window uint16, disposed uint64, ok bool) {
	if len(p) < CreditFrameBytes || p[0] != CreditMagic || p[1] != creditVersion {
		return 0, 0, 0, false
	}
	window = binary.BigEndian.Uint16(p[2:4])
	disposed = binary.BigEndian.Uint64(p[4:12])
	from = wire.Addr(binary.BigEndian.Uint32(p[12:16]))
	return from, window, disposed, true
}

// EncodeHello writes a hello frame into p (at least HelloFrameBytes)
// and returns its length. credit is the address credit frames should be
// returned to.
func EncodeHello(p []byte, credit wire.Addr) int {
	p[0] = HelloMagic
	p[1] = creditVersion
	p[2], p[3] = 0, 0
	binary.BigEndian.PutUint32(p[4:8], uint32(credit))
	return HelloFrameBytes
}

// DecodeHello parses a hello frame.
func DecodeHello(p []byte) (credit wire.Addr, ok bool) {
	if len(p) < HelloFrameBytes || p[0] != HelloMagic || p[1] != creditVersion {
		return 0, false
	}
	return wire.Addr(binary.BigEndian.Uint32(p[4:8])), true
}
