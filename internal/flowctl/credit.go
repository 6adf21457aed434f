package flowctl

// The reusable credit core: cumulative-count grant accounting and the
// credit/hello frame codec. The per-topic receive credit in
// internal/topic is built on it.
//
// Credit frames carry a *cumulative* disposed count (everything the
// receiving endpoint has ever consumed or discarded from this sender)
// and the window granted beyond it. Their sum is the granted right
// edge: the sender may have charged at most that many frames. The
// sender keeps the highest edge it has seen and reconstructs
//
//	available = edge - sent,   edge = max over adverts of (disposed + window)
//
// A credit frame lost in flight therefore shrinks the window only until
// the next frame arrives — loss of the feedback channel is
// self-healing, which a delta protocol cannot be (every lost delta
// shrinks the window permanently) — and a stale or reordered frame can
// neither widen nor narrow the grant. This matters because credit
// frames ride the same optimistic transport as everything else: they
// can be dropped at a full endpoint, lost to a transient peer outage,
// or reordered.

import (
	"encoding/binary"

	"flipc/internal/wire"
)

// Account is the sender-side ledger of one credited flow. It is plain
// state, single-writer like the send paths that embed it; wrap
// externally for concurrent use. The zero Account grants nothing until
// its first Grant.
type Account struct {
	sent  uint64 // frames charged to this flow (cumulative)
	acked uint64 // highest cumulative disposed count reported by the peer
	edge  uint64 // highest granted right edge (disposed + window) reported
}

// Window returns the grant beyond the last reported disposed count.
func (a *Account) Window() int { return int(a.edge - a.acked) }

// Available returns the credits left before the granted edge.
func (a *Account) Available() int {
	if a.sent >= a.edge {
		return 0
	}
	return int(a.edge - a.sent)
}

// Spend charges one frame to the flow. Callers gate on Available; Spend
// itself never refuses, so a caller that deliberately oversends still
// keeps the ledger honest.
func (a *Account) Spend() { a.sent++ }

// Grant applies one advertisement: the peer's cumulative disposed count
// and the window it grants beyond it. The edge only ever rises, and a
// disposed count below the high-water mark is ignored; a count above
// the charged count realigns sent (the peer disposed of frames this
// account never charged — e.g. its record outlived ours), so the grant
// is never larger than window. Returns whether the report advanced the
// disposed count.
func (a *Account) Grant(disposed uint64, window uint16) bool {
	if e := disposed + uint64(window); e > a.edge {
		a.edge = e
	}
	if disposed <= a.acked {
		return false
	}
	a.acked = disposed
	if a.acked > a.sent {
		a.sent = a.acked
	}
	return true
}

// Resync forgives all outstanding frames and moves the edge to keep the
// current window open past them. It is the stall escape hatch: frames
// lost between sender and receiver (not at the receiver's endpoint —
// those are counted in its disposed total) are never reported disposed,
// and without intervention they occupy the window forever. A sender
// that has been throttled for a long stretch with no ack progress calls
// Resync to re-probe; if the peer is genuinely saturated the re-probed
// frames are dropped at its endpoint and counted, per the optimistic
// discipline.
func (a *Account) Resync() {
	a.edge = a.sent + (a.edge - a.acked)
	a.acked = a.sent
}

// Frame codec. Both frames fit the 56-byte minimum payload.
const (
	// CreditMagic tags a credit frame: a receiver's cumulative grant on
	// the feedback channel.
	CreditMagic = 0xC4
	// HelloMagic tags a hello frame: a sender announcing the address
	// its peers should return credits to.
	HelloMagic = 0xC7
	// creditVersion is the codec version byte (frames from other
	// versions are ignored, not errors).
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
// in-band; disposed is the advertising endpoint's cumulative
// consumed+discarded count for the addressed sender, and window the
// frames granted beyond it.
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
