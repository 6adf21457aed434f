// Package registrystore makes the nameservice topic registry durable
// and replicated with one log: a write-ahead journal (a duralog) plus
// periodic compacted snapshots on the registry node, published as a
// durable topic on a reserved control-priority FLIPC stream that a
// standby replica follows as a durable subscriber.
//
// The durability contract is generation fencing: a registry that
// restarts (or a standby that takes over) resumes at a registry
// generation strictly above any the previous incarnation ever served,
// and bumps every topic's membership generation, so every publisher
// plan and every client view built against the old incarnation reads
// as stale and refreshes — without a cluster-wide re-join storm,
// because the recovered subscriber sets answer paged-snapshot requests
// immediately.
//
// The log carries membership and generations only. The registry's
// mutation observer emits each acknowledged join, leave and class
// change before the mutating call returns (write-ahead, under the
// registry lock), and applying the same records in the same order to
// an empty registry reconstructs the same topics, subscriber sets and
// generations. Leases are soft state: a renewal is not journaled, a
// lease that expires is journaled as the unsubscribe it causes, and
// every incarnation restamps every lease before it serves. Durable
// cursors live in each durable topic's own log, not here.
package registrystore

import (
	"encoding/binary"
	"fmt"

	"flipc/internal/nameservice"
	"flipc/internal/recio"
	"flipc/internal/wire"
)

// RecType identifies one record kind in the log and replication stream.
type RecType uint8

// Record types. Declare/Subscribe/Unsubscribe mirror the registry's
// mutation operations; Fence and Heartbeat are the store's own: a Fence
// persists the registry generation an incarnation serves at, a
// Heartbeat carries the primary's generation on the housekeeping
// cadence so a silent standby can detect primary death. Both are
// journaled, so they move the sequence like any record.
//
// Renew, Advance and CursorAck are no longer written. Journals from
// before leases and cursors left the log still hold them: they decode,
// a renewal and a sweep replay as they did (so an old journal recovers
// the state it always recovered), and a cursor ack is skipped.
const (
	RecDeclare RecType = iota + 1
	RecSubscribe
	RecRenew
	RecUnsubscribe
	RecAdvance
	RecFence
	RecHeartbeat
	RecCursorAck

	recTypeSentinel
)

// String names the record type for traces and errors.
func (t RecType) String() string {
	switch t {
	case RecDeclare:
		return "declare"
	case RecSubscribe:
		return "subscribe"
	case RecRenew:
		return "renew"
	case RecUnsubscribe:
		return "unsubscribe"
	case RecAdvance:
		return "advance"
	case RecFence:
		return "fence"
	case RecHeartbeat:
		return "heartbeat"
	case RecCursorAck:
		return "cursor-ack"
	}
	return fmt.Sprintf("rectype(%d)", uint8(t))
}

// Record is one registry mutation (or store control event) in its
// durable form. Seq is the registry-wide mutation sequence number: the
// primary's journal sequence, at which a standby journals it too.
type Record struct {
	Type  RecType
	Seq   uint64
	Topic string
	Addr  wire.Addr
	Class uint8
	// Gen is the registry generation carried by Fence and Heartbeat
	// records.
	Gen uint64
	// Sub and Ack carry RecCursorAck's subscriber name and acknowledged
	// durable sequence.
	Sub string
	Ack uint64
	// Ver is the frame format version (recio.V0 or recio.V1), preserved
	// across decode so re-encoding a decoded record is byte-exact.
	// Journal stamps newly written records recio.V1.
	Ver uint8
}

// Record framing is internal/recio's CRC-framed layout (the codec is
// shared with internal/duralog); this package owns only the bodies:
// declare = class(1) | topic; subscribe/renew/unsubscribe = addr(4) |
// topic; advance = empty; fence/heartbeat = generation(8); cursor-ack =
// ackSeq(8) | subLen(1) | sub | topic.
const (
	// MaxTopicLen bounds topic names in records (matches the remote
	// protocol's name limit).
	MaxTopicLen = 200
)

// ErrCorrupt and ErrShort are recio's parse-failure classes: ErrShort
// is a structurally incomplete prefix (a torn tail, truncated at
// recovery); ErrCorrupt is everything else — bad checksum, unknown
// type or version, malformed body. A log reader stops at the first
// corrupt record; a replica treats it as a record it cannot apply.
var (
	ErrCorrupt = recio.ErrCorrupt
	ErrShort   = recio.ErrShort
)

// body builds the record's type-specific body.
func (r *Record) body() ([]byte, error) {
	switch r.Type {
	case RecDeclare:
		if len(r.Topic) == 0 || len(r.Topic) > MaxTopicLen {
			return nil, fmt.Errorf("registrystore: bad topic length %d", len(r.Topic))
		}
		b := make([]byte, 1+len(r.Topic))
		b[0] = r.Class
		copy(b[1:], r.Topic)
		return b, nil
	case RecSubscribe, RecRenew, RecUnsubscribe:
		if len(r.Topic) == 0 || len(r.Topic) > MaxTopicLen {
			return nil, fmt.Errorf("registrystore: bad topic length %d", len(r.Topic))
		}
		if !r.Addr.Valid() {
			return nil, fmt.Errorf("registrystore: %v record with invalid address", r.Type)
		}
		b := make([]byte, 4+len(r.Topic))
		binary.BigEndian.PutUint32(b[0:4], uint32(r.Addr))
		copy(b[4:], r.Topic)
		return b, nil
	case RecAdvance:
		return nil, nil
	case RecFence, RecHeartbeat:
		b := make([]byte, 8)
		binary.BigEndian.PutUint64(b, r.Gen)
		return b, nil
	case RecCursorAck:
		if len(r.Topic) == 0 || len(r.Topic) > MaxTopicLen {
			return nil, fmt.Errorf("registrystore: bad topic length %d", len(r.Topic))
		}
		if len(r.Sub) == 0 || len(r.Sub) > 255 {
			return nil, fmt.Errorf("registrystore: bad cursor subscriber length %d", len(r.Sub))
		}
		b := make([]byte, 9+len(r.Sub)+len(r.Topic))
		binary.BigEndian.PutUint64(b[0:8], r.Ack)
		b[8] = byte(len(r.Sub))
		copy(b[9:], r.Sub)
		copy(b[9+len(r.Sub):], r.Topic)
		return b, nil
	}
	return nil, fmt.Errorf("registrystore: cannot encode record type %v", r.Type)
}

// AppendRecord encodes r and appends it to dst, returning the extended
// slice. The same encoding frames WAL entries and replication messages.
func AppendRecord(dst []byte, r *Record) ([]byte, error) {
	body, err := r.body()
	if err != nil {
		return dst, err
	}
	return recio.Append(dst, &recio.Frame{Type: uint8(r.Type), Ver: r.Ver, Seq: r.Seq, Payload: body})
}

// DecodeRecord parses one record from the front of b, returning the
// record and the bytes consumed. ErrShort means b ends before the
// record does (torn tail); ErrCorrupt wraps every other failure. Both
// frame versions are accepted, so a log or replication stream written
// by an old node replays on a new one mid-upgrade.
func DecodeRecord(b []byte) (Record, int, error) {
	f, size, err := recio.Decode(b)
	if err != nil {
		return Record{}, 0, err
	}
	r := Record{
		Type: RecType(f.Type),
		Seq:  f.Seq,
		Ver:  f.Ver,
	}
	body := f.Payload
	switch r.Type {
	case RecDeclare:
		if len(body) < 2 || len(body) > 1+MaxTopicLen {
			return Record{}, 0, fmt.Errorf("%w: declare body %d bytes", ErrCorrupt, len(body))
		}
		r.Class = body[0]
		r.Topic = string(body[1:])
	case RecSubscribe, RecRenew, RecUnsubscribe:
		if len(body) < 5 || len(body) > 4+MaxTopicLen {
			return Record{}, 0, fmt.Errorf("%w: %v body %d bytes", ErrCorrupt, r.Type, len(body))
		}
		r.Addr = wire.Addr(binary.BigEndian.Uint32(body[0:4]))
		if !r.Addr.Valid() {
			return Record{}, 0, fmt.Errorf("%w: %v with invalid address", ErrCorrupt, r.Type)
		}
		r.Topic = string(body[4:])
	case RecAdvance:
		if len(body) != 0 {
			return Record{}, 0, fmt.Errorf("%w: advance body %d bytes", ErrCorrupt, len(body))
		}
	case RecFence, RecHeartbeat:
		if len(body) != 8 {
			return Record{}, 0, fmt.Errorf("%w: %v body %d bytes", ErrCorrupt, r.Type, len(body))
		}
		r.Gen = binary.BigEndian.Uint64(body)
	case RecCursorAck:
		if len(body) < 11 {
			return Record{}, 0, fmt.Errorf("%w: cursor-ack body %d bytes", ErrCorrupt, len(body))
		}
		subLen := int(body[8])
		if subLen == 0 || 9+subLen >= len(body) || len(body)-9-subLen > MaxTopicLen {
			return Record{}, 0, fmt.Errorf("%w: cursor-ack body layout", ErrCorrupt)
		}
		r.Ack = binary.BigEndian.Uint64(body[0:8])
		r.Sub = string(body[9 : 9+subLen])
		r.Topic = string(body[9+subLen:])
	default:
		return Record{}, 0, fmt.Errorf("%w: unknown type %d", ErrCorrupt, f.Type)
	}
	return r, size, nil
}

// recordOf translates a registry mutation into its durable record form
// (Seq is assigned by the store).
func recordOf(m nameservice.Mutation) (Record, bool) {
	switch m.Op {
	case nameservice.MutDeclare:
		return Record{Type: RecDeclare, Topic: m.Topic, Class: m.Class}, true
	case nameservice.MutSubscribe:
		return Record{Type: RecSubscribe, Topic: m.Topic, Addr: m.Addr}, true
	case nameservice.MutUnsubscribe:
		return Record{Type: RecUnsubscribe, Topic: m.Topic, Addr: m.Addr}, true
	}
	return Record{}, false
}

// applyRecord replays one record onto reg. The caller must have
// detached any observer first (replay must not re-journal).
//
// A fence record replays as the incarnation boundary it marked: it
// installs the fenced registry generation and bumps every topic's
// membership generation, exactly as the incarnation that wrote it did
// before serving. Because the bump is in the log, replay reconstructs
// per-topic generations exactly across any number of crash/restart
// cycles, and a fresh incarnation's post-recovery bump is always
// strictly above every generation any predecessor served.
func applyRecord(reg *nameservice.TopicRegistry, r *Record) error {
	switch r.Type {
	case RecDeclare:
		return reg.Declare(r.Topic, r.Class)
	case RecSubscribe, RecRenew:
		return reg.Subscribe(r.Topic, r.Addr)
	case RecUnsubscribe:
		reg.Unsubscribe(r.Topic, r.Addr)
		return nil
	case RecAdvance:
		reg.Advance()
		return nil
	case RecFence:
		reg.SetRegistryGen(r.Gen)
		reg.BumpTopicGens()
		return nil
	case RecHeartbeat, RecCursorAck:
		return nil
	}
	return fmt.Errorf("registrystore: cannot apply record type %v", r.Type)
}
