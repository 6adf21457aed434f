package registrystore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"flipc/internal/nameservice"
	"flipc/internal/recio"
	"flipc/internal/wire"
)

// File names inside a store directory.
const (
	walName  = "wal.log"
	snapName = "snapshot.dat"
)

// snapMagic marks a snapshot file ("FLPR").
const snapMagic = 0x464C5052

// snapVersion is the snapshot format version written. Version 2 added
// the per-topic durable-stream cursor section; version 1 files (no
// cursor section) are still read, so a snapshot taken before the
// upgrade recovers cleanly.
const (
	snapVersion   = 2
	snapVersionV1 = 1
)

// Store persists one registry's state: a write-ahead record log (a
// recio.File, whose file discipline this is) plus a periodically
// compacted snapshot. Journal writes are ordered ahead of mutation
// acknowledgement (the registry's observer runs under its lock, before
// the mutating call returns), and every record that can move a
// membership generation is synced to stable storage before the journal
// call returns — so a recovered registry's generations exactly
// reconstruct what was served. Lease renewals are written unsynced
// (they never move generations, and recovery restamps leases anyway),
// keeping the steady-state renewal path cheap.
type Store struct {
	mu         sync.Mutex
	dir        string
	wal        *recio.File
	seq        uint64 // last sequence number assigned or applied
	snapSeq    uint64 // sequence covered by the snapshot file
	walRecords int    // records in the log since the last compaction
	nosync     bool
	err        error // sticky I/O error; surfaced in Health
	enc        []byte
}

// Options tunes a store.
type Options struct {
	// NoSync disables fsync on generation-moving records (tests and
	// benchmarks; a production registry should leave it off).
	NoSync bool
}

// Open opens (creating if necessary) the store in dir and replays its
// snapshot and the log's intact records into reg, wholesale-replacing
// reg's state. Records at or below the snapshot's sequence are skipped:
// they are already reflected in the restored state.
//
// Open recovers state only; it does not fence a new incarnation or
// attach the journal — that is role policy, owned by Manager (a
// primary fences and journals; a standby's state instead tracks the
// replication stream).
func Open(dir string, reg *nameservice.TopicRegistry, opt Options) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("registrystore: %w", err)
	}
	s := &Store{dir: dir, nosync: opt.NoSync}

	state, snapSeq, err := readSnapshot(filepath.Join(dir, snapName))
	if err != nil {
		return nil, err
	}
	reg.RestoreState(state)
	s.snapSeq, s.seq = snapSeq, snapSeq

	s.wal, err = recio.OpenFile(filepath.Join(dir, walName), opt.NoSync, func(b []byte) (int, error) {
		return s.replay(reg, b)
	})
	if err != nil {
		return nil, fmt.Errorf("registrystore: %w", err)
	}
	return s, nil
}

// replay applies every intact record of the log's bytes beyond the
// snapshot to reg and returns where they end: a torn tail (short) or
// corruption ends the incarnation — nothing beyond it was acknowledged
// as durable in order.
func (s *Store) replay(reg *nameservice.TopicRegistry, b []byte) (int, error) {
	off := 0
	for off < len(b) {
		rec, n, err := DecodeRecord(b[off:])
		if err != nil {
			break
		}
		if rec.Seq > s.snapSeq {
			if err := applyRecord(reg, &rec); err != nil {
				return off, fmt.Errorf("replay %v: %w", rec.Type, err)
			}
			if rec.Seq > s.seq {
				s.seq = rec.Seq
			}
			s.walRecords++
		}
		off += n
	}
	return off, nil
}

// class maps a record type to its durability class: a record that can
// move a membership generation must reach stable storage before the
// mutation is acknowledged. Cursor acks are unsynced like renewals: one
// lost to a crash is re-merged from the next in-band acknowledgement,
// and a stale cursor only means extra (idempotent) replay, never data
// loss.
func class(t RecType) recio.Durability {
	if t == RecRenew || t == RecHeartbeat || t == RecCursorAck {
		return recio.Written
	}
	return recio.Synced
}

// check makes a non-nil err the store's sticky error.
func (s *Store) check(err error) error {
	if err != nil {
		s.err = fmt.Errorf("registrystore: %w", err)
	}
	return s.err
}

// Journal assigns the next sequence number to rec, appends it to the
// log (synced per class), and returns the framed bytes — the exact
// encoding the replication stream forwards, so log and stream can never
// disagree. Returns nil after a sticky I/O error (surfaced in Health).
func (s *Store) Journal(rec *Record) []byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		return nil
	}
	s.seq++
	rec.Seq = s.seq
	// Newly journaled records carry the current frame version; replayed
	// and replicated bytes keep whatever version they were written with.
	rec.Ver = recio.V1
	framed, err := AppendRecord(s.enc[:0], rec)
	if err != nil {
		s.err = err
		return nil
	}
	s.enc = framed
	if s.appendLocked(rec.Type, framed) != nil {
		return nil
	}
	return append([]byte(nil), framed...)
}

// AppendRaw appends an already-framed record received from the
// replication stream (the standby's log path), preserving the
// primary's sequence number.
func (s *Store) AppendRaw(rec *Record, framed []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		return s.err
	}
	if err := s.appendLocked(rec.Type, framed); err != nil {
		return err
	}
	if rec.Seq > s.seq {
		s.seq = rec.Seq
	}
	return nil
}

// appendLocked appends one framed record to the log. Caller holds s.mu.
func (s *Store) appendLocked(t RecType, framed []byte) error {
	if err := s.check(s.wal.Append(framed, class(t))); err != nil {
		return err
	}
	s.walRecords++
	return nil
}

// ResetTo installs a full-state snapshot at seq and discards the
// entire local log (standby resync). The snapshot supersedes all local
// history: a demoted or restarted ex-primary's log may describe a
// divergent timeline whose records carry sequence numbers above the
// resync point, and retaining any of them would replay divergent state
// on top of the new primary's snapshot at the next restart.
func (s *Store) ResetTo(state nameservice.RegistryState, seq uint64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.installLocked(state, seq, ^uint64(0)); err != nil {
		return err
	}
	s.seq = seq
	return nil
}

// installLocked writes a snapshot of state at seq, then rewrites the log
// keeping only the records above keepAbove. Those were acknowledged as
// synced when journaled, which is why Replace syncs the rewrite before
// it supersedes the log that holds them. Caller holds s.mu.
func (s *Store) installLocked(state nameservice.RegistryState, seq, keepAbove uint64) error {
	if s.err != nil {
		return s.err
	}
	if err := writeSnapshot(filepath.Join(s.dir, snapName), state, seq, s.nosync); err != nil {
		s.err = err
		return err
	}
	buf := make([]byte, s.wal.Size())
	if _, err := s.wal.ReadAt(buf, 0); err != nil && len(buf) > 0 {
		return s.check(err)
	}
	var keep []byte
	kept, off := 0, 0
	recio.Scan(buf, func(f recio.Frame, size int) error {
		if f.Seq > keepAbove {
			keep = append(keep, buf[off:off+size]...)
			kept++
		}
		off += size
		return nil
	})
	if err := s.check(s.wal.Replace(keep)); err != nil {
		return err
	}
	s.snapSeq = seq
	s.walRecords = kept
	return nil
}

// Seq returns the last sequence number assigned or applied.
func (s *Store) Seq() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.seq
}

// WALRecords returns the records accumulated in the log since the last
// compaction — the operator's WAL-lag signal.
func (s *Store) WALRecords() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.walRecords
}

// SnapshotSeq returns the sequence number the snapshot file covers.
func (s *Store) SnapshotSeq() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.snapSeq
}

// Err returns the sticky I/O error, if any.
func (s *Store) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// Close closes the log (syncing buffered renewals).
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.wal.Close()
}

// Compact snapshots reg's current state and drops the log records the
// snapshot covers.
//
// Locking discipline: the registry export must happen outside s.mu
// (a registry mutation in flight holds the registry lock while calling
// Journal, which takes s.mu — exporting under s.mu would deadlock), so
// the snapshot may include mutations journaled after seqBefore was
// captured. Those records are retained in the log and will replay on
// top of the snapshot at recovery; replay of the registry's mutation
// records over a state that already reflects them is idempotent for
// membership and never moves a generation spuriously downward, so the
// overlap is harmless.
func (s *Store) Compact(reg *nameservice.TopicRegistry) error {
	s.mu.Lock()
	seqBefore := s.seq
	s.mu.Unlock()
	state := reg.ExportState()

	s.mu.Lock()
	defer s.mu.Unlock()
	return s.installLocked(state, seqBefore, seqBefore)
}

// writeSnapshot writes state atomically (recio.ReplaceFile), CRC-framed
// with the same checksum machinery as records and wire frames.
func writeSnapshot(path string, state nameservice.RegistryState, seq uint64, nosync bool) error {
	var b []byte
	var hdr [29]byte
	binary.BigEndian.PutUint32(hdr[0:4], snapMagic)
	hdr[4] = snapVersion
	binary.BigEndian.PutUint64(hdr[5:13], state.Gen)
	binary.BigEndian.PutUint64(hdr[13:21], seq)
	binary.BigEndian.PutUint64(hdr[21:29], state.Epoch)
	b = append(b, hdr[:]...)
	var u32 [4]byte
	binary.BigEndian.PutUint32(u32[:], uint32(len(state.Topics)))
	b = append(b, u32[:]...)
	for _, t := range state.Topics {
		if len(t.Name) == 0 || len(t.Name) > MaxTopicLen {
			return fmt.Errorf("registrystore: snapshot topic name %d bytes", len(t.Name))
		}
		b = append(b, byte(len(t.Name)))
		b = append(b, t.Name...)
		b = append(b, t.Class)
		binary.BigEndian.PutUint32(u32[:], t.Gen)
		b = append(b, u32[:]...)
		binary.BigEndian.PutUint32(u32[:], uint32(len(t.Subs)))
		b = append(b, u32[:]...)
		var sub [12]byte
		for _, s := range t.Subs {
			binary.BigEndian.PutUint32(sub[0:4], uint32(s.Addr))
			binary.BigEndian.PutUint64(sub[4:12], s.Epoch)
			b = append(b, sub[:]...)
		}
		binary.BigEndian.PutUint32(u32[:], uint32(len(t.Cursors)))
		b = append(b, u32[:]...)
		var seq8 [8]byte
		for _, c := range t.Cursors {
			if len(c.Sub) == 0 || len(c.Sub) > 255 {
				return fmt.Errorf("registrystore: snapshot cursor name %d bytes", len(c.Sub))
			}
			b = append(b, byte(len(c.Sub)))
			b = append(b, c.Sub...)
			binary.BigEndian.PutUint64(seq8[:], c.Seq)
			b = append(b, seq8[:]...)
		}
	}
	binary.BigEndian.PutUint32(u32[:], wire.Checksum(b))
	b = append(b, u32[:]...)

	if err := recio.ReplaceFile(path, b, nosync); err != nil {
		return fmt.Errorf("registrystore: %w", err)
	}
	return nil
}

// readSnapshot loads a snapshot file. A missing file is an empty state;
// a corrupt one (bad magic, version, structure, or checksum) is
// reported — recovery must not silently serve partial state.
func readSnapshot(path string) (nameservice.RegistryState, uint64, error) {
	var state nameservice.RegistryState
	b, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return state, 0, nil
	}
	if err != nil {
		return state, 0, fmt.Errorf("registrystore: %w", err)
	}
	if len(b) < 37 { // header + count + CRC
		return state, 0, fmt.Errorf("%w: snapshot %d bytes", ErrCorrupt, len(b))
	}
	body, crc := b[:len(b)-4], binary.BigEndian.Uint32(b[len(b)-4:])
	if wire.Checksum(body) != crc {
		return state, 0, fmt.Errorf("%w: snapshot checksum mismatch", ErrCorrupt)
	}
	if binary.BigEndian.Uint32(body[0:4]) != snapMagic ||
		(body[4] != snapVersion && body[4] != snapVersionV1) {
		return state, 0, fmt.Errorf("%w: snapshot magic/version", ErrCorrupt)
	}
	hasCursors := body[4] >= snapVersion
	state.Gen = binary.BigEndian.Uint64(body[5:13])
	seq := binary.BigEndian.Uint64(body[13:21])
	state.Epoch = binary.BigEndian.Uint64(body[21:29])
	n := int(binary.BigEndian.Uint32(body[29:33]))
	off := 33
	for i := 0; i < n; i++ {
		if off+1 > len(body) {
			return state, 0, fmt.Errorf("%w: snapshot truncated", ErrCorrupt)
		}
		nameLen := int(body[off])
		off++
		if nameLen == 0 || off+nameLen+9 > len(body) {
			return state, 0, fmt.Errorf("%w: snapshot truncated", ErrCorrupt)
		}
		t := nameservice.TopicState{Name: string(body[off : off+nameLen])}
		off += nameLen
		t.Class = body[off]
		t.Gen = binary.BigEndian.Uint32(body[off+1 : off+5])
		subs := int(binary.BigEndian.Uint32(body[off+5 : off+9]))
		off += 9
		if off+12*subs > len(body) {
			return state, 0, fmt.Errorf("%w: snapshot truncated", ErrCorrupt)
		}
		for j := 0; j < subs; j++ {
			t.Subs = append(t.Subs, nameservice.Subscription{
				Addr:  wire.Addr(binary.BigEndian.Uint32(body[off : off+4])),
				Epoch: binary.BigEndian.Uint64(body[off+4 : off+12]),
			})
			off += 12
		}
		if hasCursors {
			if off+4 > len(body) {
				return state, 0, fmt.Errorf("%w: snapshot truncated", ErrCorrupt)
			}
			cursors := int(binary.BigEndian.Uint32(body[off : off+4]))
			off += 4
			for j := 0; j < cursors; j++ {
				if off+1 > len(body) {
					return state, 0, fmt.Errorf("%w: snapshot truncated", ErrCorrupt)
				}
				subLen := int(body[off])
				off++
				if subLen == 0 || off+subLen+8 > len(body) {
					return state, 0, fmt.Errorf("%w: snapshot truncated", ErrCorrupt)
				}
				t.Cursors = append(t.Cursors, nameservice.Cursor{
					Sub: string(body[off : off+subLen]),
					Seq: binary.BigEndian.Uint64(body[off+subLen : off+subLen+8]),
				})
				off += subLen + 8
			}
		}
		state.Topics = append(state.Topics, t)
	}
	return state, seq, nil
}
