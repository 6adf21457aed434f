package registrystore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"flipc/internal/duralog"
	"flipc/internal/nameservice"
	"flipc/internal/recio"
	"flipc/internal/wire"
)

// snapName is the snapshot's file name inside a store directory,
// beside the journal's duralog segments and cursor checkpoint.
const snapName = "snapshot.dat"

// snapCursor is the journal cursor the snapshot holds: Retain drops the
// segments every cursor has passed — this one, and a standby's, which
// its durable subscription acknowledges in-band — as it does for any
// durable topic's subscribers.
const snapCursor = "registrystore/snapshot"

// The journal's segment size, and the segment count past which Compact
// forgets a lagging standby's cursor rather than keep every segment after
// it: the standby's next resume is then stranded and it resyncs once.
const (
	journalSegmentBytes = 64 << 10
	journalMaxSegments  = 16
)

// snapMagic marks a snapshot file ("FLPR").
const snapMagic = 0x464C5052

// snapVersion is the snapshot format version. Its per-topic
// durable-stream cursor section is always empty: cursors live in each
// durable topic's own log.
const snapVersion = 2

// Store persists one registry's state: a journal of framed records — a
// duralog.Log in the store's directory, whose record sequence is the
// registry's mutation sequence — plus a periodically compacted
// snapshot. The same log is the replication stream: the primary's Feed
// publishes it as a durable topic, and a standby journals each record
// it applies at the same sequence.
//
// Journal writes are ordered ahead of mutation acknowledgement (the
// registry's observer runs under its lock, before the mutating call
// returns), and every record that can move a membership generation is
// synced to stable storage before the journal call returns — so a
// recovered registry's generations exactly reconstruct what was
// served. Heartbeats are handed to the OS but not synced (they never
// move generations): they survive a crash of the process, not of the
// machine. Lease renewals are not journaled at all.
type Store struct {
	mu         sync.Mutex
	dir        string
	log        *duralog.Log
	snapSeq    uint64 // sequence covered by the snapshot file
	walRecords int    // records in the journal since the last compaction
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
// snapshot, then the journal's records beyond it, into reg,
// wholesale-replacing reg's state. A directory in an older layout is
// converted first (upgrade.go).
//
// Open recovers state only; it does not fence a new incarnation or
// attach the journal — that is role policy, owned by Manager (a
// primary fences and journals; a standby's state instead tracks the
// replication stream).
func Open(dir string, reg *nameservice.TopicRegistry, opt Options) (*Store, error) {
	s := &Store{dir: dir, nosync: opt.NoSync}
	var err error
	if s.log, err = duralog.Open(dir, duralog.Options{SegmentBytes: journalSegmentBytes, NoSync: opt.NoSync}); err != nil {
		return nil, fmt.Errorf("registrystore: %w", err)
	}
	if err = s.recover(reg); errors.Is(err, ErrCorrupt) || hasWAL(dir) {
		err = s.upgrade(reg)
	}
	if err != nil {
		s.log.Close()
		return nil, fmt.Errorf("registrystore: %w", err)
	}
	return s, nil
}

// recover loads the snapshot into reg and replays the journal's records
// beyond it, reading today's layout only: a snapshot or record in any
// other is ErrCorrupt, which sends Open to the converter.
func (s *Store) recover(reg *nameservice.TopicRegistry) error {
	state, snapSeq, err := readSnapshot(filepath.Join(s.dir, snapName))
	if err != nil {
		return err
	}
	reg.RestoreState(state)
	s.snapSeq = snapSeq
	err = s.log.Replay(snapSeq+1, func(seq uint64, _ uint8, b []byte) error {
		rec, n, err := DecodeRecord(b)
		if err != nil || n != len(b) {
			return fmt.Errorf("%w: journal record %d", ErrCorrupt, seq)
		}
		if err := applyRecord(reg, &rec); err != nil {
			return fmt.Errorf("replay %v: %w", rec.Type, err)
		}
		s.walRecords++
		return nil
	})
	if err == nil && s.log.Head() < snapSeq {
		// A resync's snapshot landed and the crash came before the
		// journal restarted behind it.
		err = s.log.Reset(snapSeq)
	}
	if err != nil {
		return err
	}
	return s.log.Ack(snapCursor, snapSeq)
}

// check makes a non-nil err the store's sticky error.
func (s *Store) check(err error) error {
	if err != nil {
		s.err = fmt.Errorf("registrystore: %w", err)
	}
	return s.err
}

// Journal appends rec to the journal at the log's next sequence, which
// it stamps into rec.Seq, and syncs it or hands it to the OS. A standby journals each record it applies, which then
// lands at the sequence the primary gave it. Fails after a sticky I/O
// error (surfaced in Health).
func (s *Store) Journal(rec *Record) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		return s.err
	}
	rec.Seq = s.log.Head() + 1
	framed, err := AppendRecord(s.enc[:0], rec)
	if err != nil {
		return s.check(err)
	}
	s.enc = framed
	if _, err := s.log.Append(ReplicationClass.Flags(), framed); err != nil {
		return s.check(err)
	}
	// A record that can move a membership generation must reach stable
	// storage before the mutation is acknowledged; a heartbeat cannot.
	sync := s.log.Sync
	if rec.Type == RecHeartbeat {
		sync = s.log.Flush
	}
	if err := sync(); err != nil {
		return s.check(err)
	}
	s.walRecords++
	return nil
}

// ResetTo installs a full-state snapshot at seq and restarts the
// journal empty at seq (standby resync). The snapshot supersedes all
// local history: a demoted or restarted ex-primary's journal may
// describe a divergent timeline whose records carry sequence numbers
// above the resync point, and retaining any of them would replay
// divergent state on top of the new primary's snapshot at the next
// restart.
func (s *Store) ResetTo(state nameservice.RegistryState, seq uint64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.snapshotLocked(state, seq); err != nil {
		return err
	}
	s.walRecords = 0
	if err := s.check(s.log.Reset(seq)); err != nil {
		return err
	}
	return s.check(s.log.Ack(snapCursor, seq))
}

// snapshotLocked writes a snapshot of state at seq. Caller holds s.mu.
func (s *Store) snapshotLocked(state nameservice.RegistryState, seq uint64) error {
	if s.err != nil {
		return s.err
	}
	if err := writeSnapshot(filepath.Join(s.dir, snapName), state, seq, s.nosync); err != nil {
		s.err = err
		return err
	}
	s.snapSeq = seq
	return nil
}

// Log returns the journal: the replication Feed's durable publisher is
// built over it.
func (s *Store) Log() *duralog.Log { return s.log }

// Seq returns the last sequence number journaled.
func (s *Store) Seq() uint64 { return s.log.Head() }

// WALRecords returns the records accumulated in the journal since the
// last compaction — the operator's journal-lag signal.
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

// Close closes the journal (syncing buffered heartbeats).
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.log.Close()
}

// Compact snapshots reg's current state and retires the journal
// segments every cursor — the snapshot's, and a standby's — has passed.
// If more than journalMaxSegments segments are left, the cursors behind
// the snapshot are forgotten and the segments below it go as well.
//
// Locking discipline: the registry export must happen outside s.mu
// (a registry mutation in flight holds the registry lock while calling
// Journal, which takes s.mu — exporting under s.mu would deadlock), so
// the snapshot may include mutations journaled after seqBefore was
// captured. Those records stay in the journal and will replay on top
// of the snapshot at recovery; replay of the registry's mutation
// records over a state that already reflects them is idempotent for
// membership and never moves a generation spuriously downward, so the
// overlap is harmless.
func (s *Store) Compact(reg *nameservice.TopicRegistry) error {
	seqBefore := s.Seq()
	state := reg.ExportState()

	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.snapshotLocked(state, seqBefore); err != nil {
		return err
	}
	s.walRecords = int(s.log.Head() - seqBefore)
	if err := s.check(s.log.Ack(snapCursor, seqBefore)); err != nil {
		return err
	}
	if _, err := s.log.Retain(); err != nil {
		return s.check(err)
	}
	h := s.log.Health()
	if h.Segments <= journalMaxSegments {
		return nil
	}
	for sub, c := range h.Cursors {
		if sub != snapCursor && c < seqBefore {
			if err := s.check(s.log.Forget(sub)); err != nil {
				return err
			}
		}
	}
	_, err := s.log.Retain()
	return s.check(err)
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
		b = append(b, 0, 0, 0, 0) // no cursors
	}
	binary.BigEndian.PutUint32(u32[:], wire.Checksum(b))
	b = append(b, u32[:]...)

	if err := recio.ReplaceFile(path, b, nosync); err != nil {
		return fmt.Errorf("registrystore: %w", err)
	}
	return nil
}

// readSnapshot loads a snapshot file. A missing file is an empty state;
// any other error is reported — recovery must not silently serve
// partial state.
func readSnapshot(path string) (nameservice.RegistryState, uint64, error) {
	b, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return nameservice.RegistryState{}, 0, nil
	}
	if err != nil {
		return nameservice.RegistryState{}, 0, err
	}
	return parseSnapshot(b)
}

// parseSnapshot decodes the snapshot layout writeSnapshot writes. Any
// other — bad magic, version, structure or checksum, or a cursor entry
// — is ErrCorrupt.
func parseSnapshot(b []byte) (nameservice.RegistryState, uint64, error) {
	var state nameservice.RegistryState
	if len(b) < 37 { // header + count + CRC
		return state, 0, fmt.Errorf("%w: snapshot %d bytes", ErrCorrupt, len(b))
	}
	body, crc := b[:len(b)-4], binary.BigEndian.Uint32(b[len(b)-4:])
	if wire.Checksum(body) != crc {
		return state, 0, fmt.Errorf("%w: snapshot checksum mismatch", ErrCorrupt)
	}
	if binary.BigEndian.Uint32(body[0:4]) != snapMagic || body[4] != snapVersion {
		return state, 0, fmt.Errorf("%w: snapshot magic/version", ErrCorrupt)
	}
	state.Gen = binary.BigEndian.Uint64(body[5:13])
	seq := binary.BigEndian.Uint64(body[13:21])
	state.Epoch = binary.BigEndian.Uint64(body[21:29])
	truncated := fmt.Errorf("%w: snapshot truncated", ErrCorrupt)
	off := 33
	for n := binary.BigEndian.Uint32(body[29:33]); n > 0; n-- {
		// nameLen | name | class | gen(4) | nsubs(4) | {addr(4) epoch(8)}
		// | ncursors(4), always 0
		if off >= len(body) || body[off] == 0 || off+int(body[off])+10 > len(body) {
			return state, 0, truncated
		}
		end := off + 1 + int(body[off])
		t := nameservice.TopicState{
			Name:  string(body[off+1 : end]),
			Class: body[end],
			Gen:   binary.BigEndian.Uint32(body[end+1:]),
		}
		subs := int(binary.BigEndian.Uint32(body[end+5:]))
		if off = end + 9; off+12*subs+4 > len(body) {
			return state, 0, truncated
		}
		for ; subs > 0; subs-- {
			t.Subs = append(t.Subs, nameservice.Subscription{
				Addr:  wire.Addr(binary.BigEndian.Uint32(body[off:])),
				Epoch: binary.BigEndian.Uint64(body[off+4:]),
			})
			off += 12
		}
		if binary.BigEndian.Uint32(body[off:]) != 0 {
			return state, 0, fmt.Errorf("%w: snapshot cursor entries", ErrCorrupt)
		}
		off += 4
		state.Topics = append(state.Topics, t)
	}
	return state, seq, nil
}
