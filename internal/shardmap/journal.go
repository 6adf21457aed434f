package shardmap

import (
	"encoding/binary"
	"fmt"
	"sync"

	"flipc/internal/recio"
)

// The shard map's replicated-object journal: every mutation is one
// recio v1 frame whose extension area carries the 8-byte post-mutation
// shard epoch. The epoch rides the extension — not the payload — so
// the payload layout is exactly what a pre-sharding reader expects and
// skipping the extension (which recio v1 readers do structurally, and
// the mixed-version test proves) loses nothing but the epoch
// fast-path; a replayer without it still reconstructs the epoch by
// counting mutations. That is what lets a split or merge roll out
// across mixed-version nodes.

// Journal record types (the recio type namespace of this package).
const (
	// RecAdd's payload is one Entry: a shard joined the ring.
	RecAdd = 1
	// RecRemove's payload is one Entry (weight/addr as of removal): a
	// shard left the ring (merge).
	RecRemove = 2
	// RecAddr's payload is one Entry carrying the new endpoint hint.
	RecAddr = 3
	// RecSnap's payload is a full Map.Encode snapshot (compaction,
	// bootstrap); replay resets to it.
	RecSnap = 4
)

// epochExtBytes is the v1 extension carried by every journal record:
// the post-mutation shard epoch.
const epochExtBytes = 8

// Record is one decoded shard-map journal record.
type Record struct {
	Type  uint8
	Seq   uint64
	Epoch uint64 // from the v1 extension; 0 on a v0 frame
	Entry Entry  // RecAdd / RecRemove / RecAddr
	Snap  []byte // RecSnap: the Map.Encode payload (aliases input on decode)
}

// AppendRecord encodes r as a recio v1 frame (shard epoch in the
// extension area) and appends it to dst.
func AppendRecord(dst []byte, r *Record) ([]byte, error) {
	var ext [epochExtBytes]byte
	binary.BigEndian.PutUint64(ext[:], r.Epoch)
	f := recio.Frame{Type: r.Type, Ver: recio.V1, Seq: r.Seq, Ext: ext[:]}
	switch r.Type {
	case RecAdd, RecRemove, RecAddr:
		f.Payload = appendEntry(nil, r.Entry)
	case RecSnap:
		f.Payload = r.Snap
	default:
		return dst, fmt.Errorf("shardmap: cannot encode record type %d", r.Type)
	}
	return recio.Append(dst, &f)
}

// DecodeRecord parses one journal record from the front of b,
// returning the record and bytes consumed. A v0 frame (or a v1 frame
// whose extension is too short for an epoch) decodes with Epoch 0 —
// the pre-extension reader's view.
func DecodeRecord(b []byte) (Record, int, error) {
	f, n, err := recio.Decode(b)
	if err != nil {
		return Record{}, 0, err
	}
	r := Record{Type: f.Type, Seq: f.Seq}
	if len(f.Ext) >= epochExtBytes {
		r.Epoch = binary.BigEndian.Uint64(f.Ext[:epochExtBytes])
	}
	switch f.Type {
	case RecAdd, RecRemove, RecAddr:
		if len(f.Payload) != entryBytes {
			return Record{}, 0, fmt.Errorf("%w: shardmap entry record %d bytes", recio.ErrCorrupt, len(f.Payload))
		}
		r.Entry = decodeEntry(f.Payload)
	case RecSnap:
		r.Snap = f.Payload
	default:
		return Record{}, 0, fmt.Errorf("%w: unknown shardmap record type %d", recio.ErrCorrupt, f.Type)
	}
	return r, n, nil
}

// Replay folds the intact prefix of a journal byte stream into a map,
// returning the map, the last sequence applied, and the bytes
// consumed (a torn or corrupt tail ends the replay, like a WAL).
// Record epochs from extensions are authoritative when present; a
// stream of extension-less (v0-read) records still reconstructs the
// same map with epochs counted per mutation.
func Replay(b []byte) (m *Map, seq uint64, consumed int) {
	m = New()
	for consumed < len(b) {
		r, n, err := DecodeRecord(b[consumed:])
		if err != nil {
			return m, seq, consumed
		}
		if err := apply(m, &r); err != nil {
			return m, seq, consumed
		}
		seq = r.Seq
		consumed += n
	}
	return m, seq, consumed
}

// apply folds one record into m. The record's extension epoch, when
// carried, overrides the counted epoch — replicas converge on the
// writer's epoch even if their replay started mid-stream.
func apply(m *Map, r *Record) error {
	switch r.Type {
	case RecAdd:
		if err := m.Add(r.Entry); err != nil {
			return err
		}
	case RecRemove:
		if err := m.Remove(r.Entry.ID); err != nil {
			return err
		}
	case RecAddr:
		if err := m.SetAddr(r.Entry.ID, r.Entry.Addr); err != nil {
			return err
		}
	case RecSnap:
		snap, err := DecodeMap(r.Snap)
		if err != nil {
			return err
		}
		*m = *snap
	default:
		return fmt.Errorf("shardmap: unknown record type %d", r.Type)
	}
	if r.Epoch != 0 {
		m.epoch = r.Epoch
	}
	return nil
}

// Journal is the durable form of the map: a recio.File replayed at
// open (torn tail truncated: an unacknowledged mutation never
// happened), with every mutation journaled Synced before it is visible.
// It is the authoritative copy a registry deployment shares — flipcd
// loads it at boot and the shard-map remote op distributes it to
// clients.
type Journal struct {
	mu  sync.Mutex
	f   *recio.File
	m   *Map
	seq uint64
	enc []byte
}

// JournalOptions tunes a journal.
type JournalOptions struct {
	// NoSync disables fsync after each record (tests, simulations).
	NoSync bool
}

// OpenJournal opens (creating if necessary) the journal at path and
// replays it.
func OpenJournal(path string, opt JournalOptions) (*Journal, error) {
	j := &Journal{}
	var err error
	j.f, err = recio.OpenFile(path, opt.NoSync, func(b []byte) (n int, _ error) {
		j.m, j.seq, n = Replay(b)
		return n, nil
	})
	if err != nil {
		return nil, fmt.Errorf("shardmap: %w", err)
	}
	return j, nil
}

// Map returns a copy of the current map.
func (j *Journal) Map() *Map {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.m.Clone()
}

// Seq returns the last journaled sequence number.
func (j *Journal) Seq() uint64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.seq
}

// Err returns the journal's sticky I/O error, if any: after one failed
// write or sync every mutation is refused with it.
func (j *Journal) Err() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.f.Err()
}

// Add journals and applies a shard addition.
func (j *Journal) Add(e Entry) error { return j.mutate(RecAdd, e) }

// Remove journals and applies a shard removal.
func (j *Journal) Remove(id uint32) error { return j.mutate(RecRemove, Entry{ID: id}) }

// SetAddr journals and applies an endpoint-hint update.
func (j *Journal) SetAddr(id uint32, addr uint32) error {
	return j.mutate(RecAddr, Entry{ID: id, Addr: addr})
}

// mutate applies one mutation to a scratch copy, journals the record
// durably, then installs the copy — the map never reflects a mutation
// that failed to journal.
func (j *Journal) mutate(typ uint8, e Entry) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	next := j.m.Clone()
	if typ == RecRemove {
		if old, ok := j.m.Entry(e.ID); ok {
			e = old // journal the entry as of removal
		}
	}
	r := Record{Type: typ, Seq: j.seq + 1, Entry: e}
	if err := apply(next, &Record{Type: typ, Entry: e}); err != nil {
		return err
	}
	r.Epoch = next.Epoch()
	var err error
	j.enc, err = AppendRecord(j.enc[:0], &r)
	if err != nil {
		return err
	}
	if err := j.f.Append(j.enc, recio.Synced); err != nil {
		return fmt.Errorf("shardmap: journal: %w", err)
	}
	j.seq++
	j.m = next
	return nil
}

// Close closes the journal file.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.f.Close()
}
