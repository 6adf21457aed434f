package registrystore

// This file is the one place that knows the layouts registries wrote
// before today's: wal.log, the journal before it became a duralog; recio
// frames of version 0 (the body is the payload alone) or with an
// extension area; snapshot version 1 (no cursor sections) and version 2
// with cursor entries; and the record types retired when leases and
// cursors left the log, renew (3), advance (5) and cursor-ack (8).

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"flipc/internal/nameservice"
	"flipc/internal/recio"
	"flipc/internal/wire"
)

const walName = "wal.log"

// The retired record types.
const (
	recRenew     RecType = 3
	recAdvance   RecType = 5
	recCursorAck RecType = 8
)

// hasWAL reports whether dir still holds a pre-duralog journal.
func hasWAL(dir string) bool {
	_, err := os.Stat(filepath.Join(dir, walName))
	return err == nil
}

// upgrade recovers reg from s's directory in whatever layout it was
// written, as it was recovered then: the snapshot, wal.log's records
// beyond it up to the first torn or corrupt one, then the journal's; a
// renewal replays as a subscribe, an advance as a sweep, a cursor ack
// as nothing. ResetTo then installs the result — a snapshot at the
// converted head, the journal restarted empty there — and only after it
// does wal.log go: the old files stay whole until a snapshot that
// covers them has landed, so a crash at any step converts again to the
// same state.
func (s *Store) upgrade(reg *nameservice.TopicRegistry) error {
	path := filepath.Join(s.dir, snapName)
	state, snapSeq, err := readSnapshot(path)
	if errors.Is(err, ErrCorrupt) {
		var b []byte
		if b, err = os.ReadFile(path); err == nil {
			state, snapSeq, err = parseSnapshot(upgradeSnapshot(b))
		}
	}
	if err != nil {
		return err
	}
	reg.RestoreState(state)
	head := max(snapSeq, s.log.Head())
	// replay applies b's records beyond the snapshot up to the first one
	// that does not decode, and returns where they end.
	replay := func(b []byte) (off int, err error) {
		for off < len(b) {
			rec, n, ok := oldRecord(b[off:])
			if !ok {
				break
			}
			switch {
			case rec.Seq <= snapSeq, rec.Type == recCursorAck: // nothing to apply
			case rec.Type == recAdvance:
				reg.Advance()
			default:
				if err = applyRecord(reg, &rec); err != nil {
					return off, fmt.Errorf("replay %v: %w", rec.Type, err)
				}
			}
			head, off = max(head, rec.Seq), off+n
		}
		return off, nil
	}
	wal, err := os.ReadFile(filepath.Join(s.dir, walName))
	if errors.Is(err, os.ErrNotExist) {
		err = nil // and replay(nil) applies nothing
	}
	if err == nil {
		_, err = replay(wal)
	}
	if err == nil {
		err = s.log.Replay(snapSeq+1, func(seq uint64, _ uint8, b []byte) error {
			n, err := replay(b)
			if err == nil && n != len(b) {
				err = fmt.Errorf("%w: journal record %d", ErrCorrupt, seq)
			}
			return err
		})
	}
	if err == nil {
		err = s.ResetTo(reg.ExportState(), head)
	}
	if err != nil || !hasWAL(s.dir) {
		return err
	}
	return os.Remove(filepath.Join(s.dir, walName))
}

// oldRecord decodes the record at the front of b in either frame
// version, reporting false for a torn or corrupt one. A record of a
// live type, or a renewal as the subscribe it replays as, is re-framed
// in today's layout and decoded as today's are; an advance or a cursor
// ack comes back as its type alone.
func oldRecord(b []byte) (r Record, n int, ok bool) {
	if len(b) < recio.HeaderBytes {
		return r, 0, false
	}
	n = recio.HeaderBytes + int(binary.BigEndian.Uint16(b[4:6]))
	if len(b) < n || wire.Checksum(b[4:n]) != binary.BigEndian.Uint32(b[0:4]) || b[7] > 1 {
		return r, 0, false
	}
	body := b[recio.HeaderBytes:n]
	if b[7] == 1 { // skip the extension area
		if len(body) < 2 || len(body) < 2+int(binary.BigEndian.Uint16(body)) {
			return r, 0, false
		}
		body = body[2+int(binary.BigEndian.Uint16(body)):]
	}
	r = Record{Type: RecType(b[6]), Seq: binary.BigEndian.Uint64(b[8:16])}
	switch r.Type {
	case recAdvance:
		return r, n, len(body) == 0
	case recCursorAck: // acked seq(8) | subLen(1) | sub | topic
		return r, n, len(body) >= 11 && body[8] != 0 && 9+int(body[8]) < len(body) &&
			len(body)-9-int(body[8]) <= MaxTopicLen
	case recRenew:
		r.Type = RecSubscribe
	}
	f, err := recio.Append(nil, &recio.Frame{Type: uint8(r.Type), Seq: r.Seq, Payload: body})
	if err == nil {
		r, _, err = DecodeRecord(f)
	}
	return r, n, err == nil
}

// upgradeSnapshot rewrites a version-1 snapshot, or a version-2 one with
// cursor entries, into today's layout: version 2 with every cursor
// section empty. A layout it cannot walk comes back as it is, for
// parseSnapshot to refuse.
func upgradeSnapshot(b []byte) []byte {
	if len(b) < 37 || b[4] != 1 && b[4] != snapVersion {
		return b
	}
	body := b[:len(b)-4]
	if wire.Checksum(body) != binary.BigEndian.Uint32(b[len(body):]) {
		return b
	}
	out, off := append([]byte(nil), b[:33]...), 33
	out[4] = snapVersion
	for n := binary.BigEndian.Uint32(body[29:33]); n > 0; n-- {
		// nameLen | name | class | gen(4) | nsubs(4) | {addr(4) epoch(8)},
		// and in version 2 ncursors(4) | {subLen | sub | seq(8)}
		if off >= len(body) || off+int(body[off])+10 > len(body) {
			return b
		}
		end := off + int(body[off]) + 10
		end += 12 * int(binary.BigEndian.Uint32(body[end-4:end]))
		if end > len(body) || b[4] == snapVersion && end+4 > len(body) {
			return b
		}
		out, off = append(append(out, body[off:end]...), 0, 0, 0, 0), end
		if b[4] == snapVersion {
			cursors := binary.BigEndian.Uint32(body[off:])
			for off += 4; cursors > 0 && off < len(body) && body[off] != 0; cursors-- {
				off += 1 + int(body[off]) + 8
			}
			if cursors > 0 || off > len(body) {
				return b
			}
		}
	}
	return binary.BigEndian.AppendUint32(out, wire.Checksum(out))
}
