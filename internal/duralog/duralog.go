// Package duralog is the opt-in per-topic durable payload log behind
// FLIPC's replay cursors. The optimistic protocol never blocks a send
// and counts every loss; duralog adds the complementary guarantee for
// topics that opt in: every published payload is journaled off the hot
// path, and a subscriber that disconnected, was quarantine-evicted, or
// stalled past its credit window replays the range it lost from its
// acknowledged cursor instead of keeping only the count.
//
// Segments are recio.Files and the cursor checkpoint a
// recio.ReplaceFile, so the file discipline is internal/recio's; this
// package adds the policy over it:
//
//   - durability by record class: payload appends are group-committed
//     (Buffered, every syncEvery-th one Synced — a crash loses at most
//     the unsynced window: bounded, counted, and no worse than the
//     optimistic baseline), while cursor acks are never synced: a lost
//     ack re-merges from the next in-band acknowledgement, and cursors
//     only move forward;
//   - segmented retention: the log rotates fixed-size segments named
//     by their first payload sequence, and Retain deletes whole
//     segments once every registered cursor has passed them (with a
//     MaxSegments hard cap that force-drops the oldest segment and
//     counts the cursors it strands — a retention breach, surfaced in
//     Health and /healthz, never silent).
//
// Sequences are contiguous from 1 per topic. Cursors are keyed by a
// stable subscriber name (addresses change across rebinds and
// quarantine recoveries; the replay position must not) and are
// max-merged, so duplicate or reordered acks are idempotent.
package duralog

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net/url"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"

	"flipc/internal/recio"
	"flipc/internal/wire"
)

// Record types in a segment file.
const (
	// recPayload carries one published payload: Frame.Seq is the
	// payload sequence (contiguous from 1), body = flags(1) | payload.
	// The flags byte preserves the publish-time wire flags so replayed
	// frames re-send faithfully.
	recPayload = 1
	// recCursor journals a cursor ack in-line: Frame.Seq is the acked
	// payload sequence, body = subscriber name. Unsynced (see package
	// comment).
	recCursor = 2
)

// cursorsMagic marks a cursors.dat file ("FLDC").
const cursorsMagic = 0x464C4443

// cursorsVersion is the cursors.dat format version.
const cursorsVersion = 1

// cursorsName is the cursor checkpoint file inside a log directory.
const cursorsName = "cursors.dat"

// segPrefix and segSuffix frame segment file names; the middle is the
// first payload sequence in the segment, hex, zero-padded so the
// lexical order is the sequence order.
const (
	segPrefix = "seg-"
	segSuffix = ".log"
)

// MaxPayload is the largest payload one record can carry (recio body
// cap minus the flags byte).
const MaxPayload = 0xFFFF - 1 - 2 // recio body cap - flags byte - extension length

// ErrStop is returned by a Replay callback to end the replay early
// without error.
var ErrStop = errors.New("duralog: stop replay")

// ErrTooLarge reports a payload that cannot fit one record.
var ErrTooLarge = errors.New("duralog: payload too large")

// Options tunes a log.
type Options struct {
	// SegmentBytes is the rotation threshold (default 1 MiB).
	SegmentBytes int
	// NoSync disables fsync entirely (tests and benchmarks).
	NoSync bool
	// MaxSegments caps retained segments; 0 means unbounded. When the
	// cap forces out a segment some cursor still needs, the deletion is
	// counted as a retention breach, never silent.
	MaxSegments int
}

// syncEvery is the payload group-commit interval: the append of every
// sequence divisible by it is written Synced.
const syncEvery = 256

// idxEvery is the sparse-index stride: one (sequence, offset) entry for
// every sequence divisible by it. A Reader seeks to the nearest indexed
// record at or below its resume point instead of scanning the segment
// from the start — without it every heal round a few records behind the
// head would re-read and re-checksum the whole segment.
const idxEvery = 64

// idxEntry is one sparse-index point: the byte offset of a payload
// record's start within its segment.
type idxEntry struct {
	seq uint64
	off int64
}

// segment is one on-disk log segment.
type segment struct {
	first uint64 // first payload sequence stored (names the file)
	path  string
	index []idxEntry // sparse payload index, ascending by seq
	rd    *segFile   // its read side, made by the first Reader on it
}

// startOff returns the byte offset a Reader should start reading this
// segment from to see every payload record with sequence >= from: the
// nearest indexed record at or below from (0 when from predates the
// segment or no index entry qualifies).
func (s *segment) startOff(from uint64) int64 {
	off := int64(0)
	for _, e := range s.index {
		if e.seq > from {
			break
		}
		off = e.off
	}
	return off
}

// Log is one topic's durable payload log with its replay cursors.
// Safe for concurrent use.
type Log struct {
	mu  sync.Mutex
	dir string
	opt Options

	segs   []segment   // sorted by first; the last is the active segment
	active *recio.File // nil until the first append after open/rotation

	head    uint64 // last appended payload sequence (0 = none ever)
	cursors map[string]uint64

	breaches uint64 // forced retention deletions that stranded a cursor
	err      error  // sticky I/O error; surfaced in Health
	body     []byte // record-body staging (flags | payload, or a name)
	enc      []byte // frame staging

	open []*segFile // sealed segments' read descriptors, retired ones included
	bufs [][]byte   // free Reader buffers, at most freeBufs
}

// Health is a log's operator-facing state.
type Health struct {
	// Head is the last appended payload sequence.
	Head uint64 `json:"head"`
	// First is the first retained payload sequence.
	First uint64 `json:"first"`
	// Depth is the number of retained payloads (Head - First + 1).
	Depth uint64 `json:"depth"`
	// Segments is the number of on-disk segments.
	Segments int `json:"segments"`
	// Cursors maps subscriber name to acknowledged sequence.
	Cursors map[string]uint64 `json:"cursors,omitempty"`
	// MaxLag is Head minus the lowest cursor (0 with no cursors).
	MaxLag uint64 `json:"max_lag"`
	// LaggingSub names the subscriber at MaxLag.
	LaggingSub string `json:"lagging_sub,omitempty"`
	// Breached reports a cursor lagging past the retention horizon:
	// its next needed sequence was force-deleted, so a resume from it
	// starts at First with a counted gap.
	Breached bool `json:"breached"`
	// RetentionBreaches counts forced segment deletions that stranded
	// at least one cursor.
	RetentionBreaches uint64 `json:"retention_breaches"`
	// Err is the sticky I/O error's text, "" if none.
	Err string `json:"err,omitempty"`
}

// Degraded reports a log whose durability no longer holds: a cursor
// lagged past the retention horizon (its resume will start late with a
// counted gap), or the log can no longer journal.
func (h Health) Degraded() bool { return h.Breached || h.Err != "" }

// TopicDir maps a topic name to its log directory under root. Names
// are path-escaped so any registry-legal topic name is a legal
// directory.
func TopicDir(root, topic string) string {
	return filepath.Join(root, url.PathEscape(topic))
}

// Open opens (creating if necessary) the log in dir, recovering head,
// retained segments, and cursors (recoverLog, repairing).
func Open(dir string, opt Options) (*Log, error) {
	if opt.SegmentBytes <= 0 {
		opt.SegmentBytes = 1 << 20
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("duralog: %w", err)
	}
	return recoverLog(dir, opt, true)
}

// recoverLog rebuilds a log's state from dir: the cursor checkpoint,
// then every segment's intact records max-merged on top. The first torn,
// corrupt or empty segment ends the incarnation. With repair (Open) its
// tail is truncated and every later segment deleted; without (ScanDir)
// nothing on disk is touched and the result is what Open would recover.
func recoverLog(dir string, opt Options, repair bool) (*Log, error) {
	l := &Log{dir: dir, opt: opt, cursors: make(map[string]uint64)}
	var err error
	if l.head, err = readCursors(filepath.Join(dir, cursorsName), l.cursors); err != nil {
		return nil, err
	}
	segs, err := listSegments(dir)
	if err != nil {
		return nil, err
	}
	for i := range segs {
		intact, torn, err := recio.ScanFile(segs[i].path, repair, l.recoverSegment(&segs[i]))
		if err != nil {
			return nil, fmt.Errorf("duralog: %w", err)
		}
		if intact > 0 {
			l.segs = append(l.segs, segs[i])
		}
		if torn > 0 || intact == 0 {
			// Everything not kept was written after the failure point
			// (or is empty, and holds nothing to keep).
			for _, s := range segs[len(l.segs):] {
				if repair {
					os.Remove(s.path)
				}
			}
			break
		}
	}
	// Cursors never exceed head (acks are clamped on the way in; a
	// stale checkpoint cannot resurrect one above the recovered head).
	for s, c := range l.cursors {
		l.cursors[s] = min(c, l.head)
	}
	return l, nil
}

// recoverSegment is the scan that folds segment s's records into the
// recovered state and rebuilds its sparse payload index.
func (l *Log) recoverSegment(s *segment) func([]byte) (int, error) {
	var off int64
	perFrame := func(f recio.Frame, size int) error {
		rec := off
		off += int64(size)
		switch f.Type {
		case recPayload:
			if len(f.Payload) < 1 {
				return fmt.Errorf("%w: payload record %d bytes", recio.ErrCorrupt, len(f.Payload))
			}
			l.head = max(l.head, f.Seq)
			if f.Seq%idxEvery == 0 {
				s.index = append(s.index, idxEntry{seq: f.Seq, off: rec})
			}
		case recCursor:
			sub := string(f.Payload)
			if sub == "" {
				break
			}
			// Insert-if-absent (see readCursors): seq 0 still
			// registers the subscriber for retention and health.
			if cur, ok := l.cursors[sub]; !ok || f.Seq > cur {
				l.cursors[sub] = f.Seq
			}
		}
		return nil
	}
	return func(b []byte) (int, error) { return recio.Scan(b, perFrame) }
}

// listSegments returns dir's segments sorted by first sequence.
func listSegments(dir string) ([]segment, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("duralog: %w", err)
	}
	var segs []segment
	for _, e := range entries {
		name := e.Name()
		if !strings.HasPrefix(name, segPrefix) || !strings.HasSuffix(name, segSuffix) {
			continue
		}
		first, err := strconv.ParseUint(name[len(segPrefix):len(name)-len(segSuffix)], 16, 64)
		if err != nil {
			continue
		}
		segs = append(segs, segment{first: first, path: filepath.Join(dir, name)})
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].first < segs[j].first })
	return segs, nil
}

func segName(first uint64) string {
	return fmt.Sprintf("%s%016x%s", segPrefix, first, segSuffix)
}

// Append journals one payload with its publish-time wire flags,
// returning the assigned sequence.
func (l *Log) Append(flags uint8, payload []byte) (uint64, error) {
	if len(payload) > MaxPayload {
		return 0, fmt.Errorf("%w: %d bytes", ErrTooLarge, len(payload))
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.err != nil {
		return 0, l.err
	}
	seq := l.head + 1
	l.body = append(append(l.body[:0], flags), payload...)
	// Rotate first if the active segment is full (or absent): every
	// segment starts with the payload record it is named after.
	if l.active == nil || l.active.Size() >= int64(l.opt.SegmentBytes) {
		if err := l.rotateLocked(seq); err != nil {
			return 0, err
		}
	}
	if seq%idxEvery == 0 {
		s := &l.segs[len(l.segs)-1]
		s.index = append(s.index, idxEntry{seq: seq, off: l.active.Size()})
	}
	class := recio.Buffered
	if seq%syncEvery == 0 {
		class = recio.Synced
	}
	if err := l.writeLocked(recPayload, seq, class); err != nil {
		return 0, err
	}
	l.head = seq
	return seq, nil
}

// Ack advances sub's cursor to seq (max-merged, clamped to head) and
// journals the advance unsynced. Idempotent: duplicate and reordered
// acks are no-ops.
func (l *Log) Ack(sub string, seq uint64) error {
	if sub == "" || len(sub) > 255 {
		return fmt.Errorf("duralog: bad subscriber name length %d", len(sub))
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.err != nil {
		return l.err
	}
	seq = min(seq, l.head)
	if cur, ok := l.cursors[sub]; ok && cur >= seq {
		return nil
	}
	l.cursors[sub] = seq
	// Cursor records ride the current segment only when one is open:
	// an ack on an empty log has nothing to recover from anyway, and
	// the checkpoint file carries it across Close.
	if l.active == nil {
		return nil
	}
	l.body = append(l.body[:0], sub...)
	return l.writeLocked(recCursor, seq, recio.Buffered)
}

// check makes a non-nil err the log's sticky error.
func (l *Log) check(err error) error {
	if err != nil {
		l.err = fmt.Errorf("duralog: %w", err)
	}
	return l.err
}

// writeLocked frames l.body as one record into the reusable frame
// buffer and appends it to the active segment. Caller holds l.mu and
// has ensured a segment is open.
func (l *Log) writeLocked(typ uint8, seq uint64, class recio.Durability) error {
	var err error
	l.enc, err = recio.Append(l.enc[:0], &recio.Frame{Type: typ, Seq: seq, Payload: l.body})
	if err != nil {
		return err
	}
	return l.check(l.active.Append(l.enc, class))
}

// rotateLocked seals the active segment (Close syncs: rotation is a
// durability boundary) and opens a new one named first. Caller holds
// l.mu.
func (l *Log) rotateLocked(first uint64) error {
	if err := l.sealLocked(); err != nil {
		return err
	}
	path := filepath.Join(l.dir, segName(first))
	f, err := recio.OpenFile(path, l.opt.NoSync)
	if err != nil {
		return l.check(err)
	}
	l.active = f
	l.segs = append(l.segs, segment{first: first, path: path})
	return nil
}

// sealLocked syncs and closes the active segment, if any. Caller holds
// l.mu.
func (l *Log) sealLocked() error {
	if l.active == nil {
		return nil
	}
	err := l.active.Close()
	l.active = nil
	return l.check(err)
}

// Sync forces a group commit (flush + fsync) immediately.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.err != nil || l.active == nil {
		return l.err
	}
	return l.check(l.active.Sync())
}

// Flush hands every buffered record to the OS without an fsync: what
// it wrote survives a crash of the process, not of the machine.
func (l *Log) Flush() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.err != nil || l.active == nil {
		return l.err
	}
	return l.check(l.active.Flush())
}

// Forget drops sub's cursor, so it no longer holds retention back, and
// checkpoints the cursors without it. A later Ack registers sub again,
// and so does the next Open if a retained segment still holds one of
// its acks.
func (l *Log) Forget(sub string) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.err != nil {
		return l.err
	}
	if _, ok := l.cursors[sub]; !ok {
		return nil
	}
	delete(l.cursors, sub)
	return l.writeCursorsLocked()
}

// Cursor returns sub's acknowledged sequence; ok reports whether sub
// has ever acked.
func (l *Log) Cursor(sub string) (uint64, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	seq, ok := l.cursors[sub]
	return seq, ok
}

// Head returns the last appended payload sequence.
func (l *Log) Head() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.head
}

// First returns the first retained payload sequence.
func (l *Log) First() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.firstLocked()
}

// firstLocked is First with l.mu held: the oldest segment's first
// sequence, or head+1 when nothing is retained.
func (l *Log) firstLocked() uint64 {
	if len(l.segs) > 0 {
		return l.segs[0].first
	}
	return l.head + 1
}

// Replay streams retained payloads with sequence >= from, in order,
// to fn. Returning ErrStop from fn ends the replay without error; any
// other error aborts and is returned. The caller sees every append that
// returned before the replay reached the head.
func (l *Log) Replay(from uint64, fn func(seq uint64, flags uint8, payload []byte) error) error {
	r := l.NewReader(from)
	defer r.Close()
	for {
		seq, flags, payload, err := r.Next()
		if err == nil {
			err = fn(seq, flags, payload)
		}
		if err == io.EOF || errors.Is(err, ErrStop) {
			return nil
		}
		if err != nil {
			return err
		}
	}
}

// Retain applies the retention policy: whole segments every registered
// cursor has fully acknowledged are deleted, and if MaxSegments is set,
// oldest segments beyond the cap are force-deleted even when a cursor
// still needs them (counted as retention breaches). The active segment
// is never deleted. Returns the number of segments removed.
func (l *Log) Retain() (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.err != nil {
		return 0, l.err
	}
	// The lowest next-needed sequence across cursors gates voluntary
	// deletion. With no cursors nothing is voluntarily deletable: a
	// durable topic with no acked subscriber yet must keep everything
	// (MaxSegments still bounds the disk).
	hasCursor, minNeeded := len(l.cursors) > 0, ^uint64(0)
	for _, c := range l.cursors {
		minNeeded = min(minNeeded, c+1)
	}
	removed := 0
	for len(l.segs) > 1 {
		next := l.segs[1].first // first seq the next segment holds
		forced := l.opt.MaxSegments > 0 && len(l.segs) > l.opt.MaxSegments
		if !(hasCursor && next <= minNeeded) && !forced {
			break
		}
		if forced && (!hasCursor || next > minNeeded) {
			l.breaches++
		}
		if err := l.writeCursorsLocked(); err != nil {
			return removed, err
		}
		if err := l.dropOldestLocked(); err != nil {
			return removed, err
		}
		removed++
	}
	return removed, nil
}

// dropOldestLocked deletes the oldest segment. Readers still on it keep
// it readable through one descriptor until the last of them lets go.
// Caller holds l.mu.
func (l *Log) dropOldestLocked() error {
	if f := l.segs[0].rd; f != nil {
		if f.retired = true; f.refs == 0 {
			l.closeSeg(f)
		} else if err := l.openSeg(f); err != nil {
			return l.check(err)
		}
	}
	if err := l.check(os.Remove(l.segs[0].path)); err != nil {
		return err
	}
	l.segs = l.segs[1:]
	return nil
}

// Reset empties the log and restarts it at head: every segment is
// deleted, cursors are clamped to head, and the checkpoint carries head
// across a restart, so the next Append is head+1. A replica installing a
// snapshot taken at head uses it to discard a history the snapshot
// supersedes, whatever sequences that history reached.
func (l *Log) Reset(head uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.err != nil {
		return l.err
	}
	if err := l.sealLocked(); err != nil {
		return err
	}
	for len(l.segs) > 0 {
		if err := l.dropOldestLocked(); err != nil {
			return err
		}
	}
	l.head = head
	for s, c := range l.cursors {
		l.cursors[s] = min(c, head)
	}
	return l.writeCursorsLocked()
}

// Health returns the log's operator-facing state.
func (l *Log) Health() Health {
	l.mu.Lock()
	defer l.mu.Unlock()
	h := Health{
		Head:              l.head,
		First:             l.firstLocked(),
		Segments:          len(l.segs),
		Cursors:           make(map[string]uint64, len(l.cursors)),
		RetentionBreaches: l.breaches,
	}
	if l.err != nil {
		h.Err = l.err.Error()
	}
	if l.head+1 > h.First {
		h.Depth = l.head + 1 - h.First
	}
	for s, c := range l.cursors {
		h.Cursors[s] = c
		if lag := l.head - c; lag >= h.MaxLag && (h.LaggingSub == "" || lag > h.MaxLag || s < h.LaggingSub) {
			h.MaxLag = lag
			h.LaggingSub = s
		}
		if c+1 < h.First {
			h.Breached = true
		}
	}
	return h
}

// Close seals the active segment, checkpoints the cursors, and closes
// the log and every read descriptor, retired segments' included.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	for len(l.open) > 0 {
		l.closeSeg(l.open[0])
	}
	err := l.sealLocked()
	if cerr := l.writeCursorsLocked(); err == nil {
		err = cerr
	}
	return err
}

// writeCursorsLocked checkpoints head and the cursor map. Retain calls
// it immediately before deleting a segment, when the checkpoint may be
// the only record of a seq-0 cursor — which is why it goes through
// recio.ReplaceFile and is synced before the rename. Caller holds l.mu.
func (l *Log) writeCursorsLocked() error {
	b := binary.BigEndian.AppendUint32(nil, cursorsMagic)
	b = binary.BigEndian.AppendUint64(append(b, cursorsVersion), l.head)
	b = binary.BigEndian.AppendUint32(b, uint32(len(l.cursors)))
	subs := make([]string, 0, len(l.cursors))
	for s := range l.cursors {
		subs = append(subs, s)
	}
	sort.Strings(subs)
	for _, s := range subs {
		b = binary.BigEndian.AppendUint64(append(append(b, byte(len(s))), s...), l.cursors[s])
	}
	b = binary.BigEndian.AppendUint32(b, wire.Checksum(b))
	return l.check(recio.ReplaceFile(filepath.Join(l.dir, cursorsName), b, l.opt.NoSync))
}

// readCursors loads a cursor checkpoint into cursors, returning the
// checkpointed head. A missing file is an empty checkpoint; a corrupt
// one is ignored the same way — the checkpoint is an optimization over
// the in-segment cursor records, which recovery max-merges on top.
func readCursors(path string, cursors map[string]uint64) (uint64, error) {
	b, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return 0, nil
	}
	if err != nil {
		return 0, fmt.Errorf("duralog: %w", err)
	}
	if len(b) < 21 {
		return 0, nil
	}
	body, crc := b[:len(b)-4], binary.BigEndian.Uint32(b[len(b)-4:])
	if wire.Checksum(body) != crc ||
		binary.BigEndian.Uint32(body[0:4]) != cursorsMagic || body[4] != cursorsVersion {
		return 0, nil
	}
	head := binary.BigEndian.Uint64(body[5:13])
	n := int(binary.BigEndian.Uint32(body[13:17]))
	for i, off := 0, 17; i < n; i++ {
		if off >= len(body) || body[off] == 0 || off+1+int(body[off])+8 > len(body) {
			return 0, nil
		}
		sub := string(body[off+1 : off+1+int(body[off])])
		seq := binary.BigEndian.Uint64(body[off+1+len(sub):])
		// Insert-if-absent, not just max-merge: a seq-0 cursor is a
		// registered subscriber that has acknowledged nothing yet, and
		// dropping it would let Retain delete the history it still
		// needs (and hide the worst laggard from the health sweep).
		if cur, ok := cursors[sub]; !ok || seq > cur {
			cursors[sub] = seq
		}
		off += 1 + len(sub) + 8
	}
	return head, nil
}

// TopicHealth is one topic's health as seen by ScanDir, in the form
// the "durable" health source shows it.
type TopicHealth struct {
	Topic string `json:"topic"`
	Health
}

// ScanDir reads every topic log under root without opening (and
// therefore without truncating) it — the daemon's read-only health
// sweep over a durable-log root. Torn tails are simply not counted.
func ScanDir(root string) ([]TopicHealth, error) {
	entries, err := os.ReadDir(root)
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("duralog: %w", err)
	}
	var out []TopicHealth
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		topic, err := url.PathUnescape(e.Name())
		if err != nil {
			topic = e.Name()
		}
		scan, err := recoverLog(filepath.Join(root, e.Name()), Options{}, false)
		if err != nil {
			return nil, err
		}
		out = append(out, TopicHealth{Topic: topic, Health: scan.Health()})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Topic < out[j].Topic })
	return out, nil
}
