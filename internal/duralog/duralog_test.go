package duralog

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

func appendN(t *testing.T, l *Log, from, to uint64) {
	t.Helper()
	for i := from; i <= to; i++ {
		seq, err := l.Append(0x02, []byte(fmt.Sprintf("msg-%04d", i)))
		if err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
		if seq != i {
			t.Fatalf("append assigned seq %d, want %d", seq, i)
		}
	}
}

func collect(t *testing.T, l *Log, from uint64) []uint64 {
	t.Helper()
	var seqs []uint64
	err := l.Replay(from, func(seq uint64, flags uint8, payload []byte) error {
		if string(payload) != fmt.Sprintf("msg-%04d", seq) {
			t.Fatalf("seq %d payload %q", seq, payload)
		}
		if flags != 0x02 {
			t.Fatalf("seq %d flags %#x", seq, flags)
		}
		seqs = append(seqs, seq)
		return nil
	})
	if err != nil {
		t.Fatalf("replay from %d: %v", from, err)
	}
	return seqs
}

func TestAppendReplayRoundTrip(t *testing.T) {
	l, err := Open(t.TempDir(), Options{NoSync: true, SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	appendN(t, l, 1, 50)
	seqs := collect(t, l, 17)
	if len(seqs) != 34 || seqs[0] != 17 || seqs[len(seqs)-1] != 50 {
		t.Fatalf("replay from 17: got %d seqs [%d..%d]", len(seqs), seqs[0], seqs[len(seqs)-1])
	}
	// The tiny segment size must have forced rotations; every segment
	// still replays in order.
	if h := l.Health(); h.Segments < 3 {
		t.Fatalf("segments = %d, want rotation to have happened", h.Segments)
	}
	all := collect(t, l, 0)
	if len(all) != 50 {
		t.Fatalf("full replay: %d seqs", len(all))
	}
}

func TestReopenRecoversHeadAndCursors(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{NoSync: true, SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 1, 30)
	if err := l.Ack("analytics", 12); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2, err := Open(dir, Options{NoSync: true, SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if l2.Head() != 30 {
		t.Fatalf("recovered head %d, want 30", l2.Head())
	}
	if cur, ok := l2.Cursor("analytics"); !ok || cur != 12 {
		t.Fatalf("recovered cursor %d (ok=%v), want 12", cur, ok)
	}
	// Appends continue the sequence.
	appendN(t, l2, 31, 35)
	seqs := collect(t, l2, 13)
	if len(seqs) != 23 || seqs[0] != 13 || seqs[len(seqs)-1] != 35 {
		t.Fatalf("post-reopen replay: %d seqs [%d..%d]", len(seqs), seqs[0], seqs[len(seqs)-1])
	}
}

// TestTornSegmentRecovery cuts the last segment mid-record (a crash
// mid-write) and verifies recovery truncates exactly at the durable
// prefix, like the registrystore WAL.
func TestTornSegmentRecovery(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{NoSync: true, SegmentBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 1, 10)
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	// Simulate the crash: no Close (no cursor checkpoint), tear the
	// tail of the only segment by 5 bytes — the last record is torn.
	segs, err := listSegments(dir)
	if err != nil || len(segs) != 1 {
		t.Fatalf("segments: %v %v", segs, err)
	}
	fi, err := os.Stat(segs[0].path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(segs[0].path, fi.Size()-5); err != nil {
		t.Fatal(err)
	}

	l2, err := Open(dir, Options{NoSync: true})
	if err != nil {
		t.Fatalf("open torn log: %v", err)
	}
	defer l2.Close()
	if l2.Head() != 9 {
		t.Fatalf("recovered head %d, want 9 (torn record 10 dropped)", l2.Head())
	}
	seqs := collect(t, l2, 1)
	if len(seqs) != 9 {
		t.Fatalf("replay after torn recovery: %d seqs", len(seqs))
	}
	// The sequence continues where durable history ended: record 10 was
	// never acknowledged durable, so its number is reused.
	appendN(t, l2, 10, 12)
	if got := collect(t, l2, 1); len(got) != 12 {
		t.Fatalf("replay after re-append: %d seqs", len(got))
	}
}

// TestCorruptMidSegmentDropsTail flips a byte mid-segment: recovery
// keeps the prefix and drops everything after, including later
// segments.
func TestCorruptMidSegmentDropsTail(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{NoSync: true, SegmentBytes: 200})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 1, 40)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Remove the cursor checkpoint so head is recovered from segments
	// alone, then scribble into the second segment.
	os.Remove(filepath.Join(dir, cursorsName))
	segs, err := listSegments(dir)
	if err != nil || len(segs) < 3 {
		t.Fatalf("want >=3 segments, got %d (%v)", len(segs), err)
	}
	buf, err := os.ReadFile(segs[1].path)
	if err != nil {
		t.Fatal(err)
	}
	buf[4] ^= 0xFF
	if err := os.WriteFile(segs[1].path, buf, 0o644); err != nil {
		t.Fatal(err)
	}

	l2, err := Open(dir, Options{NoSync: true, SegmentBytes: 200})
	if err != nil {
		t.Fatalf("open corrupt log: %v", err)
	}
	defer l2.Close()
	if l2.Head() != segs[1].first-1 {
		t.Fatalf("recovered head %d, want %d", l2.Head(), segs[1].first-1)
	}
	for _, s := range segs[2:] {
		if _, err := os.Stat(s.path); !errors.Is(err, os.ErrNotExist) {
			t.Fatalf("segment %s not dropped after corruption point", s.path)
		}
	}
}

// TestAckIdempotency: duplicate, reordered, and over-head acks all
// merge to the same cursor.
func TestAckIdempotency(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 1, 20)
	for _, seq := range []uint64{5, 17, 9, 17, 3, 999} { // 999 clamps to head
		if err := l.Ack("app", seq); err != nil {
			t.Fatal(err)
		}
	}
	if cur, _ := l.Cursor("app"); cur != 20 {
		t.Fatalf("cursor %d, want 20 (999 clamped to head)", cur)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// The in-segment ack records replay idempotently too.
	l2, err := Open(dir, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if cur, _ := l2.Cursor("app"); cur != 20 {
		t.Fatalf("recovered cursor %d, want 20", cur)
	}
}

func TestRetention(t *testing.T) {
	l, err := Open(t.TempDir(), Options{NoSync: true, SegmentBytes: 200})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	appendN(t, l, 1, 60)
	h := l.Health()
	if h.Segments < 4 {
		t.Fatalf("want >=4 segments, got %d", h.Segments)
	}
	// No cursors: nothing voluntarily deletable.
	if n, err := l.Retain(); err != nil || n != 0 {
		t.Fatalf("retain with no cursors removed %d (%v)", n, err)
	}
	if err := l.Ack("app", 30); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Retain(); err != nil {
		t.Fatal(err)
	}
	h = l.Health()
	if h.First == 1 {
		t.Fatal("retention removed nothing despite acked prefix")
	}
	if h.First > 31 {
		t.Fatalf("retention deleted past the cursor: first=%d", h.First)
	}
	if h.Breached || h.RetentionBreaches != 0 {
		t.Fatalf("voluntary retention flagged a breach: %+v", h)
	}
	// Replay from the cursor still works.
	var n int
	if err := l.Replay(31, func(seq uint64, _ uint8, _ []byte) error { n++; return nil }); err != nil {
		t.Fatal(err)
	}
	if n != 30 {
		t.Fatalf("replay after retention: %d payloads, want 30", n)
	}
}

func TestRetentionBreach(t *testing.T) {
	l, err := Open(t.TempDir(), Options{NoSync: true, SegmentBytes: 200, MaxSegments: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	appendN(t, l, 1, 60)
	if err := l.Ack("slow", 1); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Retain(); err != nil {
		t.Fatal(err)
	}
	h := l.Health()
	if h.Segments > 2 {
		t.Fatalf("MaxSegments not enforced: %d segments", h.Segments)
	}
	if !h.Breached || h.RetentionBreaches == 0 {
		t.Fatalf("forced deletion past a live cursor not flagged: %+v", h)
	}
}

func TestReplayStop(t *testing.T) {
	l, err := Open(t.TempDir(), Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	appendN(t, l, 1, 10)
	n := 0
	err = l.Replay(1, func(seq uint64, _ uint8, _ []byte) error {
		n++
		if seq == 4 {
			return ErrStop
		}
		return nil
	})
	if err != nil || n != 4 {
		t.Fatalf("ErrStop: err=%v n=%d", err, n)
	}
	boom := errors.New("boom")
	if err := l.Replay(1, func(uint64, uint8, []byte) error { return boom }); !errors.Is(err, boom) {
		t.Fatalf("callback error not propagated: %v", err)
	}
}

func TestScanDir(t *testing.T) {
	root := t.TempDir()
	for _, topic := range []string{"orders", "tele/metry"} {
		l, err := Open(TopicDir(root, topic), Options{NoSync: true})
		if err != nil {
			t.Fatal(err)
		}
		appendN(t, l, 1, 5)
		if err := l.Ack("app", 2); err != nil {
			t.Fatal(err)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
	}
	hs, err := ScanDir(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(hs) != 2 {
		t.Fatalf("scanned %d topics, want 2", len(hs))
	}
	for _, h := range hs {
		if h.Head != 5 || h.Cursors["app"] != 2 || h.MaxLag != 3 {
			t.Fatalf("topic %q health %+v", h.Topic, h)
		}
	}
	if hs[0].Topic != "orders" || hs[1].Topic != "tele/metry" {
		t.Fatalf("topics %q %q (escaping broken?)", hs[0].Topic, hs[1].Topic)
	}
	// Scanning must not have truncated or removed anything.
	l, err := Open(TopicDir(root, "orders"), Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if l.Head() != 5 {
		t.Fatalf("head after scan = %d", l.Head())
	}
}

func TestPayloadTooLarge(t *testing.T) {
	l, err := Open(t.TempDir(), Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if _, err := l.Append(0, make([]byte, MaxPayload+1)); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("oversize append: %v", err)
	}
	if _, err := l.Append(0, make([]byte, MaxPayload)); err != nil {
		t.Fatalf("max-size append: %v", err)
	}
}

// TestZeroCursorSurvivesRecovery: a subscriber registered before it
// has acknowledged anything is a seq-0 cursor. It must survive both
// recovery paths (the checkpoint file and in-segment cursor records) —
// losing it would let Retain delete history the subscriber still
// needs, and hide the worst laggard from the health sweep.
func TestZeroCursorSurvivesRecovery(t *testing.T) {
	dir := TopicDir(t.TempDir(), "orders")

	// Registered on an empty log: only the checkpoint carries it.
	l, err := Open(dir, Options{NoSync: true, SegmentBytes: 256, MaxSegments: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Ack("stuck", 1); err != nil { // clamped to head 0
		t.Fatal(err)
	}
	appendN(t, l, 1, 40)
	if _, err := l.Retain(); err != nil {
		t.Fatal(err)
	}
	h := l.Health()
	if !h.Breached {
		t.Fatalf("forced retention past the zero cursor: health %+v", h)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Checkpoint path: reopen sees the cursor and the breach.
	l2, err := Open(dir, Options{NoSync: true, SegmentBytes: 256, MaxSegments: 2})
	if err != nil {
		t.Fatal(err)
	}
	if cur, ok := l2.Cursor("stuck"); !ok || cur != 0 {
		t.Fatalf("reopened cursor %d (ok=%v), want 0 registered", cur, ok)
	}
	if h := l2.Health(); !h.Breached || h.LaggingSub != "stuck" || h.MaxLag != 40 {
		t.Fatalf("reopened health %+v, want breached with stuck lagging 40", h)
	}

	// In-segment record path: register another zero cursor while a
	// segment is open, kill the checkpoint, and recover from records.
	appendN(t, l2, 41, 42)
	if err := l2.Ack("stuck2", 0); err != nil {
		t.Fatal(err)
	}
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(dir, "cursors.dat")); err != nil {
		t.Fatal(err)
	}
	l3, err := Open(dir, Options{NoSync: true, SegmentBytes: 256, MaxSegments: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer l3.Close()
	if cur, ok := l3.Cursor("stuck2"); !ok || cur != 0 {
		t.Fatalf("record-recovered cursor %d (ok=%v), want 0 registered", cur, ok)
	}

	// The read-only sweep reports the breach too.
	hs, err := ScanDir(filepath.Dir(dir))
	if err != nil {
		t.Fatal(err)
	}
	if len(hs) != 1 || !hs[0].Breached || hs[0].Cursors["stuck2"] != 0 {
		t.Fatalf("scan health %+v, want breached with stuck2 at 0", hs)
	}
}
