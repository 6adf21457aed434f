package duralog

import (
	"fmt"
	"io"
	"math/rand"
	"os"
	"testing"

	"flipc/internal/israce"
)

// drain reads up to max records (all of them if max < 0), checking each
// against what appendN wrote.
func drain(t *testing.T, r *Reader, max int) []uint64 {
	t.Helper()
	var seqs []uint64
	for max < 0 || len(seqs) < max {
		seq, flags, payload, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("next after %v: %v", seqs, err)
		}
		if string(payload) != fmt.Sprintf("msg-%04d", seq) || flags != 0x02 {
			t.Fatalf("seq %d: flags %#x payload %q", seq, flags, payload)
		}
		seqs = append(seqs, seq)
	}
	return seqs
}

func wantRange(t *testing.T, what string, got []uint64, from, to uint64) {
	t.Helper()
	if uint64(len(got)) != to-from+1 {
		t.Fatalf("%s: %d records %v, want [%d..%d]", what, len(got), got, from, to)
	}
	for i, seq := range got {
		if seq != from+uint64(i) {
			t.Fatalf("%s: record %d is seq %d, want %d", what, i, seq, from+uint64(i))
		}
	}
}

// TestReaderExactlyOnceAcrossPumps spreads one read of a rotating,
// still-growing log (payloads interleaved with cursor records) over
// arbitrarily small pumps from several start points: every sequence at
// or above the start arrives exactly once, in order.
func TestReaderExactlyOnceAcrossPumps(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	const total = 400
	for _, from := range []uint64{0, 1, 63, 64, 65, 200, total, total + 5} {
		l, err := Open(t.TempDir(), Options{NoSync: true, SegmentBytes: 700})
		if err != nil {
			t.Fatal(err)
		}
		r := l.NewReader(from)
		var got []uint64
		for head := uint64(0); head < total; {
			n := uint64(rng.Intn(40))
			if head+n > total {
				n = total - head
			}
			appendN(t, l, head+1, head+n)
			head += n
			if err := l.Ack("sub", head/2); err != nil {
				t.Fatal(err)
			}
			got = append(got, drain(t, r, rng.Intn(7))...)
		}
		got = append(got, drain(t, r, -1)...)
		if from > total {
			if len(got) != 0 {
				t.Fatalf("from %d (past the head): got %v", from, got)
			}
		} else {
			lo := from
			if lo == 0 {
				lo = 1
			}
			wantRange(t, fmt.Sprintf("from %d", from), got, lo, total)
		}
		if h := l.Health(); h.Segments < 4 {
			t.Fatalf("only %d segments: the read never crossed a rotation", h.Segments)
		}
		r.Close()
		l.Close()
	}
}

// TestReaderFollowsTailWithoutReopening: a reader at the head returns
// io.EOF, then later appends — still in the group-commit buffer —
// through the descriptor it already holds; a rotation moves it on.
func TestReaderFollowsTailWithoutReopening(t *testing.T) {
	l, err := Open(t.TempDir(), Options{NoSync: true, SegmentBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	appendN(t, l, 1, 10)
	r := l.NewReader(1)
	defer r.Close()
	wantRange(t, "backlog", drain(t, r, -1), 1, 10)
	held := r.f
	for i := uint64(11); i <= 30; i++ {
		appendN(t, l, i, i)
		wantRange(t, "tail", drain(t, r, -1), i, i)
	}
	if r.f != held {
		t.Fatal("following the tail reopened the segment")
	}
	l.mu.Lock()
	l.opt.SegmentBytes = 1 // the next append rotates
	l.mu.Unlock()
	appendN(t, l, 31, 33)
	wantRange(t, "across the rotation", drain(t, r, -1), 31, 33)
	if r.f == held {
		t.Fatal("reader never left the sealed segment")
	}
}

// TestReaderRefusedRecordComesBack: Unread puts back exactly the record
// just returned, including the first of a segment and one read across a
// Seek.
func TestReaderRefusedRecordComesBack(t *testing.T) {
	l, err := Open(t.TempDir(), Options{NoSync: true, SegmentBytes: 300})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	appendN(t, l, 1, 60)
	r := l.NewReader(1)
	defer r.Close()
	for want := uint64(1); want <= 60; want++ {
		for refusals := int(want % 3); refusals >= 0; refusals-- {
			seq, _, payload, err := r.Next()
			if err != nil || seq != want || string(payload) != fmt.Sprintf("msg-%04d", want) {
				t.Fatalf("want seq %d: got %d %q err %v", want, seq, payload, err)
			}
			if refusals > 0 {
				r.Unread()
			}
		}
	}
	if _, _, _, err := r.Next(); err != io.EOF {
		t.Fatalf("at the head: %v, want io.EOF", err)
	}
	r.Seek(17)
	wantRange(t, "after Seek", drain(t, r, 3), 17, 19)
}

// TestReaderAndRetention: a reader keeps reading a segment Retain
// unlinked under it to its end, and one whose position was retired
// before it got there reports the first retained sequence instead.
func TestReaderAndRetention(t *testing.T) {
	l, err := Open(t.TempDir(), Options{NoSync: true, SegmentBytes: 300})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	appendN(t, l, 1, 100)
	mid := l.NewReader(1)
	defer mid.Close()
	wantRange(t, "before retention", drain(t, mid, 3), 1, 3)
	late := l.NewReader(2) // positioned, nothing opened yet
	defer late.Close()

	if err := l.Ack("only", 80); err != nil {
		t.Fatal(err)
	}
	removed, err := l.Retain()
	if err != nil || removed < 3 {
		t.Fatalf("retain removed %d segments (err %v); the test needs several gone", removed, err)
	}
	first := l.First()
	if _, err := os.Stat(mid.f.Name()); !os.IsNotExist(err) {
		t.Fatalf("the segment under the open reader was not retired: %v", err)
	}

	got := drain(t, mid, -1)
	// Its own segment to the end, then straight to the first retained.
	cut := 0
	for cut < len(got) && got[cut] < first {
		cut++
	}
	if cut == 0 || got[0] != 4 {
		t.Fatalf("open reader lost its unlinked segment: got %v", got)
	}
	wantRange(t, "unlinked segment", got[:cut], 4, 3+uint64(cut))
	wantRange(t, "retained suffix", got[cut:], first, 100)

	wantRange(t, "retired position", drain(t, late, -1), first, 100)
}

func TestAppendAndAckDoNotAllocate(t *testing.T) {
	if israce.Enabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	l, err := Open(t.TempDir(), Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	payload := make([]byte, 64)
	appendN(t, l, 1, 1) // opens the segment
	ack := uint64(0)
	if n := testing.AllocsPerRun(2000, func() {
		if _, err := l.Append(0x02, payload); err != nil {
			t.Fatal(err)
		}
		ack++
		if err := l.Ack("node1/sub", ack); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("Append+Ack allocate %.2f objects per call, want 0", n)
	}
}
