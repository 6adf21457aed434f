package duralog

import (
	"fmt"
	"io"
	"math/rand"
	"os"
	"sync"
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

// sealedLog journals n records and reopens the log, so that every
// segment is sealed: readers go through the shared descriptors.
func sealedLog(t *testing.T, n uint64, segBytes int) *Log {
	t.Helper()
	dir := t.TempDir()
	l, err := Open(dir, Options{NoSync: true, SegmentBytes: segBytes})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 1, n)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if l, err = Open(dir, Options{NoSync: true, SegmentBytes: segBytes}); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	return l
}

// TestReadersShareOneSealedDescriptor: readers on one sealed segment,
// at once or one resume after another, read through one descriptor
// that the first of them opened.
func TestReadersShareOneSealedDescriptor(t *testing.T) {
	l := sealedLog(t, 200, 1<<20)
	var rs []*Reader
	for from := uint64(1); from <= 160; from += 20 {
		r := l.NewReader(from)
		wantRange(t, fmt.Sprintf("reader at %d", from), drain(t, r, 5), from, from+4)
		rs = append(rs, r)
	}
	fd := rs[0].f.File
	for _, r := range rs {
		if r.f.File != fd {
			t.Fatal("two readers on one sealed segment hold different descriptors")
		}
	}
	if len(l.open) != 1 {
		t.Fatalf("%d read descriptors open, want 1", len(l.open))
	}
	for _, r := range rs {
		r.Close()
	}
	for k := uint64(1); k <= 50; k++ {
		r := l.NewReader(k)
		wantRange(t, "resume", drain(t, r, 1), k, k)
		r.Close()
		if f := l.segs[0].rd.File; f != fd {
			t.Fatalf("resume %d opened the segment again", k)
		}
	}
}

// TestRetiredSegmentClosesWithItsLastReader: Retain unlinks a segment
// two readers are on; both keep reading it, and its descriptor closes
// when the second lets go.
func TestRetiredSegmentClosesWithItsLastReader(t *testing.T) {
	l := sealedLog(t, 100, 300)
	a, b := l.NewReader(1), l.NewReader(2)
	wantRange(t, "a", drain(t, a, 1), 1, 1)
	wantRange(t, "b", drain(t, b, 1), 2, 2)
	held := a.f
	if err := l.Ack("only", 80); err != nil {
		t.Fatal(err)
	}
	if removed, err := l.Retain(); err != nil || removed < 2 {
		t.Fatalf("retain removed %d segments (err %v)", removed, err)
	}
	if _, err := os.Stat(held.path); !os.IsNotExist(err) {
		t.Fatalf("the segment under the readers was not retired: %v", err)
	}
	wantRange(t, "a after retirement", drain(t, a, 2), 2, 3)
	a.Close()
	if held.File == nil {
		t.Fatal("the descriptor closed while a reader was still on the segment")
	}
	wantRange(t, "b after retirement", drain(t, b, 1), 3, 3)
	b.Close()
	if held.File != nil || len(l.open) != 0 {
		t.Fatalf("%d descriptors open after the last reader let go, want 0", len(l.open))
	}
}

// TestLogCloseClosesEveryDescriptor: Log.Close closes the descriptors of
// live and retired segments alike, readers still on them or not.
func TestLogCloseClosesEveryDescriptor(t *testing.T) {
	l := sealedLog(t, 100, 300)
	var held []*segFile
	for _, from := range []uint64{1, 30, 60, 90} {
		r := l.NewReader(from)
		drain(t, r, 1)
		held = append(held, r.f)
		if from == 60 {
			r.Close() // a descriptor kept for the next resume
		}
	}
	if err := l.Ack("only", 50); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Retain(); err != nil || !held[0].retired {
		t.Fatalf("retain: %v; the first reader's segment not retired", err)
	}
	if len(l.open) != len(held) {
		t.Fatalf("%d descriptors before Close, want %d", len(l.open), len(held))
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	for i, f := range held {
		if f.File != nil {
			t.Fatalf("descriptor %d still open after Log.Close", i)
		}
	}
	if len(l.open) != 0 {
		t.Fatalf("%d descriptors after Log.Close", len(l.open))
	}
}

// TestResumeDoesNotAllocate: once warm, a resume — NewReader, Next,
// Close — allocates nothing, on a sealed segment and on the active one.
func TestResumeDoesNotAllocate(t *testing.T) {
	if israce.Enabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	sealed := sealedLog(t, 100, 1<<20)
	active, err := Open(t.TempDir(), Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer active.Close()
	appendN(t, active, 1, 100)
	for name, l := range map[string]*Log{"sealed": sealed, "active": active} {
		from := uint64(0)
		if n := testing.AllocsPerRun(200, func() {
			from = from%100 + 1
			r := l.NewReader(from)
			if seq, _, _, err := r.Next(); err != nil || seq != from {
				t.Fatalf("resume at %d: seq %d err %v", from, seq, err)
			}
			r.Close()
		}); n != 0 {
			t.Fatalf("%s segment: a resume allocates %.2f objects, want 0", name, n)
		}
	}
}

// TestConcurrentResumes: readers on several goroutines resume over one
// log while it grows, rotates and retires segments; each reads records
// in order, and once the log closes no descriptor is left open.
func TestConcurrentResumes(t *testing.T) {
	l, err := Open(t.TempDir(), Options{NoSync: true, SegmentBytes: 400})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 1, 50)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := 0; k < 100; k++ {
				r := l.NewReader(uint64(1 + (g*37+k*11)%50))
				prev := uint64(0)
				for i := 0; i < 20; i++ {
					seq, _, payload, err := r.Next()
					if err == io.EOF {
						break
					}
					if err != nil || seq <= prev || string(payload) != fmt.Sprintf("msg-%04d", seq) {
						t.Errorf("reader %d: seq %d after %d, payload %q, err %v", g, seq, prev, payload, err)
						r.Close()
						return
					}
					prev = seq
				}
				r.Close()
			}
		}(g)
	}
	for head := uint64(50); head < 250; head += 10 {
		appendN(t, l, head+1, head+10)
		if err := l.Ack("sub", head-40); err != nil {
			t.Fatal(err)
		}
		if _, err := l.Retain(); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if len(l.open) != 0 {
		t.Fatalf("%d descriptors open after Close", len(l.open))
	}
}
