package duralog

import (
	"errors"
	"fmt"
	"io"
	"os"
	"sort"

	"flipc/internal/recio"
)

// readerBufBytes is a Reader's buffer: one maximal frame, so whatever
// is unread in it after a slide always includes a whole record.
const readerBufBytes = recio.MaxFrameBytes

// Reader is a resumable cursor over a log's payload records: an open
// descriptor on one segment, an offset, and one fixed buffer. It reads
// each byte of the log once however many calls the read is spread over,
// crosses rotations, and follows the active tail — where a whole-suffix
// re-read per call touched every word again. A Reader belongs to one
// goroutine at a time; it takes the log's lock only to refill.
type Reader struct {
	l    *Log
	f    *os.File // the segment being read; nil until positioned
	seg  uint64   // that segment's first sequence
	off  int64    // file offset the next refill reads at
	buf  []byte
	r, w int    // unread window buf[r:w]
	prev int    // where the record Next last returned starts in buf
	next uint64 // the sequence Next returns next (or the first retained above it)
}

// NewReader returns a Reader positioned at sequence from. It holds no
// descriptor until the first Next and none after Close.
func (l *Log) NewReader(from uint64) *Reader {
	return &Reader{l: l, next: from, buf: make([]byte, readerBufBytes)}
}

// Seek positions the reader at sequence from; a reader already there
// keeps its descriptor and what it has buffered.
func (r *Reader) Seek(from uint64) {
	if from != r.next {
		r.Close()
		r.next = from
	}
}

// Close releases the descriptor and forgets what was buffered. The
// reader stays usable: the next Next reopens where it stopped.
func (r *Reader) Close() {
	if r.f != nil {
		r.f.Close()
		r.f = nil
	}
	r.r, r.w = 0, 0
}

// Next returns the next retained payload record, or io.EOF once it has
// returned everything appended so far (a later call picks up later
// appends). If retention passed the reader's position first, the
// sequence returned is the first one retained. payload aliases the reader's
// buffer and is valid until the next call.
func (r *Reader) Next() (seq uint64, flags uint8, payload []byte, err error) {
	for {
		f, n, derr := recio.Decode(r.buf[r.r:r.w])
		if errors.Is(derr, recio.ErrShort) {
			if err := r.fill(); err != nil {
				return 0, 0, nil, err
			}
			continue
		}
		if derr != nil {
			return 0, 0, nil, fmt.Errorf("duralog: segment %016x: %w", r.seg, derr)
		}
		r.prev = r.r
		r.r += n
		if f.Type == recPayload && f.Seq >= r.next && len(f.Payload) > 0 {
			r.next = f.Seq + 1
			return f.Seq, f.Payload[0], f.Payload[1:], nil
		}
	}
}

// Unread steps back over the record Next just returned, so the next
// Next returns it again — for a consumer whose send of it was refused.
func (r *Reader) Unread() {
	r.r = r.prev
	r.next--
}

// fill reads more of the log behind the unread window, moving to the
// next segment when this one is exhausted and sealed. It runs under the
// log's lock, so it never races an append, and at the active tail it
// first flushes the group-commit buffer: the reader sees every append
// that returned. io.EOF means the reader is at the head.
func (r *Reader) fill() error {
	l := r.l
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.err != nil {
		return l.err
	}
	if len(l.segs) == 0 {
		return io.EOF
	}
	tail := l.segs[len(l.segs)-1].first
	for {
		if r.f == nil {
			// The segment holding r.next: the last one that starts at or
			// below it, or the oldest retained if retention got there first.
			i := l.segAfter(r.next) - 1
			if i < 0 {
				i = 0
			}
			s := &l.segs[i]
			f, err := os.Open(s.path)
			if err != nil {
				return fmt.Errorf("duralog: %w", err)
			}
			r.f, r.seg, r.off = f, s.first, s.startOff(r.next)
		}
		if r.seg == tail && l.active != nil {
			if err := l.check(l.active.Flush()); err != nil {
				return err
			}
		}
		r.w = copy(r.buf, r.buf[r.r:r.w])
		r.r = 0
		n, err := r.f.ReadAt(r.buf[r.w:], r.off)
		r.off += int64(n)
		r.w += n
		if n > 0 {
			return nil
		}
		if err != io.EOF {
			return fmt.Errorf("duralog: read segment: %w", err)
		}
		if r.seg == tail {
			return io.EOF
		}
		// Sealed and exhausted (it may also have been retired under us —
		// the descriptor kept it readable): on to the segment after it.
		if after := l.segs[l.segAfter(r.seg)].first; r.next < after {
			r.next = after
		}
		r.Close()
	}
}

// segAfter returns the index of the first segment that starts above seq
// (len(l.segs) if none does). Caller holds l.mu.
func (l *Log) segAfter(seq uint64) int {
	return sort.Search(len(l.segs), func(i int) bool { return l.segs[i].first > seq })
}
