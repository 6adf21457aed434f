package duralog

import (
	"errors"
	"fmt"
	"io"
	"os"
	"slices"
	"sort"

	"flipc/internal/recio"
)

// readerBufBytes is a Reader's buffer: one maximal frame, so whatever
// is unread in it after a slide always includes a whole record.
const readerBufBytes = recio.MaxFrameBytes

// freeBufs bounds the log's free list of Reader buffers: not a sync.Pool,
// which a collection empties, so that no resume after one allocates.
const freeBufs = 4

// segFile is the read side of one segment, shared by its Readers. While
// the segment is active they read through the log's own recio.File;
// once it is sealed, the first read opens one descriptor that all of
// them pread through. It stays open for the next resume, and closes at
// Log.Close, or once no Reader is on the segment and one read past its
// end or Retain retired it.
type segFile struct {
	*os.File
	path    string
	refs    int  // Readers positioned on the segment
	retired bool // unlinked by Retain: close at refs 0
}

// Reader is a resumable cursor over a log's payload records: a position
// (segment, offset) and a buffer lent by the log while it is positioned.
// The log owns the descriptors it reads through, so once warm, placing a
// Reader opens no file and allocates nothing. It reads each byte of the
// log once however many calls the read is spread over, crosses rotations,
// and follows the active tail — where a whole-suffix re-read per call
// touched every word again. A Reader belongs to one goroutine at a time;
// it takes the log's lock only to refill and to let go.
type Reader struct {
	l    *Log
	f    *segFile // the segment being read; nil until positioned
	seg  uint64   // that segment's first sequence
	off  int64    // file offset the next refill reads at
	buf  []byte   // borrowed from the log while positioned
	r, w int      // unread window buf[r:w]
	prev int      // where the record Next last returned starts in buf
	next uint64   // the sequence Next returns next (or the first retained above it)
}

// NewReader returns a Reader positioned at sequence from. It holds no
// segment or buffer until the first Next and none after Close.
func (l *Log) NewReader(from uint64) *Reader {
	return &Reader{l: l, next: from}
}

// Seek positions the reader at sequence from; a reader already there
// keeps its segment and what it has buffered.
func (r *Reader) Seek(from uint64) {
	if from != r.next {
		r.Close()
		r.next = from
	}
}

// Close lets go of the segment, gives the buffer back to the log and
// forgets what was buffered. The reader stays usable: the next Next
// repositions where it stopped.
func (r *Reader) Close() {
	if r.f != nil {
		r.l.mu.Lock()
		r.leaveLocked(false)
		r.l.mu.Unlock()
	}
}

// leaveLocked steps the reader off its segment, which it read to the
// end if past, and gives its buffer back. Caller holds l.mu.
func (r *Reader) leaveLocked(past bool) {
	f, l := r.f, r.l
	if len(l.bufs) < freeBufs {
		l.bufs = append(l.bufs, r.buf)
	}
	r.f, r.buf, r.r, r.w = nil, nil, 0, 0
	if f.refs--; f.refs == 0 && (past || f.retired) {
		l.closeSeg(f)
	}
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
// reads through the log's own file, whose ReadAt first flushes the
// group-commit buffer: the reader sees every append that returned.
// io.EOF means the reader is at the head.
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
			s := &l.segs[max(l.segAfter(r.next)-1, 0)]
			if s.rd == nil {
				s.rd = &segFile{path: s.path}
			}
			s.rd.refs++
			r.f, r.seg, r.off = s.rd, s.first, s.startOff(r.next)
			if n := len(l.bufs); n > 0 {
				r.buf, l.bufs = l.bufs[n-1], l.bufs[:n-1]
			} else {
				r.buf = make([]byte, readerBufBytes)
			}
		}
		r.w = copy(r.buf, r.buf[r.r:r.w])
		r.r = 0
		var n int
		var err error
		if r.seg == tail && l.active != nil {
			if n, err = l.active.ReadAt(r.buf[r.w:], r.off); l.active.Err() != nil {
				return l.check(err)
			}
		} else {
			if err := l.openSeg(r.f); err != nil {
				return fmt.Errorf("duralog: %w", err)
			}
			n, err = r.f.ReadAt(r.buf[r.w:], r.off)
		}
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
		r.leaveLocked(true)
	}
}

// openSeg gives f a read descriptor if it has none. Caller holds l.mu.
func (l *Log) openSeg(f *segFile) error {
	if f.File != nil {
		return nil
	}
	fd, err := os.Open(f.path)
	if err == nil {
		f.File = fd
		l.open = append(l.open, f)
	}
	return err
}

// closeSeg closes f's descriptor, if it has one. Caller holds l.mu.
func (l *Log) closeSeg(f *segFile) {
	if f.File != nil {
		f.File.Close()
		f.File = nil
		i := slices.Index(l.open, f)
		l.open = slices.Delete(l.open, i, i+1)
	}
}

// segAfter returns the index of the first segment that starts above seq
// (len(l.segs) if none does). Caller holds l.mu.
func (l *Log) segAfter(seq uint64) int {
	return sort.Search(len(l.segs), func(i int) bool { return l.segs[i].first > seq })
}
