package gateway

import (
	"encoding/binary"
	"sync/atomic"

	"flipc/internal/mem"
	"flipc/internal/waitfree"
)

// The delivery half of the mux on the paper's queue (DESIGN §13 maps
// every word to its one writer). A deliver frame is encoded once into a
// slot of the mux's frame slab; each client lane is a waitfree.Queue of
// slab indices in the client's own arena. The pump is its application:
// it releases slots and acquires those the client's writer moved past.
// The writer, PopOut's caller, is its engine. Pong and err replies ride
// a fourth queue whose application is the goroutine calling HandleFrame.

const (
	lineWords = 8          // a 64-byte host line: pump, reader and writer run on different cores
	replyLane = NumClasses // after the class lanes: PopOut walks down from it, replies first

	// Ledger words, a line per writer: the pump's, then the writer's.
	wDropped, wThrottled, wThrottling = 0, 1, 2
	wDelivered, wArmed, wQuit         = lineWords, lineWords + 1, lineWords + 2
)

// Client is one attached client session. The TCP front owns the
// socket; the Mux owns everything else. All methods are driven through
// the Mux.
type Client struct {
	id   uint64
	name string              // hello identity ("" until hello); guarded by Mux.mu
	key  string              // presence key; guarded by Mux.mu
	subs map[subKey]struct{} // this client's live subscriptions; guarded by Mux.mu

	app, eng mem.View // the queues' producers (pump, reader) and the writer
	q        [replyLane + 1]*waitfree.Queue
	w        int      // word offset of the ledger lines
	slab     *slab    // the mux's
	reply    [][]byte // reply frames by ring position
	replies  uint64   // reader-only: replies released

	overflow   [NumClasses]int // pump-only: consecutive overflow drops per lane
	throttling bool            // pump-only mirror of wThrottling
	armed      uint64          // writer-only mirror of wArmed

	closed atomic.Bool // set by Detach
	kick   chan struct{}
}

func newClient(limit int, s *slab) *Client {
	capacity := 2 // above limit: limit queued plus the one the writer holds
	for capacity <= limit {
		capacity <<= 1
	}
	qw := waitfree.QueueWords(capacity, lineWords, true)
	a, err := mem.New(mem.Config{ControlWords: (replyLane+1)*qw + 2*lineWords, LineWords: lineWords})
	c := &Client{subs: make(map[subKey]struct{}), app: mem.NewView(a, mem.ActorApp), eng: mem.NewView(a, mem.ActorEngine),
		w: (replyLane + 1) * qw, slab: s, reply: make([][]byte, capacity), kick: make(chan struct{}, 1)}
	for i := 0; err == nil && i <= replyLane; i++ {
		c.q[i], err = waitfree.NewQueue(a, i*qw, capacity, lineWords, true)
	}
	if err != nil {
		panic(err) // sized above: cannot fail
	}
	return c
}

// reclaim is a lane producer's acquire: it takes back every entry the
// writer has moved past — all processed but the newest, which its last
// PopOut may have returned — and reports how many are still queued.
func (c *Client) reclaim(lane int) (queued int) {
	queued, done := c.q[lane].Depths(c.app)
	for ; done > 1; done-- {
		if v, _ := c.q[lane].Acquire(c.app); lane != replyLane {
			c.slab.unref(uint32(v))
		}
	}
	return queued
}

// wake is the producers' half of the wake-up flag: the writer is kicked
// only when it armed the flag before blocking.
func (c *Client) wake() {
	if c.app.Load(c.w+wArmed) != 0 {
		c.signal()
	}
}

func (c *Client) signal() {
	select {
	case c.kick <- struct{}{}:
	default:
	}
}

// bump adds one to a single-writer ledger word.
func bump(v mem.View, w int) { v.Store(w, v.Load(w)+1) }

// Kick returns the channel the writer blocks on once PopOut came back
// empty: a token arrives when the client has frames to pop (or was
// closed). An empty PopOut arms the wake-up flag before its last look,
// and a token is sent only while the flag is armed.
func (c *Client) Kick() <-chan struct{} { return c.kick }

// Closed reports whether the client was detached.
func (c *Client) Closed() bool { return c.closed.Load() }

// Ledgers returns the client's delivery accounting: frames popped to
// the writer, dropped on overflow, and dropped while throttled.
func (c *Client) Ledgers() (delivered, dropped, throttled uint64) {
	return c.app.Load(c.w + wDelivered), c.app.Load(c.w + wDropped), c.app.Load(c.w + wThrottled)
}

// Queued returns the client's deliver frames not yet returned by PopOut.
func (c *Client) Queued() int {
	n := 0
	for lane := 0; lane < NumClasses; lane++ {
		queued, _ := c.q[lane].Depths(c.app)
		n += queued
	}
	return n
}

// Throttled reports whether the client is currently marked throttled.
func (c *Client) Throttled() bool { return c.app.Load(c.w+wThrottling) != 0 }

// PopOut pops the next encoded frame for the client's writer: replies
// first, then the class lanes from control down. The slice stays valid
// until this client's next PopOut — no slot is reclaimed before its
// writer has moved past it — so write or copy it before popping again.
// Only deliver frames feed the delivered ledger. After Detach PopOut
// returns false, and that call hands back everything the writer held.
func (c *Client) PopOut() ([]byte, bool) {
	if c.closed.Load() {
		c.eng.Store(c.w+wQuit, 1)
		return nil, false
	}
	b, ok := c.pop()
	if !ok && c.armed == 0 {
		c.arm(1) // then look again: a release before the flag went up sent no token
		b, ok = c.pop()
	}
	if ok {
		c.arm(0)
	}
	return b, ok
}

func (c *Client) pop() ([]byte, bool) {
	for lane := replyLane; lane >= 0; lane-- {
		v, ok := c.q[lane].Process(c.eng)
		switch {
		case !ok:
		case lane == replyLane:
			return c.reply[v], true
		default:
			bump(c.eng, c.w+wDelivered)
			return c.slab.frame(uint32(v)), true
		}
	}
	return nil, false
}

func (c *Client) arm(v uint64) {
	if c.armed != v {
		c.armed = v
		c.eng.Store(c.w+wArmed, v)
	}
}

// sendReply queues a pong or err frame on c's reply lane, whose one
// producer is the goroutine calling HandleFrame for c. A full lane drops
// the reply: protocol responses are outside the framing law.
func (c *Client) sendReply(f Frame, limit int) {
	if c.reclaim(replyLane) >= limit {
		return
	}
	pos := c.replies & uint64(len(c.reply)-1) // free: under limit queued plus one held
	if b, err := AppendFrame(c.reply[pos][:0], f); err == nil {
		c.reply[pos] = b
		c.q[replyLane].Release(c.app, pos)
		c.replies++
		c.wake()
	}
}

// slab is the mux's frame store: fixed slots of the largest deliver
// frame the domain can carry, on a free list that grows only when
// empty. The pump alone takes, fills, refcounts and frees slots; a
// writer reads one from its release into the writer's queue until the
// writer's next PopOut. The slot table is copy-on-write, so a writer
// indexing it never races the pump growing it.
type slab struct {
	size  int
	slots atomic.Pointer[[][]byte]
	refs  []uint32 // pump-only: queues holding each slot
	free  []uint32 // pump-only
}

// fill takes a free slot, with no refs, and encodes into it the deliver
// frame for an inbox envelope: the envelope behind op and class bytes.
func (s *slab) fill(env []byte, class uint8) uint32 {
	if len(s.free) == 0 {
		old := *s.slots.Load()
		tbl := append(make([][]byte, 0, max(2*len(old), 64)), old...)
		s.free = make([]uint32, 0, cap(tbl))
		for len(tbl) < cap(tbl) {
			s.free = append(s.free, uint32(len(tbl)))
			tbl = append(tbl, make([]byte, s.size))
		}
		s.refs = append(s.refs, make([]uint32, len(tbl)-len(old))...)
		s.slots.Store(&tbl)
	}
	i := s.free[len(s.free)-1]
	s.free = s.free[:len(s.free)-1]
	b := (*s.slots.Load())[i]
	binary.BigEndian.PutUint16(b, uint16(2+len(env)))
	b[2], b[3] = OpDeliver, class
	copy(b[4:], env)
	return i
}

// unref drops one queue's hold on slot i, freeing it with the last.
func (s *slab) unref(i uint32) {
	if s.refs[i]--; s.refs[i] == 0 {
		s.free = append(s.free, i)
	}
}

// frame returns the frame in slot i, as long as its length prefix says.
func (s *slab) frame(i uint32) []byte {
	b := (*s.slots.Load())[i]
	return b[:frameHeaderBytes+int(binary.BigEndian.Uint16(b))]
}
