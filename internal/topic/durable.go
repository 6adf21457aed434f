package topic

// Durable topic streams: the replay plane that lets a subscriber
// survive disconnect, quarantine eviction, and registry failover
// without data loss, built on internal/duralog's per-topic payload
// log and per-subscriber replay cursors.
//
// The plane is a parallel tap off the Publisher — the hot fanout path
// is untouched except for the journal append and an 8-byte sequence
// prefix on durable payloads:
//
//  1. A durable Publisher (PublisherConfig.Log set) appends every
//     published payload to the topic's duralog before fanning out.
//     Each live frame carries its log sequence in an 8-byte big-endian
//     prefix, so receivers can order, dedup, and detect gaps without
//     any side channel.
//  2. A durable Subscriber owns a stable name (its cursor identity —
//     addresses change across Rebind and quarantine recovery, names
//     don't). On the publisher's hello it answers with a resume
//     request carrying its cursor: the last sequence it has fully
//     consumed, or UseStoredCursor to ask for the cursor the log
//     remembers for its name.
//  3. The Publisher answers the resume with a cursor grant — the
//     resolved cursor the replay starts above — and drains the replay
//     (every logged payload past it) through a dedicated Bulk-priority
//     outbox, so catch-up traffic rides under live Control/Normal
//     fanout instead of ahead of it. Replayed frames carry the replay
//     wire flag. While a subscriber catches up, live fanout to it is
//     suppressed and counted in the Deferred ledger (the journaled
//     frame is inside its catch-up range; a live copy would only race
//     the seam).
//  4. The subscriber locks its next-expected sequence on the grant
//     (or on an empty-range done marker) — never on a data frame,
//     whose sequence proves nothing about frames lost in front of it
//     — and from then on accepts each sequence exactly once:
//     duplicates are dropped and counted, a gap triggers a fresh
//     resume from the seam. When the replay reaches the log head —
//     checked under the same publisher lock every append takes, so
//     the handoff point is exact — the publisher sends a done marker
//     and live fanout resumes.
//  5. Cursors are acknowledged in-band on the Renew cadence (tiny
//     control frames to every known publisher, max-merged into the
//     log) and registered with the directory (AckCursor),
//     so a registry failover carries them to the new primary.
//
// Loss accounting stays conservative and never silent: frames the
// retention horizon has passed before a cursor caught up are counted
// in the publisher's ReplayStranded ledger; frames discarded at the
// subscriber before its seam locked are counted in SeamDrops (they
// are covered by the replay the resume triggers — deferral, not
// loss); duplicate and out-of-order discards have their own counters.
// For a quiesced durable topic with every cursor at head, the
// conservation law is exact:
//
//	published == delivered_live + replayed + stranded
//
// per subscriber, with stranded zero unless retention was breached.

import (
	"encoding/binary"
	"fmt"
	"io"
	"sync/atomic"

	"flipc/internal/core"
	"flipc/internal/duralog"
	"flipc/internal/msglib"
	"flipc/internal/wire"
)

// replayFlag is the wire-flag bit marking a replayed durable frame
// (bit 3 — between the priority field and FlagCtl, reserved by this
// package like ctlFlag). Replay frames travel at Bulk priority with
// this bit set; the subscriber's seam logic keys on it, and it is the
// only flag bit PublishFlags masks that applications still see on
// delivery (a consumer can tell replayed history from live traffic).
const replayFlag uint8 = 1 << 3

// ReplayFlag is the exported name for the replay wire-flag bit: the
// one masked flag applications still see on delivery, letting a
// consumer tell replayed history from live traffic.
const ReplayFlag = replayFlag

// UseStoredCursor in a resume request asks the publisher to resume
// from the cursor its log remembers for the subscriber's name — the
// restart path, where the subscriber's own position died with it. A
// name the log has never seen is pinned at the current head: a new
// subscriber starts live; history from before it joined is not
// replayed.
const UseStoredCursor = ^uint64(0)

// Durable control-frame codec. These ride the same topic-control
// plane as flowctl's credit frames (ctlFlag set, swallowed before the
// application) and are dispatched by their magic byte, which shares
// no values with flowctl's 0xC4/0xC7.
const (
	resumeMagic = 0xD5 // subscriber → publisher: resume my stream
	ackMagic    = 0xD6 // subscriber → publisher: cursor acknowledgment
	doneMagic   = 0xD7 // publisher → subscriber: replay drained to head
	grantMagic  = 0xD8 // publisher → subscriber: resolved cursor, lock here
	durVersion  = 1    // codec version; other versions are ignored

	// resume/ack: magic(1) ver(1) from(4) seq(8) nameLen(1) name(n).
	durCtlFixedBytes = 15
	// done: magic(1) ver(1) start(8) head(8).
	doneFrameBytes = 18
	// grant: magic(1) ver(1) cursor(8).
	grantFrameBytes = 10
	// durCtlFrameMax bounds an encode buffer (name ≤ 255 bytes).
	durCtlFrameMax = durCtlFixedBytes + 255
)

func encodeDurCtl(p []byte, magic uint8, from core.Addr, seq uint64, name string) int {
	p[0] = magic
	p[1] = durVersion
	binary.BigEndian.PutUint32(p[2:6], uint32(from))
	binary.BigEndian.PutUint64(p[6:14], seq)
	p[14] = uint8(len(name))
	copy(p[durCtlFixedBytes:], name)
	return durCtlFixedBytes + len(name)
}

func decodeDurCtl(p []byte, magic uint8) (from core.Addr, seq uint64, name string, ok bool) {
	if len(p) < durCtlFixedBytes || p[0] != magic || p[1] != durVersion {
		return 0, 0, "", false
	}
	n := int(p[14])
	if n == 0 || len(p) != durCtlFixedBytes+n {
		return 0, 0, "", false
	}
	from = core.Addr(binary.BigEndian.Uint32(p[2:6]))
	seq = binary.BigEndian.Uint64(p[6:14])
	return from, seq, string(p[durCtlFixedBytes:]), true
}

// encodeResume builds a resume request: from is the subscriber's data
// inbox (the replay target), cursor its last consumed sequence (or
// UseStoredCursor), name its stable cursor identity.
func encodeResume(p []byte, from core.Addr, cursor uint64, name string) int {
	return encodeDurCtl(p, resumeMagic, from, cursor, name)
}

func decodeResume(p []byte) (from core.Addr, cursor uint64, name string, ok bool) {
	return decodeDurCtl(p, resumeMagic)
}

// encodeAck builds a cursor acknowledgment: every sequence ≤ seq has
// been consumed by name. Acks are cumulative and max-merged, so a
// lost frame is subsumed by the next one.
func encodeAck(p []byte, from core.Addr, seq uint64, name string) int {
	return encodeDurCtl(p, ackMagic, from, seq, name)
}

func decodeAck(p []byte) (from core.Addr, seq uint64, name string, ok bool) {
	return decodeDurCtl(p, ackMagic)
}

// encodeDone builds the replay-complete marker: the replay round
// started at sequence start and the log head was head when it
// drained. start > head means the range was empty (nothing to
// replay) — the subscriber locks straight onto the live stream.
func encodeDone(p []byte, start, head uint64) int {
	p[0] = doneMagic
	p[1] = durVersion
	binary.BigEndian.PutUint64(p[2:10], start)
	binary.BigEndian.PutUint64(p[10:18], head)
	return doneFrameBytes
}

func decodeDone(p []byte) (start, head uint64, ok bool) {
	if len(p) != doneFrameBytes || p[0] != doneMagic || p[1] != durVersion {
		return 0, 0, false
	}
	return binary.BigEndian.Uint64(p[2:10]), binary.BigEndian.Uint64(p[10:18]), true
}

// encodeGrant builds the publisher's answer to a resume request: the
// resolved cursor the replay round starts above. The subscriber locks
// its seam at cursor+1 — and only on a grant (or an empty-range done),
// never on a data frame, whose sequence proves nothing about what was
// lost in front of it.
func encodeGrant(p []byte, cursor uint64) int {
	p[0] = grantMagic
	p[1] = durVersion
	binary.BigEndian.PutUint64(p[2:10], cursor)
	return grantFrameBytes
}

func decodeGrant(p []byte) (cursor uint64, ok bool) {
	if len(p) != grantFrameBytes || p[0] != grantMagic || p[1] != durVersion {
		return 0, false
	}
	return binary.BigEndian.Uint64(p[2:10]), true
}

// ---------------------------------------------------------------------
// Publisher half: the replay engine.

// replayBurst bounds how many replay frames one publish (or one
// PumpReplay default) drains, so catch-up I/O is amortized across the
// live cadence instead of stalling it.
const replayBurst = 32

// hotReplayMax bounds a replay round that may ride the live outbox
// instead of the Bulk-priority replay channel. A short round repairing
// an already-locked seam (a backpressure deferral, a lost tail) is
// latency-critical — the subscriber's whole stream waits on it — and
// sending it on the live outbox keeps it FIFO with the live frames
// around it, so the seam never observes the Bulk/Normal priority
// reorder at the handoff. Long rounds (reconnect, blackout catch-up)
// stay on the Bulk channel so history drains under live traffic, not
// ahead of it.
const hotReplayMax = 64

// replayOutFor returns the outbox a subscriber's current replay round
// rides: the live outbox for a hot (short, post-lock) round, the
// Bulk-priority replay outbox otherwise. A round never switches
// channels mid-flight — the flag is chosen when the round opens.
func (p *Publisher) replayOutFor(sr *subReplay) *msglib.Outbox {
	if sr.hot {
		return p.out
	}
	return p.replayOut
}

// subReplay is the publisher's per-subscriber replay state, keyed by
// the subscriber's stable name (p.replay) and, while catching up, by
// its current data address (p.catchup — the live-fanout suppression
// index).
type subReplay struct {
	name    string
	addr    core.Addr
	next    uint64 // next log sequence to replay
	done    bool   // caught up; live fanout flows
	hot     bool   // round rides the live outbox (short post-lock heal)
	lastAck uint64 // previous in-band ack (tail-loss detection)
	granted uint64 // cursor granted for the round in flight (dedup key)
	ackSeen bool   // addr has acked in-band: its seam is locked
	// rd is the log cursor the rounds read through. It keeps its place
	// (descriptor, offset, buffered records) from pump to pump and is
	// closed whenever nothing is owed: done, evicted, re-addressed.
	rd *duralog.Reader
}

// release closes sr's log cursor (a later round reopens it at sr.next).
func (sr *subReplay) release() {
	if sr.rd != nil {
		sr.rd.Close()
	}
}

// handleDurCtlLocked dispatches one durable control frame from the
// shared control inbox. Returns false if the frame is not durable
// control (the caller tries the credit codec next). Caller holds p.mu.
func (p *Publisher) handleDurCtlLocked(payload []byte) bool {
	if p.log == nil || len(payload) == 0 {
		return false
	}
	switch payload[0] {
	case resumeMagic:
		if from, cursor, name, ok := decodeResume(payload); ok {
			p.handleResumeLocked(from, cursor, name)
		}
		return true
	case ackMagic:
		if from, seq, name, ok := decodeAck(payload); ok {
			p.handleAckLocked(from, name, seq)
		}
		return true
	}
	return false
}

// handleResumeLocked starts (or restarts) a subscriber's replay.
// Caller holds p.mu.
func (p *Publisher) handleResumeLocked(from core.Addr, cursor uint64, name string) {
	if !from.Valid() || name == "" {
		return
	}
	stored := cursor == UseStoredCursor
	head := p.log.Head()
	if stored {
		c, ok := p.log.Cursor(name)
		if !ok {
			// First contact: pin the cursor at the current head so the
			// name is retention-tracked from now on. History published
			// before the subscriber joined is not replayed.
			_ = p.log.Ack(name, head)
			c = head
		}
		cursor = c
	}
	if cursor > head {
		cursor = head
	}
	sr := p.replay[name]
	if sr == nil {
		sr = &subReplay{name: name}
		p.replay[name] = sr
	}
	if sr.addr != from {
		if sr.addr.Valid() {
			delete(p.catchup, sr.addr)
		}
		sr.release()
		sr.addr = from
		sr.ackSeen = false
	}
	p.catchup[from] = sr
	p.heard[from] = nil // handshake complete; a durable topic keeps no credit account
	if stored && sr.ackSeen {
		// A locked seam resumes only from its own position (explicit
		// cursor), and an ack proves this address locked. A stored-cursor
		// ask from it is a stale straggler of the handshake burst —
		// honoring it would rewind a live stream into duplicate replay.
		return
	}
	if stored && !sr.done && sr.granted == cursor && sr.next > cursor {
		// Duplicate of the round in flight (resume retries race the
		// grant in the other direction). Re-send the grant — idempotent,
		// the seam locks at the same place — but keep the replay
		// position: rewinding would resend everything already pumped. If
		// the grant truly was lost and frames were discarded unlocked,
		// the freshly locked seam gap-resumes with its exact position.
		var buf [grantFrameBytes]byte
		n := encodeGrant(buf[:], cursor)
		_ = p.replayOutFor(sr).SendFlags(from, buf[:n], ctlFlag|p.cfg.Class.Flags())
		p.pumpReplayLocked(replayBurst)
		return
	}
	sr.next = cursor + 1
	if first := p.log.First(); sr.next < first {
		// The retention horizon passed this cursor before it caught
		// up: the gap is unreplayable. Counted, never silent.
		p.replayStranded += first - sr.next
		sr.next = first
	}
	sr.done = false
	// A short repair of an already-locked seam rides the live outbox
	// (ordered with the live stream it patches); a fresh or long
	// catch-up drains on the Bulk channel.
	sr.hot = sr.ackSeen && head-cursor <= hotReplayMax
	sr.granted = sr.next - 1
	// Grant the resolved cursor before any data flows: the subscriber
	// locks its seam at exactly this position, so a dropped or
	// reordered first replay frame can never shift the seam past a
	// sequence it still owes. A lost grant is healed by the next resume
	// (renew cadence).
	var buf [grantFrameBytes]byte
	n := encodeGrant(buf[:], sr.next-1)
	_ = p.replayOutFor(sr).SendFlags(from, buf[:n], ctlFlag|p.cfg.Class.Flags())
	p.pumpReplayLocked(replayBurst)
}

// handleAckLocked applies an in-band cursor acknowledgment: max-merge
// into the log's cursor table, then let retention retire any segments
// every cursor has passed. Caller holds p.mu.
func (p *Publisher) handleAckLocked(from core.Addr, name string, seq uint64) {
	if name == "" {
		return
	}
	if from.Valid() {
		p.heard[from] = nil
	}
	_ = p.log.Ack(name, seq)
	if sr := p.replay[name]; sr != nil {
		if sr.addr == from {
			// Acks are only sent by a locked seam: this address has its
			// cursor grant, so stored-cursor resume stragglers from it
			// can be ignored.
			sr.ackSeen = true
		}
		if sr.done && seq == sr.lastAck && seq < p.log.Head() {
			// Two renewal-cadence acks at the same position behind the
			// head: the stream's tail was lost in flight and no later
			// traffic exists to reveal the gap at the subscriber's
			// seam. Re-enter catch-up from the cursor — duplicates, if
			// any frames were merely slow, are absorbed by the seam.
			sr.next = seq + 1
			sr.done = false
			sr.hot = p.log.Head()-seq <= hotReplayMax
			// An evict may have dropped the address from the catch-up
			// index; a round in flight is always indexed, or a later
			// evict could not find it to stop it.
			p.catchup[sr.addr] = sr
			p.pumpReplayLocked(replayBurst)
		}
		sr.lastAck = seq
	}
	_, _ = p.log.Retain()
}

// PumpReplay drains up to max pending replay frames (replayBurst if
// max <= 0) across all catching-up subscribers and returns how many
// were sent. The publish path pumps automatically on every fanout;
// call this from a housekeeping loop to keep catch-up moving on an
// idle topic. A no-op for a non-durable publisher.
func (p *Publisher) PumpReplay(max int) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.log == nil {
		return 0
	}
	if max <= 0 {
		max = replayBurst
	}
	p.harvestLocked()
	if p.helloOwed {
		p.helloLocked()
	}
	return p.pumpReplayLocked(max)
}

// pumpReplayLocked advances every unfinished replay by up to max
// frames total. Caller holds p.mu.
func (p *Publisher) pumpReplayLocked(max int) int {
	if p.log == nil {
		return 0
	}
	sent := 0
	for _, sr := range p.replay {
		if sr.done || sent >= max {
			continue
		}
		if !p.replayOutFor(sr).SendReady() {
			// The round's outbox is backlogged: the send would refuse,
			// so skip the log read it would be staged from. The log
			// keeps everything; the next pump picks up exactly here.
			continue
		}
		sent += p.pumpOneLocked(sr, max-sent)
	}
	if sent > 0 {
		p.replayed += uint64(sent)
		if p.mReplayed != nil {
			p.mReplayed.Add(uint64(sent))
		}
		p.replayOut.Flush()
	}
	return sent
}

// pumpOneLocked replays up to max frames to one subscriber and sends
// the done marker when the drain reaches the log head. The head check
// happens under p.mu — the same lock every Append takes — so a
// publish either lands before the marker (inside the replay) or after
// it (a live send the suppression no longer filters): the seam is
// exact. Caller holds p.mu.
func (p *Publisher) pumpOneLocked(sr *subReplay, max int) int {
	start := sr.next
	sent := 0
	out := p.replayOutFor(sr)
	if sr.rd == nil {
		sr.rd = p.log.NewReader(sr.next)
	}
	sr.rd.Seek(sr.next) // a no-op unless a resume, a heal or a deferral moved the round
	for sent < max {
		seq, flags, payload, err := sr.rd.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			// Sticky log error; surfaced through the log's Health.
			return sent
		}
		frame := p.stageSeq(seq, payload)
		// A bulk round drains at the replay outbox's Bulk priority
		// under live traffic; a hot round rides the live outbox. The
		// stored flags keep their application bits either way.
		rflags := (flags &^ (wire.PriorityMask | ctlFlag)) | replayFlag
		if out.SendFlags(sr.addr, frame, rflags) != nil {
			// Backpressure (or a dying endpoint): pause, retry on the
			// next pump. Nothing is lost — the cursor stays on it.
			sr.rd.Unread()
			break
		}
		sr.next = seq + 1
		sent++
	}
	if head := p.log.Head(); sr.next > head {
		var buf [doneFrameBytes]byte
		n := encodeDone(buf[:], start, head)
		if out.SendFlags(sr.addr, buf[:n], ctlFlag|p.cfg.Class.Flags()) == nil {
			// The catchup entry stays: it is also the address index
			// the publish path uses to turn a live-send backpressure
			// drop into a catch-up re-entry.
			sr.done = true
			sr.release()
		}
	}
	return sent
}

// stageSeq prefixes payload with its 8-byte log sequence.
func (p *Publisher) stageSeq(seq uint64, payload []byte) []byte {
	b := p.stage(8, payload)
	binary.BigEndian.PutUint64(b, seq)
	return b
}

// Close releases the log cursors of every unfinished replay. The
// publisher owns nothing else that outlives it (the log is the
// caller's), and stays usable: a later pump reopens what it needs.
func (p *Publisher) Close() {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, sr := range p.replay {
		sr.release()
	}
}

// DurableLog exposes the publisher's duralog (nil when not durable) —
// health scraping, explicit Sync, retention tuning.
func (p *Publisher) DurableLog() *duralog.Log { return p.log }

// Deferred returns the total live sends suppressed while their target
// was catching up on replay. Deferral, not loss: the suppressed frame
// was journaled inside the subscriber's catch-up range and reaches it
// as replay.
func (p *Publisher) Deferred() uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.deferred
}

// Replayed returns the total replay frames sent.
func (p *Publisher) Replayed() uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.replayed
}

// ReplayStranded returns the total frames that were unreplayable
// because the log's retention horizon had passed a resuming cursor —
// the durable plane's only loss class, entered when forced retention
// (duralog MaxSegments) outruns a dead subscriber's cursor.
func (p *Publisher) ReplayStranded() uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.replayStranded
}

// DurableLedger is the durable-stream conservation law for one cursor
// name, with every term named:
//
//	Published == Live + Replayed + Stranded
//
// Every journaled publish reaches the name exactly once — as live
// fanout or as replay, across however many subscriber incarnations
// held the name — unless forced retention passed the cursor first.
// The law holds at quiesce with the cursor at head, for a name whose
// seam locked before the first publish (earlier history is by design
// not owed).
type DurableLedger struct {
	Published uint64 // journaled publishes (Publisher.Published)
	Live      uint64 // Σ Received − Replayed over the name's incarnations
	Replayed  uint64 // Σ Subscriber.Replayed
	Stranded  uint64 // Publisher.ReplayStranded
}

// DurableLaw reads the law's terms off p and every incarnation of one
// durable subscriber name (crashed predecessors included: their
// counters stay readable).
func DurableLaw(p *Publisher, incarnations ...*Subscriber) DurableLedger {
	l := DurableLedger{Published: p.Published(), Stranded: p.ReplayStranded()}
	for _, s := range incarnations {
		l.Replayed += s.Replayed()
		l.Live += s.Received() - s.Replayed()
	}
	return l
}

// Err is nil when the law balances, and otherwise names every term.
func (l DurableLedger) Err() error {
	if l.Published == l.Live+l.Replayed+l.Stranded {
		return nil
	}
	return fmt.Errorf("durable conservation violated: published %d != live %d + replayed %d + stranded %d (= %d)",
		l.Published, l.Live, l.Replayed, l.Stranded, l.Live+l.Replayed+l.Stranded)
}

// CatchingUp returns how many subscribers are mid-replay (resumed,
// not yet handed off to the live stream).
func (p *Publisher) CatchingUp() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := 0
	for _, sr := range p.replay {
		if !sr.done {
			n++
		}
	}
	return n
}

// ---------------------------------------------------------------------
// Subscriber half: the seam.

// subDurState is the durable subscriber's protocol state: the stable
// cursor name, the control-return channel, the publishers learned
// from hellos, and the exactly-once seam (locked/next). The protocol
// fields follow the receive path's single-threaded discipline; the
// atomics are safe for metrics scrapers and test assertions.
type subDurState struct {
	name string
	out  *msglib.Outbox
	pubs map[core.Addr]struct{}

	locked     atomic.Bool             // seam established; next is meaningful
	next       atomic.Uint64           // next sequence the application gets
	gapPending bool                    // a resume for a detected gap is in flight
	needResume bool                    // a resume must be (re)sent (start, rebind)
	stash      map[uint64]stashedFrame // ahead-of-seam frames held for the hole

	acked     atomic.Uint64 // last sequence acknowledged in-band
	dirAcked  uint64        // last sequence registered with the directory
	replayed  atomic.Uint64 // deliveries that arrived as replay
	dupDrops  atomic.Uint64 // duplicates discarded at the seam
	gapDrops  atomic.Uint64 // ahead-of-seam frames discarded pending replay
	seamDrops atomic.Uint64 // data frames discarded before the seam locked
	malformed atomic.Uint64 // durable frames too short to carry a sequence
	resumes   atomic.Uint64 // resume requests sent
}

func newSubDurState(d *core.Domain, name string) (*subDurState, error) {
	if name == "" || len(name) > 255 {
		return nil, fmt.Errorf("topic: durable subscriber name must be 1..255 bytes, got %d", len(name))
	}
	out, err := msglib.NewOutboxPrio(d, 0, creditOutboxBufs, Control.EndpointPriority())
	if err != nil {
		return nil, err
	}
	return &subDurState{
		name:       name,
		out:        out,
		pubs:       make(map[core.Addr]struct{}),
		needResume: true,
		stash:      make(map[uint64]stashedFrame),
	}, nil
}

// stashedFrame is one ahead-of-seam frame held in the reorder stash
// (copied: the inbox lends a payload only until its next receive, and
// the hole fills receives later).
type stashedFrame struct {
	body  []byte
	flags uint8
}

// stashMax bounds the reorder stash. The stash absorbs the catch-up
// handoff: live frames legally overtake the in-flight bulk replay
// tail, and holding them until the hole fills turns that priority
// inversion into plain reordering instead of loss that a fresh replay
// round must heal. Overflow falls back to the counted gap drop.
const stashMax = 256

// durStashPop delivers the next in-order frame from the reorder stash,
// if the seam has reached one. Runs on the receive path before the
// inbox is consulted, so a filled hole drains the stashed run ahead of
// new arrivals.
func (s *Subscriber) durStashPop() ([]byte, uint8, bool) {
	d := s.dur
	if d == nil || len(d.stash) == 0 || !d.locked.Load() {
		return nil, 0, false
	}
	next := d.next.Load()
	st, ok := d.stash[next]
	if !ok {
		return nil, 0, false
	}
	delete(d.stash, next)
	d.next.Store(next + 1)
	if st.flags&replayFlag != 0 {
		d.replayed.Add(1)
	}
	if len(d.stash) == 0 {
		// Seam contiguous through everything seen: no resume owed.
		d.gapPending = false
	}
	return st.body, st.flags, true
}

// durAccept runs one received durable data frame through the seam:
// strip the sequence prefix, lock onto the replay stream if the seam
// is still open, then accept exactly the next sequence — duplicates
// and gaps are counted and dropped, a gap additionally triggers a
// resume from the seam.
func (s *Subscriber) durAccept(payload []byte, flags uint8) ([]byte, bool) {
	d := s.dur
	if len(payload) < 8 {
		d.malformed.Add(1)
		return nil, false
	}
	seq := binary.BigEndian.Uint64(payload[:8])
	body := payload[8:]
	replay := flags&replayFlag != 0
	if !d.locked.Load() {
		// No seam yet: every data frame — live or replay — is inside
		// the range the pending resume covers, and a replay frame's own
		// sequence proves nothing about frames lost in front of it
		// (locking onto it could silently skip them). Deferral, not
		// loss: the cursor grant establishes the seam and the replay
		// re-covers everything discarded here.
		d.seamDrops.Add(1)
		return nil, false
	}
	next := d.next.Load()
	switch {
	case seq == next:
		d.next.Store(next + 1)
		if replay {
			d.replayed.Add(1)
			d.gapPending = false
		}
		return body, true
	case seq < next:
		d.dupDrops.Add(1)
		return nil, false
	default:
		// Ahead of the seam. The missing frames are usually already in
		// flight on the bulk replay path — the live stream legally
		// overtakes it at the catch-up handoff — so hold this frame in
		// the reorder stash and deliver it when the hole fills. Resume
		// only at a fence (the done marker, which trails every replay
		// frame of its round on the same ordered channel, or the renew
		// cadence) if the gap persists: resuming here would answer
		// every handoff with a duplicate replay round.
		if len(d.stash) < stashMax {
			d.stash[seq] = stashedFrame{body: append([]byte(nil), body...), flags: flags}
		} else {
			d.gapDrops.Add(1)
		}
		d.gapPending = true
		return nil, false
	}
}

// handleGrant locks the seam at the publisher-resolved cursor. Stale
// grants (a second publisher answering, or a retried resume's echo)
// arrive after the seam is locked and are ignored — the seam only
// moves forward, through deliveries.
func (s *Subscriber) handleGrant(cursor uint64) {
	d := s.dur
	if d == nil || d.locked.Load() {
		return
	}
	d.locked.Store(true)
	d.next.Store(cursor + 1)
	d.gapPending = false
	d.needResume = false
	s.sendAck()
}

// handleDone processes the publisher's replay-complete marker.
func (s *Subscriber) handleDone(start, head uint64) {
	d := s.dur
	if d == nil {
		return
	}
	if !d.locked.Load() {
		if start > head {
			// Empty replay range: nothing between our cursor and the
			// head. Lock straight onto the live stream.
			d.locked.Store(true)
			d.next.Store(head + 1)
			d.gapPending = false
			s.sendAck()
		} else {
			// The publisher replayed [start, head] but none of it
			// reached us (discarded at our endpoint, counted there).
			// Ask again; the log still holds everything.
			s.sendResume()
		}
		return
	}
	if next := d.next.Load(); next > head {
		// Clean handoff (or a stale marker from an earlier round).
		d.gapPending = false
		s.sendAck()
	} else {
		// The done marker trails every replay frame of its round on the
		// same ordered channel, so the round has fully arrived — and the
		// seam still wants [next, head]: those frames were lost in
		// flight. Re-request from the seam.
		d.gapPending = true
		s.sendResume()
	}
}

// sendResume asks every known publisher to (re)start our replay. The
// cursor is our seam position once locked; before that we ask for the
// cursor the log stored under our name (the restart path).
func (s *Subscriber) sendResume() {
	d := s.dur
	if d == nil {
		return
	}
	if len(d.pubs) == 0 {
		// No rendezvous yet; retried when a hello arrives or on Renew.
		d.needResume = true
		return
	}
	cursor := UseStoredCursor
	if d.locked.Load() {
		cursor = d.next.Load() - 1
	}
	var buf [durCtlFrameMax]byte
	n := encodeResume(buf[:], s.in.Addr(), cursor, d.name)
	sentAll := true
	for pub := range d.pubs {
		if d.out.SendFlags(pub, buf[:n], ctlFlag) != nil {
			sentAll = false
		}
	}
	d.needResume = !sentAll
	d.resumes.Add(1)
}

// sendAck acknowledges our seam position in-band to every known
// publisher. Cumulative and max-merged: a lost ack is subsumed by the
// next one on the Renew cadence.
func (s *Subscriber) sendAck() {
	d := s.dur
	if d == nil || !d.locked.Load() || len(d.pubs) == 0 {
		return
	}
	cur := d.next.Load() - 1
	var buf [durCtlFrameMax]byte
	n := encodeAck(buf[:], s.in.Addr(), cur, d.name)
	for pub := range d.pubs {
		_ = d.out.SendFlags(pub, buf[:n], ctlFlag)
	}
	d.acked.Store(cur)
}

// renewDurable is the durable half of Renew: retry an outstanding
// resume (the backstop for lost control frames), acknowledge the seam
// in-band, and register the cursor with the directory so it survives
// registry failover. Directory registration is best-effort — the
// in-band ack to the publisher's log is the durable copy.
func (s *Subscriber) renewDurable() {
	d := s.dur
	if d == nil {
		return
	}
	if !d.locked.Load() || d.needResume || d.gapPending {
		s.sendResume()
	}
	if d.locked.Load() {
		s.sendAck()
		if cur := d.acked.Load(); cur > d.dirAcked {
			if AckCursor(s.dir, s.topic, d.name, cur) == nil {
				d.dirAcked = cur
			}
		}
	}
}

// DurableName returns the subscriber's stable cursor identity ("" for
// a non-durable subscriber).
func (s *Subscriber) DurableName() string {
	if s.dur == nil {
		return ""
	}
	return s.dur.name
}

// DurableLocked reports whether the exactly-once seam is established
// (the subscriber has handed off from replay to the live stream at a
// known sequence).
func (s *Subscriber) DurableLocked() bool { return s.dur != nil && s.dur.locked.Load() }

// NextSeq returns the next log sequence the application will see
// (meaningful once DurableLocked).
func (s *Subscriber) NextSeq() uint64 {
	if s.dur == nil {
		return 0
	}
	return s.dur.next.Load()
}

// AckedSeq returns the last sequence acknowledged in-band.
func (s *Subscriber) AckedSeq() uint64 {
	if s.dur == nil {
		return 0
	}
	return s.dur.acked.Load()
}

// Replayed returns how many deliveries arrived as replay (the rest of
// Received was live traffic).
func (s *Subscriber) Replayed() uint64 {
	if s.dur == nil {
		return 0
	}
	return s.dur.replayed.Load()
}

// DupDrops returns duplicates discarded at the seam — the price of
// at-least-once replay under an exactly-once delivery contract.
func (s *Subscriber) DupDrops() uint64 {
	if s.dur == nil {
		return 0
	}
	return s.dur.dupDrops.Load()
}

// GapDrops returns ahead-of-seam frames discarded pending replay
// (each one re-arrives as replay after the gap resume).
func (s *Subscriber) GapDrops() uint64 {
	if s.dur == nil {
		return 0
	}
	return s.dur.gapDrops.Load()
}

// SeamDrops returns live frames discarded before the seam locked
// (covered by the initial replay — deferral, not loss).
func (s *Subscriber) SeamDrops() uint64 {
	if s.dur == nil {
		return 0
	}
	return s.dur.seamDrops.Load()
}

// ResumesSent returns how many resume requests this subscriber has
// issued (initial, gap-triggered, and Renew retries).
func (s *Subscriber) ResumesSent() uint64 {
	if s.dur == nil {
		return 0
	}
	return s.dur.resumes.Load()
}
