package nameservice

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"time"

	"flipc/internal/core"
	"flipc/internal/msglib"
	"flipc/internal/shardmap"
	"flipc/internal/wire"
)

// Remote name service: the directory itself served over FLIPC messages,
// so a cluster needs only one well-known endpoint address at boot (the
// server's), after which every other address is resolved in-band. This
// is the natural shape for the out-of-band exchange the paper assumes:
// "This requires receivers to obtain endpoint addresses of endpoints
// they have allocated from FLIPC and pass those addresses to senders."
//
// Protocol (request, client→server):
//
//	[0]   op (1=register, 2=lookup, 3=unregister)
//	[1:5] reply address (the client's inbox)
//	[5:9] payload address (register: the address being published)
//	[9]   name length n
//	[10:10+n] name
//
// Response (server→client):
//
//	[0]   status (0=ok, 1=not found, 2=duplicate, 3=bad request)
//	[1:5] resolved address (lookup ok)
//	[5:9] request tag echo
//
// Requests carry a client-chosen tag (bytes [5:9] reused on lookup
// responses) so one inbox can serve pipelined calls.

// Ops and statuses. Ops 4–6 are the topic records (pub-sub membership,
// see topics.go):
//
//	subscribe (4):   register-shaped; [5:9] is the subscriber's data
//	                 address and one trailing byte after the name
//	                 carries the topic's priority class
//	unsubscribe (5): register-shaped; [5:9] is the subscriber's address
//	snapshot (6):    lookup-shaped plus trailing offset bytes after the
//	                 name (4-byte big-endian; a 2-byte offset from an
//	                 older client is still accepted); the response is
//	                 the paged layout
//	                 [0] status | [1:5] membership generation |
//	                 [5:9] tag echo | [9] class | [10] count |
//	                 [11:11+4·count] subscriber addresses
//
// Snapshot responses page: the client re-requests with a growing
// offset until a page comes back short.
// Ops 7–8 are the failover-awareness extensions:
//
//	registry info (7): name-less; [5:9] is the request tag. Response:
//	                   [0] status | [1:5] unused | [5:9] tag echo |
//	                   [9] role (1=primary) | [10:18] registry gen |
//	                   [18:26] mutation seq | [26:34] sweep epoch.
//	                   Clients probe it to detect a failed-over registry
//	                   (gen moved) and a standby uses gen+seq to bound
//	                   its replication lag before taking over.
//	topic list (8):    lookup-shaped plus trailing offset bytes (4-byte
//	                   big-endian, 2-byte accepted); response
//	                   [0] status | [1:5] total topic count |
//	                   [5:9] tag echo | [9] page count | then count ×
//	                   (len byte + name). Pages until offset reaches
//	                   total — with topic snapshots, enough for a
//	                   replica to bootstrap a full state resync.
//	cursor ack (9):    lookup-shaped; [5:9] is the request tag and the
//	                   trailing bytes after the topic name carry
//	                   acked seq(8) | subscriber name len(1) | name.
//	                   Registers a durable-stream replay cursor
//	                   (max-merged, so retries and reordering are
//	                   harmless). Mutation-gated like subscribe.
//
// Topic mutations (subscribe/unsubscribe) are refused with
// statusNotPrimary at a node whose info source reports it is not the
// primary registry: a standby (or a primary that self-demoted after a
// store failure) acknowledging them would serve non-durable,
// non-replicated state.
//
// Op 10 is the sharded-registry extension:
//
//	shard map (10):    lookup-shaped, name empty, trailing offset bytes
//	                   (4-byte big-endian entry index). Response:
//	                   [0] status | [1:5] this server's shard id |
//	                   [5:9] tag echo | [9:17] map epoch |
//	                   [17:19] total entries | [19] page count | then
//	                   count x 10-byte entries (shardmap encoding).
//	                   statusNotFound when the node carries no map
//	                   (unsharded deployment).
//
// At a sharded node (SetShards installed), topic ops on a name owned
// by another shard answer statusNotOwner with the owning shard id in
// [1:5]: the client's map is stale (split, merge, or it never fetched
// one), and the redirect carries enough to re-route without a second
// round trip. Reserved "!"-prefixed names are exempt — each shard's
// replication stream is node-local infrastructure.
//
// Reserved "!"-prefixed topics refuse client mutations with
// statusReserved: application traffic must not mix into a replication
// stream. A replica authorizes itself by appending the privilege
// marker byte to subscribe/unsubscribe tails (Client.Privileged);
// cursor acks on reserved topics are refused unconditionally (streams
// are not durable topics).
//
// Ops 11–14 are the edge-plane extension (see patterns.go):
//
//	pattern sub (11):   register-shaped; name is a wildcard pattern
//	                    ("metrics.*", grammar in ValidPattern), [5:9]
//	                    the subscriber's data address. Accepted at
//	                    EVERY shard — a pattern can match topics on any
//	                    shard, so the gateway broadcasts it to all of
//	                    them and each shard merges its own matches into
//	                    the snapshots it serves. Lease-renewed like
//	                    subscribe; soft state (never journaled).
//	pattern unsub (12): register-shaped, mirror of 11.
//	presence up (13):   register-shaped; name is the client presence
//	                    key, [5:9] the terminating gateway's control
//	                    address, tail gateway-name len(1) | name.
//	                    Shard-routed by the KEY's hash (statusNotOwner
//	                    redirects apply) so the edge plane's lease load
//	                    spreads across the registry tier. Lease-renewed
//	                    soft state: a dead gateway's clients age out.
//	presence drop (14): lookup-shaped; [5:9] the request tag. Shard-
//	                    routed like 13.
//
// Snapshot responses additionally carry a pattern block on their final
// page (after the exact-subscriber block, when space allows):
// [patcount byte][patcount × 4-byte addresses] — the pattern-plane
// subscribers matching the topic, already deduplicated against the
// exact set. Old clients never read past the exact block; old servers
// never append one, which new clients read as zero patterns.
const (
	opRegister     = 1
	opLookup       = 2
	opUnregister   = 3
	opSubscribe    = 4
	opUnsubscribe  = 5
	opTopicSnap    = 6
	opRegistryInfo = 7
	opTopicList    = 8
	opCursorAck    = 9
	opShardMap     = 10
	opPatternSub   = 11
	opPatternUnsub = 12
	opPresenceUp   = 13
	opPresenceDrop = 14

	statusOK         = 0
	statusNotFound   = 1
	statusDuplicate  = 2
	statusBad        = 3
	statusNotPrimary = 4
	statusNotOwner   = 5
	statusReserved   = 6
)

// reservedMagic is the trailing privilege marker a replica appends to
// subscribe/unsubscribe requests for reserved "!"-prefixed topics.
// This is an anti-foot-gun, not a security boundary: anything on the
// fabric can forge frames anyway (the paper's trust model); the marker
// exists so no stock client wanders into a replication stream by name
// collision or typo.
const reservedMagic = 0x52

// shardMapHeaderBytes is the fixed prefix of a shard-map response.
const shardMapHeaderBytes = 19

// snapHeaderBytes is the fixed prefix of a topic-snapshot response.
const snapHeaderBytes = 11

// infoRespBytes is the size of a registry-info response.
const infoRespBytes = 34

// RegistryInfo is a registry node's failover-relevant status, served by
// op 7.
type RegistryInfo struct {
	// Primary reports whether this node currently serves mutations.
	Primary bool
	// Gen is the registry generation (fencing epoch).
	Gen uint64
	// Seq is the durable mutation sequence number (0 when the registry
	// is not durable).
	Seq uint64
	// Epoch is the lease sweep epoch.
	Epoch uint64
}

// Remote errors.
var (
	ErrRemoteTimeout = errors.New("nameservice: remote call timed out")
	ErrBadReply      = errors.New("nameservice: malformed reply")
	// ErrNotPrimary reports a topic mutation refused because the target
	// registry node is not the primary (standby, or self-demoted after
	// a store failure). Callers should re-resolve the registry endpoint
	// and retry.
	ErrNotPrimary = errors.New("nameservice: registry is not primary")
	// ErrNotOwner reports a topic op refused because the topic hashes
	// to a different registry shard — the caller's shard map is stale.
	// The concrete error is a *NotOwnerError carrying the owning shard.
	ErrNotOwner = errors.New("nameservice: topic owned by another shard")
	// ErrReserved reports a client mutation refused on a reserved
	// "!"-prefixed topic (a replication stream).
	ErrReserved = errors.New("nameservice: reserved topic")
)

// NotOwnerError is the concrete statusNotOwner error: the server's
// redirect, carrying the shard that owns the topic so the caller can
// re-route (or refetch the map) without a discovery round trip.
type NotOwnerError struct {
	Topic string
	Shard uint32
}

func (e *NotOwnerError) Error() string {
	return fmt.Sprintf("nameservice: topic %q owned by shard %d", e.Topic, e.Shard)
}

// Unwrap makes errors.Is(err, ErrNotOwner) true.
func (e *NotOwnerError) Unwrap() error { return ErrNotOwner }

// Server serves a Directory (and a TopicRegistry) over FLIPC. Run its
// Serve loop on a goroutine (or call ServeOne from a poll loop).
type Server struct {
	dir    *Directory
	topics *TopicRegistry
	in     *msglib.Inbox
	out    *msglib.Outbox
	info   func() RegistryInfo

	// Sharded deployments: this node's shard id and the shard-map
	// source (SetShards). A nil source serves the whole namespace.
	shardSelf uint32
	shards    func() *shardmap.Map
}

// NewServer creates a server on domain d backed by dir. window sizes
// the request inbox — use flowctl.RPCBuffers(maxClients, outstanding)
// for an overrun-free configuration.
func NewServer(d *core.Domain, dir *Directory, window int) (*Server, error) {
	return NewServerWith(d, dir, NewTopicRegistry(), window)
}

// NewServerWith is NewServer backed by an existing topic registry — the
// durable-registry path, where internal/registrystore recovers the
// registry before the server starts answering for it.
func NewServerWith(d *core.Domain, dir *Directory, topics *TopicRegistry, window int) (*Server, error) {
	depth := 2
	for depth < window+1 {
		depth *= 2
	}
	in, err := msglib.NewInbox(d, depth, window)
	if err != nil {
		return nil, err
	}
	out, err := msglib.NewOutbox(d, depth, window)
	if err != nil {
		return nil, err
	}
	return &Server{dir: dir, topics: topics, in: in, out: out}, nil
}

// SetInfo attaches the status source consulted by registry-info
// requests (op 7). A plain in-memory server (nil source) reports
// primary at the registry's current generation with sequence 0.
func (s *Server) SetInfo(fn func() RegistryInfo) { s.info = fn }

// SetShards makes the server shard-aware: it is shard self in the map
// served by fn (called per request — the map may be swapped on splits
// and merges). Topic ops on names the map assigns elsewhere answer
// statusNotOwner, and op 10 serves the map to clients. Wiring-time
// configuration, like SetInfo: install before the serve loop starts.
func (s *Server) SetShards(self uint32, fn func() *shardmap.Map) {
	s.shardSelf = self
	s.shards = fn
}

// routeFor resolves a topic's owning shard, reporting whether this
// node owns it. Unsharded servers, unroutable names, and reserved
// "!"-prefixed infrastructure topics are always owned locally.
func (s *Server) routeFor(name string) (uint32, bool) {
	if s.shards == nil || name == "" || name[0] == '!' {
		return s.shardSelf, true
	}
	m := s.shards()
	if m == nil {
		return s.shardSelf, true
	}
	owner, ok := m.ShardOf(name)
	if !ok {
		return s.shardSelf, true
	}
	return owner, owner == s.shardSelf
}

// Addr is the server's well-known endpoint address.
func (s *Server) Addr() wire.Addr { return s.in.Addr() }

// Topics exposes the server's topic registry (housekeeping: the daemon
// calls Advance on the lease cadence; diagnostics read snapshots).
func (s *Server) Topics() *TopicRegistry { return s.topics }

// ServeOne handles at most one pending request, reporting whether it
// did any work. Never blocks.
func (s *Server) ServeOne() bool {
	req, _, ok := s.in.Receive()
	if !ok {
		return false
	}
	s.handle(req)
	return true
}

// Serve blocks handling requests at the given scheduler priority until
// the domain closes.
func (s *Server) Serve(prio core.Priority) {
	for {
		req, _, err := s.in.ReceiveBlock(prio)
		if err != nil {
			return
		}
		s.handle(req)
	}
}

func (s *Server) handle(req []byte) {
	replyTo, resp := s.process(req, s.out.MaxPayload())
	if resp != nil {
		s.reply(replyTo, resp)
	}
}

// process parses and executes one request, returning the reply address
// and response bytes (nil response: the request carried no valid reply
// address, so there is nobody to refuse to). Factored from the receive
// loop so the protocol parser can be driven directly — the fuzz harness
// feeds it arbitrary requests without a live domain.
func (s *Server) process(req []byte, maxPayload int) (wire.Addr, []byte) {
	if len(req) < 10 {
		return wire.NilAddr, nil
	}
	replyTo := wire.Addr(binary.BigEndian.Uint32(req[1:5]))
	if !replyTo.Valid() {
		return wire.NilAddr, nil
	}
	resp := make([]byte, 9)
	copy(resp[5:9], req[5:9]) // default tag echo (lookup overwrites below)

	op := req[0]
	n := int(req[9])
	if 10+n > len(req) {
		resp[0] = statusBad
		return replyTo, resp
	}
	name := string(req[10 : 10+n])
	tail := req[10+n:] // op-specific trailing bytes
	switch op {
	case opRegister:
		addr := wire.Addr(binary.BigEndian.Uint32(req[5:9]))
		if err := s.dir.Register(name, addr); err != nil {
			if errors.Is(err, ErrDuplicate) {
				resp[0] = statusDuplicate
			} else {
				resp[0] = statusBad
			}
		}
	case opLookup:
		addr, err := s.dir.Lookup(name)
		if err != nil {
			resp[0] = statusNotFound
		} else {
			binary.BigEndian.PutUint32(resp[1:5], uint32(addr))
		}
	case opUnregister:
		s.dir.Unregister(name)
	case opSubscribe:
		if reserved(name) && !(len(tail) >= 2 && tail[1] == reservedMagic) {
			resp[0] = statusReserved
			break
		}
		if owner, owned := s.routeFor(name); !owned {
			resp[0] = statusNotOwner
			binary.BigEndian.PutUint32(resp[1:5], owner)
			break
		}
		if !s.mutable() {
			resp[0] = statusNotPrimary
			break
		}
		addr := wire.Addr(binary.BigEndian.Uint32(req[5:9]))
		var class uint8
		if len(tail) >= 1 {
			class = tail[0]
		}
		if err := s.topics.Declare(name, class); err != nil {
			resp[0] = statusBad
		} else if err := s.topics.Subscribe(name, addr); err != nil {
			resp[0] = statusBad
		}
	case opUnsubscribe:
		if reserved(name) && !(len(tail) >= 1 && tail[0] == reservedMagic) {
			resp[0] = statusReserved
			break
		}
		if owner, owned := s.routeFor(name); !owned {
			resp[0] = statusNotOwner
			binary.BigEndian.PutUint32(resp[1:5], owner)
			break
		}
		if !s.mutable() {
			resp[0] = statusNotPrimary
			break
		}
		s.topics.Unsubscribe(name, wire.Addr(binary.BigEndian.Uint32(req[5:9])))
	case opCursorAck:
		if reserved(name) {
			// Replication streams are not durable topics: no cursor may
			// ever land on one, privileged or not.
			resp[0] = statusReserved
			break
		}
		if owner, owned := s.routeFor(name); !owned {
			resp[0] = statusNotOwner
			binary.BigEndian.PutUint32(resp[1:5], owner)
			break
		}
		if !s.mutable() {
			resp[0] = statusNotPrimary
			break
		}
		if len(tail) < 10 || 9+int(tail[8]) > len(tail) || tail[8] == 0 {
			resp[0] = statusBad
			break
		}
		seq := binary.BigEndian.Uint64(tail[0:8])
		sub := string(tail[9 : 9+int(tail[8])])
		if err := s.topics.AckCursor(name, sub, seq); err != nil {
			resp[0] = statusBad
		}
	case opPatternSub:
		if !s.mutable() {
			resp[0] = statusNotPrimary
			break
		}
		addr := wire.Addr(binary.BigEndian.Uint32(req[5:9]))
		if err := s.topics.SubscribePattern(name, addr); err != nil {
			resp[0] = statusBad
		}
	case opPatternUnsub:
		if !s.mutable() {
			resp[0] = statusNotPrimary
			break
		}
		if err := ValidPattern(name); err != nil {
			resp[0] = statusBad
			break
		}
		s.topics.UnsubscribePattern(name, wire.Addr(binary.BigEndian.Uint32(req[5:9])))
	case opPresenceUp:
		if reserved(name) {
			resp[0] = statusReserved
			break
		}
		if owner, owned := s.routeFor(name); !owned {
			resp[0] = statusNotOwner
			binary.BigEndian.PutUint32(resp[1:5], owner)
			break
		}
		if !s.mutable() {
			resp[0] = statusNotPrimary
			break
		}
		if len(tail) < 1 || 1+int(tail[0]) > len(tail) || tail[0] == 0 {
			resp[0] = statusBad
			break
		}
		gw := string(tail[1 : 1+int(tail[0])])
		addr := wire.Addr(binary.BigEndian.Uint32(req[5:9]))
		if err := s.topics.UpsertPresence(name, gw, addr); err != nil {
			resp[0] = statusBad
		}
	case opPresenceDrop:
		if reserved(name) {
			resp[0] = statusReserved
			break
		}
		if owner, owned := s.routeFor(name); !owned {
			resp[0] = statusNotOwner
			binary.BigEndian.PutUint32(resp[1:5], owner)
			break
		}
		if !s.mutable() {
			resp[0] = statusNotPrimary
			break
		}
		s.topics.DropPresence(name)
	case opTopicSnap:
		if owner, owned := s.routeFor(name); !owned {
			resp[0] = statusNotOwner
			binary.BigEndian.PutUint32(resp[1:5], owner)
			break
		}
		return replyTo, s.snapResponse(name, pageOffset(tail), req[5:9], maxPayload)
	case opRegistryInfo:
		return replyTo, s.infoResponse(req[5:9])
	case opTopicList:
		return replyTo, s.listResponse(pageOffset(tail), req[5:9], maxPayload)
	case opShardMap:
		return replyTo, s.shardMapResponse(pageOffset(tail), req[5:9], maxPayload)
	default:
		resp[0] = statusBad
	}
	return replyTo, resp
}

// reserved reports whether a topic name is in the reserved "!" prefix
// (replication streams and future fabric infrastructure).
func reserved(name string) bool { return len(name) > 0 && name[0] == '!' }

// mutable reports whether this node may acknowledge topic mutations: a
// plain in-memory server always can; a durability-aware one only while
// its info source reports it primary.
func (s *Server) mutable() bool {
	return s.info == nil || s.info().Primary
}

// pageOffset decodes the trailing page-offset bytes of a snapshot or
// topic-list request: 4-byte big-endian, with the pre-failover 2-byte
// encoding still accepted (it caps paging at 65535 entries, which is
// why current clients send 4 bytes).
func pageOffset(tail []byte) int {
	if len(tail) >= 4 {
		return int(binary.BigEndian.Uint32(tail[0:4]))
	}
	if len(tail) >= 2 {
		return int(binary.BigEndian.Uint16(tail[0:2]))
	}
	return 0
}

// infoResponse builds a registry-info response.
func (s *Server) infoResponse(tag []byte) []byte {
	info := RegistryInfo{Primary: true, Gen: s.topics.RegistryGen(), Epoch: s.topics.Epoch()}
	if s.info != nil {
		info = s.info()
	}
	resp := make([]byte, infoRespBytes)
	copy(resp[5:9], tag)
	if info.Primary {
		resp[9] = 1
	}
	binary.BigEndian.PutUint64(resp[10:18], info.Gen)
	binary.BigEndian.PutUint64(resp[18:26], info.Seq)
	binary.BigEndian.PutUint64(resp[26:34], info.Epoch)
	return resp
}

// listResponse builds one page of a topic-list response.
func (s *Server) listResponse(offset int, tag []byte, maxPayload int) []byte {
	resp := make([]byte, 10, maxPayload)
	copy(resp[5:9], tag)
	names := s.topics.Topics()
	binary.BigEndian.PutUint32(resp[1:5], uint32(len(names)))
	count := 0
	for i := offset; i < len(names) && count < 255; i++ {
		entry := 1 + len(names[i])
		if len(resp)+entry > maxPayload {
			break
		}
		resp = append(resp, byte(len(names[i])))
		resp = append(resp, names[i]...)
		count++
	}
	resp[9] = byte(count)
	return resp
}

// shardMapResponse builds one page of a shard-map response (op 10).
func (s *Server) shardMapResponse(offset int, tag []byte, maxPayload int) []byte {
	resp := make([]byte, shardMapHeaderBytes+1, maxPayload)
	copy(resp[5:9], tag)
	if s.shards == nil {
		resp[0] = statusNotFound
		return resp
	}
	m := s.shards()
	if m == nil {
		resp[0] = statusNotFound
		return resp
	}
	binary.BigEndian.PutUint32(resp[1:5], s.shardSelf)
	binary.BigEndian.PutUint64(resp[9:17], m.Epoch())
	entries := m.Entries()
	binary.BigEndian.PutUint16(resp[17:19], uint16(len(entries)))
	perPage := (maxPayload - shardMapHeaderBytes - 1) / shardEntryBytes
	if perPage > 255 {
		perPage = 255
	}
	count := 0
	for i := offset; i < len(entries) && count < perPage; i++ {
		resp = appendShardEntry(resp, entries[i])
		count++
	}
	resp[shardMapHeaderBytes] = byte(count)
	return resp
}

// shardEntryBytes mirrors the shardmap entry encoding (id 4, weight 2,
// addr 4) used in op-10 pages.
const shardEntryBytes = 10

func appendShardEntry(dst []byte, e shardmap.Entry) []byte {
	var buf [shardEntryBytes]byte
	binary.BigEndian.PutUint32(buf[0:4], e.ID)
	binary.BigEndian.PutUint16(buf[4:6], e.Weight)
	binary.BigEndian.PutUint32(buf[6:10], e.Addr)
	return append(dst, buf[:]...)
}

func decodeShardEntry(b []byte) shardmap.Entry {
	return shardmap.Entry{
		ID:     binary.BigEndian.Uint32(b[0:4]),
		Weight: binary.BigEndian.Uint16(b[4:6]),
		Addr:   binary.BigEndian.Uint32(b[6:10]),
	}
}

// snapResponse builds one page of a topic-snapshot response.
func (s *Server) snapResponse(name string, offset int, tag []byte, maxPayload int) []byte {
	resp := make([]byte, snapHeaderBytes, maxPayload)
	copy(resp[5:9], tag)
	snap, ok := s.topics.Snapshot(name)
	if !ok {
		resp[0] = statusNotFound
		return resp
	}
	binary.BigEndian.PutUint32(resp[1:5], snap.Gen)
	resp[9] = snap.Class
	perPage := (maxPayload - snapHeaderBytes) / 4
	if perPage > 255 {
		perPage = 255
	}
	count := 0
	var addrs [4]byte
	for i := offset; i < len(snap.Subs) && count < perPage; i++ {
		binary.BigEndian.PutUint32(addrs[:], uint32(snap.Subs[i].Addr))
		resp = append(resp, addrs[:]...)
		count++
	}
	resp[10] = byte(count)
	if offset+count >= len(snap.Subs) && count < perPage && len(snap.Pats) > 0 {
		// Final page (the client stops paging at a short exact block):
		// append the pattern block, capped to the space left. Pattern
		// subscribers per topic are a handful of gateway endpoints, so
		// a single page holds them at any realistic payload size; a
		// truncated block self-heals on the next plan refresh once the
		// exact set shrinks or the payload grows.
		patFit := (maxPayload - len(resp) - 1) / 4
		if patFit > 255 {
			patFit = 255
		}
		patCount := len(snap.Pats)
		if patCount > patFit {
			patCount = patFit
		}
		if patCount > 0 {
			resp = append(resp, byte(patCount))
			for i := 0; i < patCount; i++ {
				binary.BigEndian.PutUint32(addrs[:], uint32(snap.Pats[i].Addr))
				resp = append(resp, addrs[:]...)
			}
		}
	}
	return resp
}

func (s *Server) reply(to wire.Addr, resp []byte) {
	// Bounded retry: with RPCBuffers-style sizing backpressure clears
	// as soon as the engine drains; give it a few chances and then drop
	// (the client's timeout handles the loss, like any FLIPC discard).
	for i := 0; i < 64; i++ {
		if err := s.out.Send(to, resp); err == nil {
			return
		}
		time.Sleep(20 * time.Microsecond)
	}
}

// Client calls a remote name server. Not safe for concurrent use (one
// per thread, matching the lock-free endpoint discipline).
type Client struct {
	d      *core.Domain
	server wire.Addr
	in     *msglib.Inbox
	out    *msglib.Outbox
	tag    uint32

	// Privileged marks this client as fabric infrastructure (a registry
	// replica): its subscribe/unsubscribe requests carry the reserved-
	// topic marker so they are admitted on "!"-prefixed replication
	// streams. Application clients leave it false.
	Privileged bool
}

// NewClient creates a client on domain d targeting the server's
// well-known address.
func NewClient(d *core.Domain, server wire.Addr) (*Client, error) {
	if !server.Valid() {
		return nil, fmt.Errorf("nameservice: invalid server address")
	}
	in, err := msglib.NewInbox(d, 0, 4)
	if err != nil {
		return nil, err
	}
	out, err := msglib.NewOutbox(d, 0, 4)
	if err != nil {
		return nil, err
	}
	return &Client{d: d, server: server, in: in, out: out}, nil
}

// buildReq assembles the common request layout: op, reply address, a
// 4-byte payload/tag field, the name, and op-specific trailing bytes.
func (c *Client) buildReq(op byte, name string, field uint32, tail []byte) ([]byte, error) {
	if len(name) > 200 || 10+len(name)+len(tail) > c.d.MaxPayload() {
		return nil, fmt.Errorf("nameservice: name %q too long for message size", name)
	}
	req := make([]byte, 10+len(name)+len(tail))
	req[0] = op
	binary.BigEndian.PutUint32(req[1:5], uint32(c.in.Addr()))
	binary.BigEndian.PutUint32(req[5:9], field)
	req[9] = byte(len(name))
	copy(req[10:], name)
	copy(req[10+len(name):], tail)
	return req, nil
}

// roundtrip sends req and waits for its response. The server echoes
// req[5:9] (the tag, or the address a register-shaped op names) into
// resp[5:9] on every path, so a reply carrying anything else is the
// late answer to an earlier timed-out call and is skipped — taking it
// as this call's answer would, e.g., follow a stale statusNotOwner to
// the wrong shard.
func (c *Client) roundtrip(req []byte, timeout time.Duration) ([]byte, error) {
	deadline := time.Now().Add(timeout)
	for {
		if err := c.out.Send(c.server, req); err == nil {
			break
		}
		if time.Now().After(deadline) {
			return nil, ErrRemoteTimeout
		}
		time.Sleep(50 * time.Microsecond)
	}
	for time.Now().Before(deadline) {
		resp, _, ok := c.in.Receive()
		if !ok {
			time.Sleep(50 * time.Microsecond)
			continue
		}
		if len(resp) < 9 {
			return nil, ErrBadReply
		}
		if !bytes.Equal(resp[5:9], req[5:9]) {
			continue
		}
		return resp, nil
	}
	return nil, ErrRemoteTimeout
}

// call performs one request/response with a deadline.
func (c *Client) call(op byte, name string, payload wire.Addr, timeout time.Duration) (status byte, addr wire.Addr, err error) {
	c.tag++
	field := uint32(payload)
	if op == opLookup {
		field = c.tag
	}
	req, err := c.buildReq(op, name, field, nil)
	if err != nil {
		return 0, wire.NilAddr, err
	}
	resp, err := c.roundtrip(req, timeout)
	if err != nil {
		return 0, wire.NilAddr, err
	}
	return resp[0], wire.Addr(binary.BigEndian.Uint32(resp[1:5])), nil
}

// Register publishes name → addr at the server.
func (c *Client) Register(name string, addr wire.Addr, timeout time.Duration) error {
	st, _, err := c.call(opRegister, name, addr, timeout)
	if err != nil {
		return err
	}
	switch st {
	case statusOK:
		return nil
	case statusDuplicate:
		return fmt.Errorf("%w: %q", ErrDuplicate, name)
	default:
		return fmt.Errorf("nameservice: register %q failed (status %d)", name, st)
	}
}

// Lookup resolves name at the server.
func (c *Client) Lookup(name string, timeout time.Duration) (wire.Addr, error) {
	st, addr, err := c.call(opLookup, name, wire.NilAddr, timeout)
	if err != nil {
		return wire.NilAddr, err
	}
	switch st {
	case statusOK:
		return addr, nil
	case statusNotFound:
		return wire.NilAddr, fmt.Errorf("%w: %q", ErrNotFound, name)
	default:
		return wire.NilAddr, fmt.Errorf("nameservice: lookup %q failed (status %d)", name, st)
	}
}

// Subscribe adds (or renews) addr's subscription to topic at the
// server, declaring the topic's priority class. Renewals are the
// client's responsibility: re-call on the lease cadence (the server
// ages out subscriptions not renewed within the registry TTL).
func (c *Client) Subscribe(topic string, addr wire.Addr, class uint8, timeout time.Duration) error {
	tail := []byte{class}
	if c.Privileged {
		tail = append(tail, reservedMagic)
	}
	req, err := c.buildReq(opSubscribe, topic, uint32(addr), tail)
	if err != nil {
		return err
	}
	resp, err := c.roundtrip(req, timeout)
	if err != nil {
		return err
	}
	if err := topicStatusErr(resp, "subscribe", topic); err != nil {
		return err
	}
	return nil
}

// Unsubscribe removes addr's subscription to topic at the server.
func (c *Client) Unsubscribe(topic string, addr wire.Addr, timeout time.Duration) error {
	var tail []byte
	if c.Privileged {
		tail = []byte{reservedMagic}
	}
	req, err := c.buildReq(opUnsubscribe, topic, uint32(addr), tail)
	if err != nil {
		return err
	}
	resp, err := c.roundtrip(req, timeout)
	if err != nil {
		return err
	}
	if err := topicStatusErr(resp, "unsubscribe", topic); err != nil {
		return err
	}
	return nil
}

// AckCursor registers subscriber sub's acknowledged durable-stream
// cursor on topic at the server (op 9). Acks are max-merged server-
// side, so retrying after a timeout is safe even if the original
// request landed.
func (c *Client) AckCursor(topic, sub string, seq uint64, timeout time.Duration) error {
	if len(sub) == 0 || len(sub) > 255 {
		return fmt.Errorf("nameservice: bad cursor subscriber name length %d", len(sub))
	}
	c.tag++
	tail := make([]byte, 9+len(sub))
	binary.BigEndian.PutUint64(tail[0:8], seq)
	tail[8] = byte(len(sub))
	copy(tail[9:], sub)
	req, err := c.buildReq(opCursorAck, topic, c.tag, tail)
	if err != nil {
		return err
	}
	resp, err := c.roundtrip(req, timeout)
	if err != nil {
		return err
	}
	if err := topicStatusErr(resp, "cursor ack", topic); err != nil {
		return err
	}
	return nil
}

// topicStatusErr maps a topic-op response status to its client error:
// nil on OK, the sentinel-wrapped errors on the retryable refusals
// (not-primary, not-owner, reserved), and a generic error otherwise.
func topicStatusErr(resp []byte, op, topic string) error {
	switch resp[0] {
	case statusOK:
		return nil
	case statusNotPrimary:
		return fmt.Errorf("%w: %s %q", ErrNotPrimary, op, topic)
	case statusNotOwner:
		return &NotOwnerError{Topic: topic, Shard: binary.BigEndian.Uint32(resp[1:5])}
	case statusReserved:
		return fmt.Errorf("%w: %s %q", ErrReserved, op, topic)
	default:
		return fmt.Errorf("nameservice: %s %q failed (status %d)", op, topic, resp[0])
	}
}

// TopicSnapshot fetches topic's full membership from the server,
// paging through snapshot responses until a page comes back short.
func (c *Client) TopicSnapshot(topic string, timeout time.Duration) (TopicSnapshot, error) {
	snap := TopicSnapshot{Name: topic}
	deadline := time.Now().Add(timeout)
	for offset := 0; ; {
		c.tag++
		var tail [4]byte
		binary.BigEndian.PutUint32(tail[:], uint32(offset))
		req, err := c.buildReq(opTopicSnap, topic, c.tag, tail[:])
		if err != nil {
			return snap, err
		}
		remain := time.Until(deadline)
		if remain <= 0 {
			return snap, ErrRemoteTimeout
		}
		resp, err := c.roundtrip(req, remain)
		if err != nil {
			return snap, err
		}
		if resp[0] == statusNotFound {
			return snap, fmt.Errorf("%w: topic %q", ErrNotFound, topic)
		}
		if resp[0] == statusNotOwner {
			return snap, &NotOwnerError{Topic: topic, Shard: binary.BigEndian.Uint32(resp[1:5])}
		}
		if resp[0] != statusOK || len(resp) < snapHeaderBytes {
			return snap, fmt.Errorf("%w: topic snapshot status %d", ErrBadReply, resp[0])
		}
		gen := binary.BigEndian.Uint32(resp[1:5])
		if offset > 0 && gen != snap.Gen {
			// Membership moved between pages: restart for a consistent view.
			snap.Subs = snap.Subs[:0]
			snap.Pats = snap.Pats[:0]
			offset = 0
			snap.Gen = gen
			snap.Class = resp[9]
			continue
		}
		snap.Gen = gen
		snap.Class = resp[9]
		count := int(resp[10])
		if len(resp) < snapHeaderBytes+4*count {
			return snap, fmt.Errorf("%w: truncated snapshot page", ErrBadReply)
		}
		for i := 0; i < count; i++ {
			a := wire.Addr(binary.BigEndian.Uint32(resp[snapHeaderBytes+4*i:]))
			snap.Subs = append(snap.Subs, Subscription{Addr: a})
		}
		perPage := (c.d.MaxPayload() - snapHeaderBytes) / 4
		if perPage > 255 {
			perPage = 255
		}
		if count < perPage {
			// Final page: it may carry the pattern block (servers without
			// the edge plane simply end the payload here).
			off := snapHeaderBytes + 4*count
			if len(resp) > off {
				patCount := int(resp[off])
				if len(resp) < off+1+4*patCount {
					return snap, fmt.Errorf("%w: truncated snapshot pattern block", ErrBadReply)
				}
				snap.Pats = snap.Pats[:0]
				for i := 0; i < patCount; i++ {
					a := wire.Addr(binary.BigEndian.Uint32(resp[off+1+4*i:]))
					snap.Pats = append(snap.Pats, Subscription{Addr: a})
				}
			}
			return snap, nil
		}
		offset += count
	}
}

// SubscribePattern adds (or renews) addr's subscription to pattern pat
// at the server (op 11). Patterns are accepted at every shard — a
// sharded caller broadcasts the subscription to all of them (see
// topic.ShardedDirectory) — and lease-renewed on the same cadence as
// exact subscriptions.
func (c *Client) SubscribePattern(pat string, addr wire.Addr, timeout time.Duration) error {
	if err := ValidPattern(pat); err != nil {
		return err
	}
	req, err := c.buildReq(opPatternSub, pat, uint32(addr), nil)
	if err != nil {
		return err
	}
	resp, err := c.roundtrip(req, timeout)
	if err != nil {
		return err
	}
	return topicStatusErr(resp, "pattern subscribe", pat)
}

// UnsubscribePattern removes addr's subscription to pat (op 12).
func (c *Client) UnsubscribePattern(pat string, addr wire.Addr, timeout time.Duration) error {
	req, err := c.buildReq(opPatternUnsub, pat, uint32(addr), nil)
	if err != nil {
		return err
	}
	resp, err := c.roundtrip(req, timeout)
	if err != nil {
		return err
	}
	return topicStatusErr(resp, "pattern unsubscribe", pat)
}

// UpsertPresence records (or renews) client key's presence lease at
// gateway gw, reachable through addr (op 13). Presence is routed by
// the key's hash at a sharded registry, so the call can answer a
// *NotOwnerError redirect — follow it with FollowOwner.
func (c *Client) UpsertPresence(key, gw string, addr wire.Addr, timeout time.Duration) error {
	if len(gw) == 0 || len(gw) > MaxPresenceName {
		return fmt.Errorf("nameservice: bad gateway name length %d", len(gw))
	}
	tail := make([]byte, 1+len(gw))
	tail[0] = byte(len(gw))
	copy(tail[1:], gw)
	req, err := c.buildReq(opPresenceUp, key, uint32(addr), tail)
	if err != nil {
		return err
	}
	resp, err := c.roundtrip(req, timeout)
	if err != nil {
		return err
	}
	return topicStatusErr(resp, "presence upsert", key)
}

// DropPresence removes client key's presence lease (op 14). Idempotent;
// shard-routed like UpsertPresence.
func (c *Client) DropPresence(key string, timeout time.Duration) error {
	c.tag++
	req, err := c.buildReq(opPresenceDrop, key, c.tag, nil)
	if err != nil {
		return err
	}
	resp, err := c.roundtrip(req, timeout)
	if err != nil {
		return err
	}
	return topicStatusErr(resp, "presence drop", key)
}

// RegistryInfo fetches the registry node's failover status: role,
// registry generation, durable sequence, and sweep epoch. Clients use
// it to detect a failed-over registry (the generation moved) and to
// pick the primary among candidate registry endpoints.
func (c *Client) RegistryInfo(timeout time.Duration) (RegistryInfo, error) {
	c.tag++
	req, err := c.buildReq(opRegistryInfo, "", c.tag, nil)
	if err != nil {
		return RegistryInfo{}, err
	}
	resp, err := c.roundtrip(req, timeout)
	if err != nil {
		return RegistryInfo{}, err
	}
	if resp[0] != statusOK || len(resp) < infoRespBytes {
		return RegistryInfo{}, fmt.Errorf("%w: registry info status %d", ErrBadReply, resp[0])
	}
	return RegistryInfo{
		Primary: resp[9] == 1,
		Gen:     binary.BigEndian.Uint64(resp[10:18]),
		Seq:     binary.BigEndian.Uint64(resp[18:26]),
		Epoch:   binary.BigEndian.Uint64(resp[26:34]),
	}, nil
}

// TopicList fetches every topic name known to the registry, paging
// until the server-reported total is reached. With TopicSnapshot per
// name, it is enough for a replica to bootstrap a full state resync.
func (c *Client) TopicList(timeout time.Duration) ([]string, error) {
	var names []string
	deadline := time.Now().Add(timeout)
	for offset := 0; ; {
		c.tag++
		var tail [4]byte
		binary.BigEndian.PutUint32(tail[:], uint32(offset))
		req, err := c.buildReq(opTopicList, "", c.tag, tail[:])
		if err != nil {
			return names, err
		}
		remain := time.Until(deadline)
		if remain <= 0 {
			return names, ErrRemoteTimeout
		}
		resp, err := c.roundtrip(req, remain)
		if err != nil {
			return names, err
		}
		if resp[0] != statusOK || len(resp) < 10 {
			return names, fmt.Errorf("%w: topic list status %d", ErrBadReply, resp[0])
		}
		total := int(binary.BigEndian.Uint32(resp[1:5]))
		count := int(resp[9])
		off := 10
		for i := 0; i < count; i++ {
			if off >= len(resp) || off+1+int(resp[off]) > len(resp) {
				return names, fmt.Errorf("%w: truncated topic list page", ErrBadReply)
			}
			n := int(resp[off])
			names = append(names, string(resp[off+1:off+1+n]))
			off += 1 + n
		}
		offset += count
		if offset >= total {
			return names, nil
		}
		if count == 0 {
			// A non-final page that made no progress is an error, not
			// completion: one topic name the server cannot fit into a
			// page (or any other stall) must not let a replica
			// bootstrap silently install incomplete state.
			return names, fmt.Errorf("%w: topic list page at offset %d carried no entries (total %d)",
				ErrBadReply, offset, total)
		}
	}
}

// ShardMap fetches the registry shard map from the server (op 10),
// paging until the server-reported total is reached. It returns the
// reconstructed map and the answering node's own shard id. A node
// without a map (unsharded deployment) returns ErrNotFound.
func (c *Client) ShardMap(timeout time.Duration) (*shardmap.Map, uint32, error) {
	var (
		epoch   uint64
		self    uint32
		entries []shardmap.Entry
	)
	deadline := time.Now().Add(timeout)
	for offset := 0; ; {
		c.tag++
		var tail [4]byte
		binary.BigEndian.PutUint32(tail[:], uint32(offset))
		req, err := c.buildReq(opShardMap, "", c.tag, tail[:])
		if err != nil {
			return nil, 0, err
		}
		remain := time.Until(deadline)
		if remain <= 0 {
			return nil, 0, ErrRemoteTimeout
		}
		resp, err := c.roundtrip(req, remain)
		if err != nil {
			return nil, 0, err
		}
		if resp[0] == statusNotFound {
			return nil, 0, fmt.Errorf("%w: server carries no shard map", ErrNotFound)
		}
		if resp[0] != statusOK || len(resp) < shardMapHeaderBytes+1 {
			return nil, 0, fmt.Errorf("%w: shard map status %d", ErrBadReply, resp[0])
		}
		pageEpoch := binary.BigEndian.Uint64(resp[9:17])
		if offset > 0 && pageEpoch != epoch {
			// The map moved between pages: restart for a consistent view.
			entries = entries[:0]
			offset = 0
			epoch = pageEpoch
			continue
		}
		epoch = pageEpoch
		self = binary.BigEndian.Uint32(resp[1:5])
		total := int(binary.BigEndian.Uint16(resp[17:19]))
		count := int(resp[shardMapHeaderBytes])
		if len(resp) < shardMapHeaderBytes+1+count*shardEntryBytes {
			return nil, 0, fmt.Errorf("%w: truncated shard map page", ErrBadReply)
		}
		for i := 0; i < count; i++ {
			entries = append(entries, decodeShardEntry(resp[shardMapHeaderBytes+1+i*shardEntryBytes:]))
		}
		offset += count
		if offset >= total {
			return shardmap.Restore(epoch, entries), self, nil
		}
		if count == 0 {
			return nil, 0, fmt.Errorf("%w: shard map page at offset %d carried no entries (total %d)",
				ErrBadReply, offset, total)
		}
	}
}

// Unregister removes name at the server.
func (c *Client) Unregister(name string, timeout time.Duration) error {
	st, _, err := c.call(opUnregister, name, wire.NilAddr, timeout)
	if err != nil {
		return err
	}
	if st != statusOK {
		return fmt.Errorf("nameservice: unregister %q failed (status %d)", name, st)
	}
	return nil
}
