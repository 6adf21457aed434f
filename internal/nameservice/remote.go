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
// The protocol is 14 ops over one request and one response layout. What
// an op is — its code, what follows the name, how it is gated, where a
// sharded caller sends it, what the registry does for it — is its row of
// opTable and nothing else: Server.process, Client.do, TopicRegistry.Apply
// and topic.ShardedDirectory all read the row. A 15th op is a row there,
// a TopicRegistry method and a typed helper in internal/topic.
//
// Request (client→server):
//
//	[0]       op code
//	[1:5]     reply address (the client's inbox)
//	[5:9]     lookup-shaped ops: the request id. Register-shaped ops:
//	          the address the op is about (Op.Addr)
//	[9]       name length n
//	[10:10+n] name (endpoint name, topic, pattern or presence key)
//	then      the row's tail fields in order (see tailField), and on a
//	          register-shaped op 4 bytes of request id after them
//
// Response (server→client):
//
//	[0]    status
//	[1:5]  result word: lookup's address, statusNotOwner's owning shard,
//	       and what each paged op's builder says
//	[5:9]  request [5:9] echoed
//	then   on a register-shaped op the request id echoed at [9:13], if
//	       the request carried one (an id-less request from a client
//	       that predates it gets the 9 bytes it always got); on a
//	       reading op the body its builder documents
//
// The client takes a reply as its answer only when every id it sent
// comes back: a late reply to an earlier, timed-out call — which on a
// register-shaped op echoes the same address whenever one subscriber
// or gateway lane works on several topics — is skipped, never read as,
// say, a statusNotOwner redirect for the wrong topic.
//
// A request passes, in order: the reserved gate ("!"-prefixed names are
// replication streams; application traffic must not mix into one), the
// shard route (statusNotOwner carries the owner, so a caller with a
// stale map re-routes without a discovery round trip), the primary
// check (a standby, or a primary that demoted itself after a store
// failure, acknowledging a mutation would serve non-durable,
// non-replicated state), the tail decode, and then its handler.

// OpKind is an op's wire code. The directory ops — the requests
// internal/topic builds as Op values — are exported; the rest are
// reached through their Client methods only.
type OpKind uint8

const (
	opRegister           OpKind = 1
	opLookup             OpKind = 2
	opUnregister         OpKind = 3
	OpSubscribe          OpKind = 4
	OpUnsubscribe        OpKind = 5
	OpSnapshot           OpKind = 6
	opRegistryInfo       OpKind = 7
	opTopicList          OpKind = 8
	OpAckCursor          OpKind = 9
	opShardMap           OpKind = 10
	OpSubscribePattern   OpKind = 11
	OpUnsubscribePattern OpKind = 12
	OpUpsertPresence     OpKind = 13
	OpDropPresence       OpKind = 14
)

const (
	statusOK         = 0
	statusNotFound   = 1
	statusDuplicate  = 2
	statusBad        = 3
	statusNotPrimary = 4
	statusNotOwner   = 5
	statusReserved   = 6
)

// Op is one directory request as a value: TopicRegistry.Apply executes
// it in process, Client.Do at a remote registry, and every
// topic.Directory forwards it unopened.
type Op struct {
	Kind  OpKind
	Name  string    // topic, pattern or presence key
	Addr  wire.Addr // the subscriber's data address; presence: the gateway's control address
	Class uint8     // OpSubscribe: the topic's class byte
	Seq   uint64    // OpAckCursor: the acknowledged sequence
	Sub   string    // OpAckCursor: the subscriber's stable name; OpUpsertPresence: the gateway's
}

// tailField is one op-specific field after the name.
type tailField uint8

const (
	tClass  tailField = iota // 1 byte, Op.Class; a request ending before it declares class 0
	tMarker                  // 1 byte, reservedMagic; only a privileged client sends it
	tSeq                     // 8 bytes, Op.Seq
	tSub                     // length byte (1..255) then Op.Sub
	tOffset                  // page offset, 4 bytes (the 2 bytes pre-failover clients send are still read; none is 0)
)

// reservedMagic is the privilege marker a replica puts in the tMarker
// field of requests on reserved "!"-prefixed topics (Client.Privileged).
// This is an anti-foot-gun, not a security boundary: anything on the
// fabric can forge frames anyway (the paper's trust model); the marker
// exists so no stock client wanders into a replication stream by name
// collision or typo.
const reservedMagic = 0x52

// opRow is everything the protocol knows about one op.
type opRow struct {
	name string // as client errors spell it; "" marks an unassigned code
	// tagged: lookup-shaped, [5:9] is the request id. Otherwise the op
	// is register-shaped: [5:9] is Op.Addr and the id trails the tail.
	tagged bool
	tail   []tailField // in wire order
	// guarded: a "!"-prefixed name is refused with statusReserved —
	// unless the row has a tMarker field and the request fills it.
	guarded bool
	// routed: the name belongs to one shard. Anywhere else the server
	// answers statusNotOwner and a sharded caller follows the owner.
	routed bool
	// mutation: refused with statusNotPrimary where the info source
	// says this node is not the primary.
	mutation bool
	// everyShard: a sharded caller sends it to every shard (a pattern
	// can match topics on any of them).
	everyShard bool
	// apply is the registry call of a directory op (OpSnapshot, the one
	// with a result, is TopicRegistry.Snapshot), and all the server does
	// for it.
	apply func(r *TopicRegistry, op Op) error
	// serve builds the response of an op that is not a registry call,
	// or whose response has a body.
	serve func(s *Server, q *request) []byte
}

// request is a parsed, admitted request on its way to a serve function.
type request struct {
	op     Op
	offset int    // tOffset
	resp   []byte // status ok and the echoes in place; cap(resp) is the payload a response may fill
}

// opTable is the protocol, one row an op.
var opTable = [...]opRow{
	// register: bind name to Op.Addr in the endpoint directory.
	opRegister: {name: "register", serve: func(s *Server, q *request) []byte {
		if err := s.dir.Register(q.op.Name, q.op.Addr); errors.Is(err, ErrDuplicate) {
			q.resp[0] = statusDuplicate
		} else if err != nil {
			q.resp[0] = statusBad
		}
		return q.resp
	}},
	// lookup: resolve name; the address comes back in [1:5].
	opLookup: {name: "lookup", tagged: true, serve: func(s *Server, q *request) []byte {
		if addr, err := s.dir.Lookup(q.op.Name); err != nil {
			q.resp[0] = statusNotFound
		} else {
			binary.BigEndian.PutUint32(q.resp[1:5], uint32(addr))
		}
		return q.resp
	}},
	// unregister: drop name's binding (idempotent; Op.Addr is 0).
	opUnregister: {name: "unregister", serve: func(s *Server, q *request) []byte {
		s.dir.Unregister(q.op.Name)
		return q.resp
	}},
	// subscribe: add or renew Op.Addr's subscription to topic name,
	// declaring the topic's class. Renewing is the subscriber's job:
	// the registry ages out what is not renewed within its TTL.
	OpSubscribe: {name: "subscribe", tail: []tailField{tClass, tMarker}, guarded: true, routed: true, mutation: true,
		apply: func(r *TopicRegistry, op Op) error {
			if err := r.Declare(op.Name, op.Class); err != nil {
				return err
			}
			return r.Subscribe(op.Name, op.Addr)
		}},
	// unsubscribe: remove Op.Addr from topic name (idempotent).
	OpUnsubscribe: {name: "unsubscribe", tail: []tailField{tMarker}, guarded: true, routed: true, mutation: true,
		apply: func(r *TopicRegistry, op Op) error {
			r.Unsubscribe(op.Name, op.Addr)
			return nil
		}},
	// snapshot: topic name's membership, paged (snapResponse). A reserved
	// stream reads like any topic, and is always local (routeFor).
	OpSnapshot: {name: "topic snapshot", tagged: true, tail: []tailField{tOffset}, routed: true, serve: (*Server).snapResponse},
	// registry info: the node's failover status (infoResponse).
	opRegistryInfo: {name: "registry info", tagged: true, serve: (*Server).infoResponse},
	// topic list: every topic name, paged (listResponse); with a snapshot
	// per name, enough for a replica to bootstrap a full resync.
	opTopicList: {name: "topic list", tagged: true, tail: []tailField{tOffset}, serve: (*Server).listResponse},
	// cursor ack: record subscriber Op.Sub's durable-stream cursor on
	// topic name. Max-merged, so a retry or a reordered ack is harmless.
	// Never on a reserved topic: replication streams are not durable
	// topics, privileged caller or not.
	OpAckCursor: {name: "cursor ack", tagged: true, tail: []tailField{tSeq, tSub}, guarded: true, routed: true, mutation: true,
		apply: func(r *TopicRegistry, op Op) error { return r.AckCursor(op.Name, op.Sub, op.Seq) }},
	// shard map: the consistent-hash map and this node's shard id, paged
	// (shardMapResponse); statusNotFound from an unsharded node.
	opShardMap: {name: "shard map", tagged: true, tail: []tailField{tOffset}, serve: (*Server).shardMapResponse},
	// pattern sub: add or renew Op.Addr's subscription to every topic
	// matching wildcard name (grammar: ValidPattern). Each shard merges
	// its own matches into the snapshots it serves. Lease-renewed soft
	// state, never journaled.
	OpSubscribePattern: {name: "pattern subscribe", mutation: true, everyShard: true,
		apply: func(r *TopicRegistry, op Op) error { return r.SubscribePattern(op.Name, op.Addr) }},
	// pattern unsub: the mirror of pattern sub.
	OpUnsubscribePattern: {name: "pattern unsubscribe", mutation: true, everyShard: true,
		apply: func(r *TopicRegistry, op Op) error {
			if err := ValidPattern(op.Name); err != nil {
				return err
			}
			r.UnsubscribePattern(op.Name, op.Addr)
			return nil
		}},
	// presence up: record or renew client key name's presence lease at
	// gateway Op.Sub, reachable through control address Op.Addr. Routed
	// by the KEY's hash, so the edge plane's lease load spreads over the
	// registry tier; a dead gateway's clients age out.
	OpUpsertPresence: {name: "presence upsert", tail: []tailField{tSub}, guarded: true, routed: true, mutation: true,
		apply: func(r *TopicRegistry, op Op) error { return r.UpsertPresence(op.Name, op.Sub, op.Addr) }},
	// presence drop: remove key name's lease (idempotent); routed like 13.
	OpDropPresence: {name: "presence drop", tagged: true, guarded: true, routed: true, mutation: true,
		apply: func(r *TopicRegistry, op Op) error {
			r.DropPresence(op.Name)
			return nil
		}},
}

// rowOf returns kind's row, nil for a code the protocol does not assign.
func rowOf(kind OpKind) *opRow {
	if int(kind) >= len(opTable) || opTable[kind].name == "" {
		return nil
	}
	return &opTable[kind]
}

// EveryShard reports whether a sharded caller sends the op to every
// shard rather than to the one owning Op.Name.
func (k OpKind) EveryShard() bool {
	row := rowOf(k)
	return row != nil && row.everyShard
}

// Apply executes one directory op against the registry: what the server
// does with an admitted request and topic.LocalDirectory does in process.
// A snapshot of a topic nobody declared is empty, not an error.
func (r *TopicRegistry) Apply(op Op) (TopicSnapshot, error) {
	if op.Kind == OpSnapshot {
		snap, _ := r.Snapshot(op.Name)
		return snap, nil
	}
	row := rowOf(op.Kind)
	if row == nil || row.apply == nil {
		return TopicSnapshot{}, fmt.Errorf("nameservice: op %d is not a directory op", op.Kind)
	}
	return TopicSnapshot{}, row.apply(r, op)
}

// marked reports whether tail fills the row's tMarker field. Only
// single-byte fields precede a marker, so its index in the row is its
// offset in the tail.
func (r *opRow) marked(tail []byte) bool {
	for i, f := range r.tail {
		if f == tMarker {
			return i < len(tail) && tail[i] == reservedMagic
		}
	}
	return false
}

// splitID cuts a register-shaped request's tail into the declared
// fields and the 4-byte request id behind them. The id is there exactly
// when the tail is 4 bytes longer than one the row's fields can spell:
// tClass and tMarker are each there or not (0..2 bytes on subscribe, so
// an id makes the tail 4..6; 0..1 and 4..5 on unsubscribe; exactly 4
// where the row has no fields), a tSub is as long as its first byte
// says. Any other length is an id-less request whose tail reads as it
// always did — which is what keeps tail[0] the class and tail[1] the
// marker, never a byte of somebody's id.
func (r *opRow) splitID(tail []byte) (declared, id []byte) {
	lo, hi := 0, 0
	for _, f := range r.tail {
		switch f {
		case tClass, tMarker:
			hi++
		case tSub:
			if len(tail) > 0 {
				lo, hi = lo+1+int(tail[0]), hi+1+int(tail[0])
			}
		}
	}
	if n := len(tail) - 4; n >= lo && n <= hi {
		return tail[:n], tail[n:]
	}
	return tail, nil
}

// decodeTail reads the row's fields from tail into op, reporting the
// page offset and whether every required field was whole.
func (r *opRow) decodeTail(op *Op, tail []byte) (offset int, ok bool) {
	for _, f := range r.tail {
		switch f {
		case tClass:
			if len(tail) > 0 {
				op.Class, tail = tail[0], tail[1:]
			}
		case tMarker: // read by the reserved gate
			if len(tail) > 0 {
				tail = tail[1:]
			}
		case tSeq:
			if len(tail) < 8 {
				return 0, false
			}
			op.Seq, tail = binary.BigEndian.Uint64(tail), tail[8:]
		case tSub:
			if len(tail) < 1 || tail[0] == 0 || 1+int(tail[0]) > len(tail) {
				return 0, false
			}
			op.Sub, tail = string(tail[1:1+int(tail[0])]), tail[1+int(tail[0]):]
		case tOffset:
			if len(tail) >= 4 {
				offset = int(binary.BigEndian.Uint32(tail))
			} else if len(tail) >= 2 {
				offset = int(binary.BigEndian.Uint16(tail))
			}
		}
	}
	return offset, true
}

// appendTail is decodeTail's inverse, on the client.
func (r *opRow) appendTail(req []byte, op Op, privileged bool, offset int) ([]byte, error) {
	for _, f := range r.tail {
		switch f {
		case tClass:
			req = append(req, op.Class)
		case tMarker:
			if privileged {
				req = append(req, reservedMagic)
			}
		case tSeq:
			req = binary.BigEndian.AppendUint64(req, op.Seq)
		case tSub:
			if len(op.Sub) == 0 || len(op.Sub) > 255 {
				return nil, fmt.Errorf("nameservice: %s %q: bad name length %d", r.name, op.Name, len(op.Sub))
			}
			req = append(append(req, byte(len(op.Sub))), op.Sub...)
		case tOffset:
			req = binary.BigEndian.AppendUint32(req, uint32(offset))
		}
	}
	return req, nil
}

// statusSentinel is the error a caller can test for, per refusal status.
var statusSentinel = map[byte]error{statusNotFound: ErrNotFound, statusDuplicate: ErrDuplicate,
	statusNotPrimary: ErrNotPrimary, statusReserved: ErrReserved}

// statusErr maps a response's status to the client's error.
func (r *opRow) statusErr(name string, resp []byte) error {
	switch sentinel := statusSentinel[resp[0]]; {
	case resp[0] == statusOK:
		return nil
	case resp[0] == statusNotOwner:
		return &NotOwnerError{Topic: name, Shard: binary.BigEndian.Uint32(resp[1:5])}
	case sentinel != nil:
		return fmt.Errorf("%w: %s %q", sentinel, r.name, name)
	}
	return fmt.Errorf("nameservice: %s %q failed (status %d)", r.name, name, resp[0])
}

// Fixed prefixes of the reading ops' responses, and the shardmap entry
// encoding (id 4, weight 2, addr 4) of shard-map pages.
const (
	snapHeaderBytes     = 11
	infoRespBytes       = 34
	shardMapHeaderBytes = 19
	shardEntryBytes     = 10
)

// RegistryInfo is a registry node's failover-relevant status, served by
// the registry-info op.
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

// shardMap returns the current shard map, nil at an unsharded server.
func (s *Server) shardMap() *shardmap.Map {
	if s.shards == nil {
		return nil
	}
	return s.shards()
}

// routeFor resolves a topic's owning shard, reporting whether this
// node owns it. Unsharded servers, unroutable names, and reserved
// "!"-prefixed infrastructure topics are always owned locally.
func (s *Server) routeFor(name string) (uint32, bool) {
	m := s.shardMap()
	if m == nil || name == "" || name[0] == '!' {
		return s.shardSelf, true
	}
	if owner, ok := m.ShardOf(name); ok {
		return owner, owner == s.shardSelf
	}
	return s.shardSelf, true
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
	s.handle(req, 0)
	return true
}

// Serve blocks handling requests at the given scheduler priority until
// the domain closes.
func (s *Server) Serve(prio core.Priority) {
	for {
		req, _, err := s.in.ReceiveBlock(prio, time.Time{})
		if err != nil {
			return
		}
		s.handle(req, prio)
	}
}

// handle answers one request. A reply whose outbox stays backlogged for
// one doorbell round (the engine holds earlier replies for a peer that
// is down) is dropped: the client's timeout handles the loss, like any
// FLIPC discard, and the server moves on to the next request.
func (s *Server) handle(req []byte, prio core.Priority) {
	replyTo, resp := s.process(req, s.out.MaxPayload())
	if resp != nil {
		_ = s.out.SendBlock(replyTo, resp, prio, time.Now().Add(core.WakePollFallback))
	}
}

// process parses and executes one request, returning the reply address
// and response bytes (nil response: the request carried no valid reply
// address, so there is nobody to refuse to). Factored from the receive
// loop so the protocol parser can be driven directly — the fuzz harness
// feeds it arbitrary requests without a live domain. This is the one
// place a request is gated; the order is the one the file header gives.
func (s *Server) process(req []byte, maxPayload int) (wire.Addr, []byte) {
	if len(req) < 10 {
		return wire.NilAddr, nil
	}
	replyTo := wire.Addr(binary.BigEndian.Uint32(req[1:5]))
	if !replyTo.Valid() {
		return wire.NilAddr, nil
	}
	resp := make([]byte, 9, maxPayload)
	copy(resp[5:9], req[5:9])
	refuse := func(status byte, word uint32) (wire.Addr, []byte) {
		resp[0] = status
		binary.BigEndian.PutUint32(resp[1:5], word)
		return replyTo, resp
	}
	n := int(req[9])
	row := rowOf(OpKind(req[0]))
	if row == nil || 10+n > len(req) {
		return refuse(statusBad, 0)
	}
	op := Op{Kind: OpKind(req[0]), Name: string(req[10 : 10+n]), Addr: wire.Addr(binary.BigEndian.Uint32(req[5:9]))}
	tail := req[10+n:]
	if !row.tagged {
		var id []byte
		tail, id = row.splitID(tail)
		resp = append(resp, id...)
	}
	if row.guarded && reserved(op.Name) && !row.marked(tail) {
		return refuse(statusReserved, 0)
	}
	if row.routed {
		if owner, owned := s.routeFor(op.Name); !owned {
			return refuse(statusNotOwner, owner)
		}
	}
	if row.mutation && !s.mutable() {
		return refuse(statusNotPrimary, 0)
	}
	offset, ok := row.decodeTail(&op, tail)
	if !ok {
		return refuse(statusBad, 0)
	}
	if row.serve != nil {
		return replyTo, row.serve(s, &request{op: op, offset: offset, resp: resp})
	}
	if err := row.apply(s.topics, op); err != nil {
		return refuse(statusBad, 0)
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

// infoResponse answers registry info: [9] role (1 = primary) | [10:18]
// registry generation | [18:26] mutation seq | [26:34] sweep epoch.
// Clients probe it to detect a failed-over registry (the generation
// moved); a standby bounds its replication lag with gen+seq before it
// takes over.
func (s *Server) infoResponse(q *request) []byte {
	info := RegistryInfo{Primary: true, Gen: s.topics.RegistryGen(), Epoch: s.topics.Epoch()}
	if s.info != nil {
		info = s.info()
	}
	resp := append(q.resp, 0)
	if info.Primary {
		resp[9] = 1
	}
	resp = binary.BigEndian.AppendUint64(resp, info.Gen)
	resp = binary.BigEndian.AppendUint64(resp, info.Seq)
	return binary.BigEndian.AppendUint64(resp, info.Epoch)
}

// listResponse answers one topic-list page: [1:5] total topic count |
// [9] entries in this page | then per entry a length byte and the name.
// The client pages until its offset reaches the total.
func (s *Server) listResponse(q *request) []byte {
	resp := append(q.resp, 0)
	names := s.topics.Topics()
	binary.BigEndian.PutUint32(resp[1:5], uint32(len(names)))
	for i := q.offset; i < len(names) && resp[9] < 255 && len(resp)+1+len(names[i]) <= cap(q.resp); i++ {
		resp = append(append(resp, byte(len(names[i]))), names[i]...)
		resp[9]++
	}
	return resp
}

// shardMapResponse answers one shard-map page: [1:5] this server's shard
// id | [9:17] map epoch | [17:19] total entries | [19] entries in this
// page | then the entries. statusNotFound when the node carries no map
// (unsharded deployment).
func (s *Server) shardMapResponse(q *request) []byte {
	resp := append(q.resp, make([]byte, shardMapHeaderBytes+1-len(q.resp))...)
	m := s.shardMap()
	if m == nil {
		resp[0] = statusNotFound
		return resp
	}
	binary.BigEndian.PutUint32(resp[1:5], s.shardSelf)
	binary.BigEndian.PutUint64(resp[9:17], m.Epoch())
	entries := m.Entries()
	binary.BigEndian.PutUint16(resp[17:19], uint16(len(entries)))
	for i := q.offset; i < len(entries) && resp[19] < 255 && len(resp)+shardEntryBytes <= cap(q.resp); i++ {
		resp = binary.BigEndian.AppendUint32(resp, entries[i].ID)
		resp = binary.BigEndian.AppendUint16(resp, entries[i].Weight)
		resp = binary.BigEndian.AppendUint32(resp, entries[i].Addr)
		resp[19]++
	}
	return resp
}

// snapResponse answers one topic-snapshot page: [1:5] membership
// generation | [9] class | [10] addresses in this page | then 4 bytes an
// address. A page holding fewer than fit is the last, and carries the
// pattern block after it when space allows: a count byte and the
// pattern-plane subscribers matching the topic, already deduplicated
// against the exact set. Old clients never read past the exact block;
// old servers never append one, which new clients read as no patterns.
func (s *Server) snapResponse(q *request) []byte {
	resp := append(q.resp, 0, 0)
	snap, ok := s.topics.Snapshot(q.op.Name)
	if !ok {
		resp[0] = statusNotFound
		return resp
	}
	binary.BigEndian.PutUint32(resp[1:5], snap.Gen)
	resp[9] = snap.Class
	perPage := min((cap(q.resp)-snapHeaderBytes)/4, 255)
	for i := q.offset; i < len(snap.Subs) && int(resp[10]) < perPage; i++ {
		resp = binary.BigEndian.AppendUint32(resp, uint32(snap.Subs[i].Addr))
		resp[10]++
	}
	// Pattern subscribers per topic are a handful of gateway endpoints,
	// so the last page holds them at any realistic payload size; a
	// block cut to the space left self-heals on the next plan refresh
	// once the exact set shrinks or the payload grows.
	if pats := min(len(snap.Pats), (cap(q.resp)-len(resp)-1)/4, 255); int(resp[10]) < perPage && pats > 0 {
		resp = append(resp, byte(pats))
		for _, p := range snap.Pats[:pats] {
			resp = binary.BigEndian.AppendUint32(resp, uint32(p.Addr))
		}
	}
	return resp
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

// do performs one request/response exchange, for every op: lay the
// request out from the op's row, send it, wait for the reply that echoes
// what this request sent, and map its status. The send and the reply
// share the one deadline.
func (c *Client) do(op Op, offset int, deadline time.Time) ([]byte, error) {
	row := rowOf(op.Kind)
	if row == nil {
		return nil, fmt.Errorf("nameservice: unknown op %d", op.Kind)
	}
	c.tag++
	field := c.tag
	if !row.tagged {
		field = uint32(op.Addr)
	}
	req := make([]byte, 10, c.d.MaxPayload())
	req[0] = byte(op.Kind)
	binary.BigEndian.PutUint32(req[1:5], uint32(c.in.Addr()))
	binary.BigEndian.PutUint32(req[5:9], field)
	req[9] = byte(len(op.Name))
	req, err := row.appendTail(append(req, op.Name...), op, c.Privileged, offset)
	if err != nil {
		return nil, err
	}
	if !row.tagged {
		req = binary.BigEndian.AppendUint32(req, c.tag)
	}
	if len(op.Name) > 200 || len(req) > c.d.MaxPayload() {
		return nil, fmt.Errorf("nameservice: name %q too long for message size", op.Name)
	}
	if err := c.out.SendBlock(c.server, req, 0, deadline); err != nil {
		return nil, remoteErr(err)
	}
	for {
		resp, _, err := c.in.ReceiveBlock(0, deadline)
		if err != nil {
			return nil, remoteErr(err)
		}
		if len(resp) < 9 {
			return nil, ErrBadReply
		}
		if !bytes.Equal(resp[5:9], req[5:9]) ||
			!row.tagged && (len(resp) < 13 || !bytes.Equal(resp[9:13], req[len(req)-4:])) {
			continue // the late answer to an earlier call that timed out
		}
		return resp, row.statusErr(op.Name, resp)
	}
}

// remoteErr reports a blocking call's deadline as the client's timeout.
func remoteErr(err error) error {
	if errors.Is(err, core.ErrTimeout) {
		return ErrRemoteTimeout
	}
	return err
}

// Do executes one directory op at the server, with the meaning
// TopicRegistry.Apply gives it in process. A sharded registry can answer
// a *NotOwnerError redirect: follow it with FollowOwner.
func (c *Client) Do(op Op, timeout time.Duration) (TopicSnapshot, error) {
	if op.Kind == OpSnapshot {
		snap, err := c.TopicSnapshot(op.Name, timeout)
		if errors.Is(err, ErrNotFound) {
			return TopicSnapshot{Name: op.Name}, nil
		}
		return snap, err
	}
	if row := rowOf(op.Kind); row == nil || row.apply == nil {
		return TopicSnapshot{}, fmt.Errorf("nameservice: op %d is not a directory op", op.Kind)
	}
	_, err := c.do(op, 0, time.Now().Add(timeout))
	return TopicSnapshot{}, err
}

// Register publishes name → addr at the server.
func (c *Client) Register(name string, addr wire.Addr, timeout time.Duration) error {
	_, err := c.do(Op{Kind: opRegister, Name: name, Addr: addr}, 0, time.Now().Add(timeout))
	return err
}

// Lookup resolves name at the server.
func (c *Client) Lookup(name string, timeout time.Duration) (wire.Addr, error) {
	resp, err := c.do(Op{Kind: opLookup, Name: name}, 0, time.Now().Add(timeout))
	if err != nil {
		return wire.NilAddr, err
	}
	return wire.Addr(binary.BigEndian.Uint32(resp[1:5])), nil
}

// Unregister removes name at the server.
func (c *Client) Unregister(name string, timeout time.Duration) error {
	_, err := c.do(Op{Kind: opUnregister, Name: name}, 0, time.Now().Add(timeout))
	return err
}

// RegistryInfo fetches the registry node's failover status: role,
// registry generation, durable sequence, and sweep epoch. Clients use
// it to detect a failed-over registry (the generation moved) and to
// pick the primary among candidate registry endpoints.
func (c *Client) RegistryInfo(timeout time.Duration) (RegistryInfo, error) {
	resp, err := c.do(Op{Kind: opRegistryInfo}, 0, time.Now().Add(timeout))
	if err == nil && len(resp) < infoRespBytes {
		err = fmt.Errorf("%w: registry info of %d bytes", ErrBadReply, len(resp))
	}
	if err != nil {
		return RegistryInfo{}, err
	}
	return RegistryInfo{
		Primary: resp[9] == 1,
		Gen:     binary.BigEndian.Uint64(resp[10:18]),
		Seq:     binary.BigEndian.Uint64(resp[18:26]),
		Epoch:   binary.BigEndian.Uint64(resp[26:34]),
	}, nil
}

// pages fetches a paged op: it requests offset 0 and hands every
// response to add, which takes the page in and says where the next one
// starts — 0 when the view moved under the fetch and it starts over —
// or that this page was the last. A page that neither ends the fetch
// nor advances it is an error, not completion: one topic name the
// server cannot fit into a page (or any other stall) must not let a
// replica bootstrap silently install incomplete state.
func (c *Client) pages(kind OpKind, name string, timeout time.Duration, add func(resp []byte, offset int) (next int, done bool, err error)) error {
	deadline := time.Now().Add(timeout)
	for offset := 0; ; {
		resp, err := c.do(Op{Kind: kind, Name: name}, offset, deadline)
		if err != nil {
			return err
		}
		next, done, err := add(resp, offset)
		if err != nil || done {
			return err
		}
		if next == offset {
			return fmt.Errorf("%w: page at offset %d carried no entries", ErrBadReply, offset)
		}
		offset = next
	}
}

// TopicSnapshot fetches topic's full membership from the server.
// ErrNotFound when nobody declared the topic and no pattern matches it.
func (c *Client) TopicSnapshot(topic string, timeout time.Duration) (TopicSnapshot, error) {
	snap := TopicSnapshot{Name: topic}
	perPage := min((c.d.MaxPayload()-snapHeaderBytes)/4, 255)
	err := c.pages(OpSnapshot, topic, timeout, func(resp []byte, offset int) (int, bool, error) {
		return snapPage(&snap, perPage, resp, offset)
	})
	return snap, err
}

// snapPage takes one snapshot page (layout at snapResponse) into snap.
func snapPage(snap *TopicSnapshot, perPage int, resp []byte, offset int) (next int, done bool, err error) {
	if len(resp) < snapHeaderBytes || len(resp) < snapHeaderBytes+4*int(resp[10]) {
		return 0, false, fmt.Errorf("%w: truncated snapshot page", ErrBadReply)
	}
	gen, count, body := binary.BigEndian.Uint32(resp[1:5]), int(resp[10]), resp[snapHeaderBytes:]
	if offset > 0 && gen != snap.Gen {
		// Membership moved between pages: restart for a consistent view.
		snap.Subs = snap.Subs[:0]
		return 0, false, nil
	}
	snap.Gen, snap.Class = gen, resp[9]
	for i := 0; i < count; i++ {
		snap.Subs = append(snap.Subs, Subscription{Addr: wire.Addr(binary.BigEndian.Uint32(body[4*i:]))})
	}
	if count >= perPage {
		return offset + count, false, nil
	}
	if body = body[4*count:]; len(body) > 0 {
		if len(body) < 1+4*int(body[0]) {
			return 0, false, fmt.Errorf("%w: truncated snapshot pattern block", ErrBadReply)
		}
		for i := 0; i < int(body[0]); i++ {
			snap.Pats = append(snap.Pats, Subscription{Addr: wire.Addr(binary.BigEndian.Uint32(body[1+4*i:]))})
		}
	}
	return offset + count, true, nil
}

// TopicList fetches every topic name known to the registry. With
// TopicSnapshot per name, it is enough for a replica to bootstrap a
// full state resync.
func (c *Client) TopicList(timeout time.Duration) ([]string, error) {
	var names []string
	err := c.pages(opTopicList, "", timeout, func(resp []byte, offset int) (int, bool, error) {
		return listPage(&names, resp, offset)
	})
	return names, err
}

// listPage takes one topic-list page (layout at listResponse) into names.
func listPage(names *[]string, resp []byte, offset int) (next int, done bool, err error) {
	if len(resp) < 10 {
		return 0, false, fmt.Errorf("%w: truncated topic list page", ErrBadReply)
	}
	body := resp[10:]
	for i := 0; i < int(resp[9]); i++ {
		if len(body) < 1 || len(body) < 1+int(body[0]) {
			return 0, false, fmt.Errorf("%w: truncated topic list page", ErrBadReply)
		}
		*names = append(*names, string(body[1:1+int(body[0])]))
		body = body[1+int(body[0]):]
	}
	next = offset + int(resp[9])
	return next, next >= int(binary.BigEndian.Uint32(resp[1:5])), nil
}

// ShardMap fetches the registry shard map from the server, returning
// the reconstructed map and the answering node's own shard id. A node
// without a map (unsharded deployment) returns ErrNotFound.
func (c *Client) ShardMap(timeout time.Duration) (*shardmap.Map, uint32, error) {
	var f shardMapFetch
	if err := c.pages(opShardMap, "", timeout, f.page); err != nil {
		return nil, 0, err
	}
	return shardmap.Restore(f.epoch, f.entries), f.self, nil
}

// shardMapFetch accumulates the pages of one ShardMap call.
type shardMapFetch struct {
	epoch   uint64
	self    uint32
	entries []shardmap.Entry
}

// page takes one shard-map page (layout at shardMapResponse) into f.
func (f *shardMapFetch) page(resp []byte, offset int) (next int, done bool, err error) {
	const header = shardMapHeaderBytes + 1
	if len(resp) < header || len(resp) < header+shardEntryBytes*int(resp[header-1]) {
		return 0, false, fmt.Errorf("%w: truncated shard map page", ErrBadReply)
	}
	epoch := binary.BigEndian.Uint64(resp[9:17])
	if offset > 0 && epoch != f.epoch {
		// The map moved between pages: restart for a consistent view.
		f.entries = f.entries[:0]
		return 0, false, nil
	}
	f.epoch, f.self = epoch, binary.BigEndian.Uint32(resp[1:5])
	for i := 0; i < int(resp[header-1]); i++ {
		b := resp[header+i*shardEntryBytes:]
		f.entries = append(f.entries, shardmap.Entry{
			ID:     binary.BigEndian.Uint32(b[0:4]),
			Weight: binary.BigEndian.Uint16(b[4:6]),
			Addr:   binary.BigEndian.Uint32(b[6:10]),
		})
	}
	next = offset + int(resp[header-1])
	return next, next >= int(binary.BigEndian.Uint16(resp[17:19])), nil
}
