// Package topic provides cluster-wide publish/subscribe with
// prioritized fanout on top of FLIPC's point-to-point message cycle.
//
// A topic is a well-known name mapped — through the nameservice topic
// registry — to the set of subscriber endpoint addresses. A Publisher
// fans one Publish out to every subscriber with the protocol's
// optimistic semantics intact: sends never block, and every message a
// slow subscriber misses is counted, either at the publisher (outbox
// backpressure, accounted per subscriber) or at the subscriber's
// endpoint (the unposted-receiver discard rule). Loss is never silent.
//
// Topics carry a priority class (Control > Normal > Bulk) that is
// honored at every layer a message crosses:
//
//   - the publisher's send endpoint takes the class's transport
//     priority, so the engine's PolicyPriority ordering and its
//     ReservedQuantum low-priority cap apply per class;
//   - the class rides the wire in the header's priority flag bits
//     (wire.PriorityMask);
//   - blocking receives wait at the class's rtsched priority, so a
//     control-topic subscriber preempts bulk consumers at the
//     real-time semaphore.
//
// Fanout is peer-batched: the cached fanout plan is ordered by
// subscriber address, which groups subscribers by node, so a transport
// with the interconnect.BatchFlusher capability (nettrans BatchWrites)
// coalesces a fanout burst into one write per peer node.
//
// Flow control is per topic: each Subscriber owns a private posted
// buffer pool (its Inbox), so a hot topic exhausts its own credit, not
// its neighbors'; each Publisher's outbox pool bounds the topic's
// outstanding fanout frames. Size both with SubscriberBuffers /
// PublisherWindow, which apply internal/flowctl's static sizing rules.
package topic

import (
	"fmt"
	"time"

	"flipc/internal/core"
	"flipc/internal/flowctl"
	"flipc/internal/nameservice"
	"flipc/internal/wire"
)

// Class is a topic's priority class. Higher classes are delivered
// ahead of lower ones wherever the stack makes an ordering decision.
type Class uint8

const (
	// Bulk is the background class: large fanouts, no latency bound.
	Bulk Class = 0
	// Normal is the default class.
	Normal Class = 1
	// Control is the expedited class for small, latency-critical
	// messages (mode changes, alarms); its sends bypass bulk backlogs
	// via the engine's priority policy and quantum reservation.
	Control Class = 2

	// Durable is an attribute bit carried alongside the priority level
	// in the directory's class byte, not a priority level itself: a
	// durable topic's publishers journal every payload to a duralog
	// and its subscribers resume from per-name replay cursors (see
	// durable.go). Every party on a durable topic must declare the
	// same class byte — mixing durable and non-durable declarations
	// churns the topic generation on each lease renewal — so combine
	// it explicitly (Normal | Durable). Ordering decisions mask it
	// out via Base.
	Durable Class = 0x80
)

// Base strips attribute bits, leaving the priority level.
func (c Class) Base() Class { return c &^ Durable }

// IsDurable reports whether the class carries the durability
// attribute.
func (c Class) IsDurable() bool { return c&Durable != 0 }

// String names the class.
func (c Class) String() string {
	name := ""
	switch c.Base() {
	case Bulk:
		name = "bulk"
	case Normal:
		name = "normal"
	case Control:
		name = "control"
	default:
		name = fmt.Sprintf("class(%d)", uint8(c.Base()))
	}
	if c.IsDurable() {
		name += "+durable"
	}
	return name
}

// Valid reports whether c is a defined class (with or without
// attribute bits).
func (c Class) Valid() bool { return c.Base() <= Control }

// EndpointPriority maps the class to the transport priority of the
// publisher's send endpoint — the value engine.PolicyPriority orders by
// and engine.Config.ReservePriority thresholds against (Bulk stays at
// 0, so it is the class a quantum reservation caps).
func (c Class) EndpointPriority() uint8 {
	switch c.Base() {
	case Control:
		return 5
	case Normal:
		return 2
	}
	return 0
}

// SchedPriority maps the class to the rtsched priority a blocking
// receive waits at (higher runs first).
func (c Class) SchedPriority() core.Priority {
	switch c.Base() {
	case Control:
		return 16
	case Normal:
		return 8
	}
	return 1
}

// Flags returns the class's wire-header priority bits (the paper's
// prioritized-transport extension): receivers and taps can classify a
// frame without consulting the directory.
func (c Class) Flags() uint8 { return c.EndpointPriority() & wire.PriorityMask }

// ClassFromFlags recovers the priority class from a received
// message's flags. The wire never carries the Durable attribute —
// durability is a directory and endpoint property, so the result is
// always a base class.
func ClassFromFlags(flags uint8) Class {
	switch uint8(wire.Priority(flags)) {
	case Control.EndpointPriority():
		return Control
	case Normal.EndpointPriority():
		return Normal
	}
	return Bulk
}

// Directory is the membership plane publishers read and subscribers
// register through: it executes one nameservice.Op — the eight directory
// ops and what each means are rows of nameservice's op table — and the
// typed helpers below are how this package and the gateway spell them.
// Implementations: LocalDirectory over an in-process registry,
// RemoteDirectory over the in-band nameservice client, FailoverDirectory
// and ShardedDirectory over other directories — one forwarding method
// each.
type Directory interface {
	Do(op nameservice.Op) (nameservice.TopicSnapshot, error)
}

func do(dir Directory, op nameservice.Op) error {
	_, err := dir.Do(op)
	return err
}

// Subscribe adds (or renews) addr's subscription to topic, declaring
// the topic's class.
func Subscribe(dir Directory, topic string, addr core.Addr, class Class) error {
	return do(dir, nameservice.Op{Kind: nameservice.OpSubscribe, Name: topic, Addr: addr, Class: uint8(class)})
}

// Unsubscribe removes addr's subscription to topic.
func Unsubscribe(dir Directory, topic string, addr core.Addr) error {
	return do(dir, nameservice.Op{Kind: nameservice.OpUnsubscribe, Name: topic, Addr: addr})
}

// Snapshot reads topic's membership. A topic nobody has declared reads
// as empty, not as an error — publishing into the void is a cheap
// no-op, matching the optimistic protocol.
func Snapshot(dir Directory, topic string) (nameservice.TopicSnapshot, error) {
	return dir.Do(nameservice.Op{Kind: nameservice.OpSnapshot, Name: topic})
}

// AckCursor registers a durable subscriber's replay cursor (by its
// stable name, not its address) with the registry, so the cursor
// survives registry failover alongside the membership. Max-merged: a
// stale acknowledgment never regresses the stored cursor.
func AckCursor(dir Directory, topic, sub string, seq uint64) error {
	return do(dir, nameservice.Op{Kind: nameservice.OpAckCursor, Name: topic, Sub: sub, Seq: seq})
}

// SubscribePattern adds (or renews) addr's subscription to every topic
// matching pat. Pattern subscribers receive enveloped frames (see
// envelope.go) and must not also subscribe exactly.
func SubscribePattern(dir Directory, pat string, addr core.Addr) error {
	return do(dir, nameservice.Op{Kind: nameservice.OpSubscribePattern, Name: pat, Addr: addr})
}

// UnsubscribePattern removes addr's subscription to pat.
func UnsubscribePattern(dir Directory, pat string, addr core.Addr) error {
	return do(dir, nameservice.Op{Kind: nameservice.OpUnsubscribePattern, Name: pat, Addr: addr})
}

// UpsertPresence records (or renews) client key's presence lease at
// gateway gw, reachable through addr.
func UpsertPresence(dir Directory, key, gw string, addr core.Addr) error {
	return do(dir, nameservice.Op{Kind: nameservice.OpUpsertPresence, Name: key, Sub: gw, Addr: addr})
}

// DropPresence removes client key's presence lease.
func DropPresence(dir Directory, key string) error {
	return do(dir, nameservice.Op{Kind: nameservice.OpDropPresence, Name: key})
}

// LocalDirectory adapts an in-process TopicRegistry (single-node
// deployments, tests, and the registry daemon itself).
type LocalDirectory struct {
	R *nameservice.TopicRegistry
}

// Do implements Directory.
func (l LocalDirectory) Do(op nameservice.Op) (nameservice.TopicSnapshot, error) {
	return l.R.Apply(op)
}

// RemoteDirectory adapts the nameservice client: membership ops travel
// in-band as FLIPC messages to the cluster's registry node.
type RemoteDirectory struct {
	C *nameservice.Client
	// Timeout bounds each directory round trip (default 2s).
	Timeout time.Duration
}

// Do implements Directory.
func (r RemoteDirectory) Do(op nameservice.Op) (nameservice.TopicSnapshot, error) {
	if r.Timeout > 0 {
		return r.C.Do(op, r.Timeout)
	}
	return r.C.Do(op, 2*time.Second)
}

// SubscriberBuffers sizes a subscriber's posted-buffer pool for a
// periodic publisher: enough credit to absorb rate messages per drain
// period across two periods of consumer jitter (flowctl's periodic
// sizing rule). This pool is the topic's receive-side credit — private
// per subscription, so one saturated topic cannot starve another's
// buffers.
func SubscriberBuffers(rate int) int {
	return flowctl.PeriodicBuffers(rate, 2)
}

// PublisherWindow sizes a publisher's outbox pool — the topic's bound
// on outstanding fanout frames — as one fanout burst to subs
// subscribers with outstanding full bursts in flight (flowctl's RPC
// sizing rule with the roles transposed).
func PublisherWindow(subs, outstanding int) int {
	return flowctl.RPCBuffers(subs, outstanding)
}
