package nameservice

import (
	"fmt"
	"sort"
	"sync"

	"flipc/internal/wire"
)

// Topic records: the pub-sub companion to the endpoint Directory. A
// topic maps a well-known name to the set of subscriber endpoint
// addresses, so a publisher can fan one send out to every subscriber
// with FLIPC's optimistic semantics (slow subscribers lose messages,
// counted at their endpoints — the paper's unposted-receiver discard
// rule applied one-to-many).
//
// Membership is generation-stamped and lease-based:
//
//   - every join/leave bumps the topic's membership generation, so
//     publishers can cache their fanout plan and rebuild it only when
//     the generation moves;
//   - each subscription is renewed by re-subscribing (idempotent); a
//     sweep epoch (Advance) ages out subscribers that have not renewed
//     within TTL epochs, so a crashed subscriber stops costing fanout
//     work and its address — which a later domain may reuse at a new
//     endpoint generation — cannot go stale silently.

// DefaultTopicTTL is the number of sweep epochs a subscription survives
// without renewal.
const DefaultTopicTTL = 3

// Subscription is one subscriber's record in a topic.
type Subscription struct {
	Addr wire.Addr
	// Epoch is the sweep epoch of the last subscribe/renew.
	Epoch uint64
}

// TopicSnapshot is an immutable view of one topic's membership.
type TopicSnapshot struct {
	Name  string
	Class uint8 // priority class attribute (see internal/topic)
	// Gen is the topic's effective membership generation: the per-topic
	// change counter plus the registry's pattern-plane generation, so a
	// pattern joining or leaving moves every topic's Gen and cached
	// fanout plans rebuild. Publishers compare for inequality, never
	// order.
	Gen  uint32
	Subs []Subscription // ordered by address for deterministic fanout
	// Pats are the pattern-plane subscribers matching this topic that
	// are not already exact subscribers, ordered by address. Pattern
	// subscribers receive enveloped frames (topic name prefixed) and
	// take no part in credit, hello, or durable replay (see
	// internal/topic's plan merge).
	Pats []Subscription
}

// Addrs returns the subscriber addresses in snapshot order.
func (s TopicSnapshot) Addrs() []wire.Addr {
	out := make([]wire.Addr, len(s.Subs))
	for i, sub := range s.Subs {
		out[i] = sub.Addr
	}
	return out
}

type topicRecord struct {
	class uint8
	gen   uint32
	subs  map[wire.Addr]uint64 // addr -> epoch of last renewal
}

// MutationOp identifies one kind of registry state change.
type MutationOp uint8

// Mutation operations: each one moves a topic's membership or class,
// and with it the topic's generation. Lease renewals and sweep epochs
// are soft state and emit nothing; a lease that expires leaves as an
// unsubscribe.
const (
	MutDeclare MutationOp = iota + 1
	MutSubscribe
	MutUnsubscribe
)

// Mutation describes one acknowledged membership change, in exactly the
// form needed to replay it: applying the same mutations in the same
// order to an empty registry reconstructs the same topics, subscriber
// sets and generations (internal/registrystore's write-ahead record log
// and replication stream are built on this). Lease epochs are not
// reconstructed: every incarnation restamps them before it serves.
type Mutation struct {
	Op    MutationOp
	Topic string
	Addr  wire.Addr
	Class uint8
}

// MutationObserver receives every acknowledged mutation. It is called
// with the registry lock held — before the mutating call returns, so a
// write-ahead observer orders strictly with the state change — and must
// not call back into the registry.
type MutationObserver func(Mutation)

// TopicRegistry is an in-process topic → subscriber-set registry, safe
// for concurrent use. Apply executes a directory op on it, and Server
// serves the same ops remotely (the directory rows of opTable), so one
// cluster needs a single registry node.
//
// The registry carries a registry generation — a fencing epoch that a
// durable registry bumps on every restart or failover, strictly above
// any generation it ever served (see internal/registrystore). It is
// orthogonal to the per-topic membership generations.
type TopicRegistry struct {
	mu     sync.Mutex
	topics map[string]*topicRecord
	epoch  uint64
	ttl    uint64
	reggen uint64
	obs    MutationObserver

	// Edge-plane soft state (see patterns.go): wildcard pattern
	// subscriptions and client presence leases. Both are lease-renewed
	// by their owners and swept by Advance; neither is journaled or
	// replicated — a failed-over registry reconverges within one lease
	// interval as gateways re-assert them.
	pats     *PatternIndex
	patMeta  map[patKey]uint64 // (pattern, addr) -> epoch of last renewal
	patGen   uint32            // bumps on any pattern membership change
	presence map[string]presenceRec
}

// NewTopicRegistry creates an empty registry with DefaultTopicTTL.
func NewTopicRegistry() *TopicRegistry {
	return &TopicRegistry{
		topics:   make(map[string]*topicRecord),
		ttl:      DefaultTopicTTL,
		pats:     NewPatternIndex(),
		patMeta:  make(map[patKey]uint64),
		presence: make(map[string]presenceRec),
	}
}

// Observe attaches obs as the registry's mutation observer (nil
// detaches). The observer sees every later acknowledged mutation, under
// the registry lock.
func (r *TopicRegistry) Observe(obs MutationObserver) {
	r.mu.Lock()
	r.obs = obs
	r.mu.Unlock()
}

// notify forwards a mutation to the observer. Caller holds r.mu.
func (r *TopicRegistry) notify(m Mutation) {
	if r.obs != nil {
		r.obs(m)
	}
}

// record returns the topic's record, creating it if needed. Caller
// holds r.mu.
func (r *TopicRegistry) record(topic string) *topicRecord {
	t := r.topics[topic]
	if t == nil {
		t = &topicRecord{subs: make(map[wire.Addr]uint64)}
		r.topics[topic] = t
	}
	return t
}

// Declare sets a topic's priority class, creating the topic if needed.
// Class changes bump the generation so cached fanout plans refresh.
func (r *TopicRegistry) Declare(topic string, class uint8) error {
	if topic == "" {
		return fmt.Errorf("nameservice: empty topic name")
	}
	if err := ValidTopicName(topic); err != nil {
		return err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	created := r.topics[topic] == nil
	t := r.record(topic)
	if t.class != class {
		t.class = class
		t.gen++
		created = true
	}
	if created {
		r.notify(Mutation{Op: MutDeclare, Topic: topic, Class: class})
	}
	return nil
}

// Subscribe adds (or renews) addr's subscription to topic. A renewal
// refreshes the lease without bumping the membership generation, so
// steady-state renewals never invalidate publisher fanout plans, and
// only a join reaches the observer.
func (r *TopicRegistry) Subscribe(topic string, addr wire.Addr) error {
	if topic == "" {
		return fmt.Errorf("nameservice: empty topic name")
	}
	if !addr.Valid() {
		return fmt.Errorf("nameservice: subscribe %q with invalid address", topic)
	}
	if err := ValidTopicName(topic); err != nil {
		return err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	t := r.record(topic)
	_, renewal := t.subs[addr]
	t.subs[addr] = r.epoch
	if !renewal {
		t.gen++
		r.notify(Mutation{Op: MutSubscribe, Topic: topic, Addr: addr, Class: t.class})
	}
	return nil
}

// Unsubscribe removes addr from topic (idempotent).
func (r *TopicRegistry) Unsubscribe(topic string, addr wire.Addr) {
	r.mu.Lock()
	defer r.mu.Unlock()
	t := r.topics[topic]
	if t == nil {
		return
	}
	if _, joined := t.subs[addr]; joined {
		delete(t.subs, addr)
		t.gen++
		r.notify(Mutation{Op: MutUnsubscribe, Topic: topic, Addr: addr})
	}
}

// EvictEndpoint removes every subscription whose address names the
// given node and endpoint index, regardless of generation, bumping the
// affected topics' generations so cached fanout plans rebuild on their
// next refresh. It is the quarantine integration point: when an engine
// quarantines an endpoint that is also a subscriber, evicting it here
// stops fanout to it immediately instead of waiting up to TTL sweep
// epochs of counted-but-wasted sends. Returns the number of
// subscriptions removed. Evictions reach the observer as ordinary
// unsubscribes, so replay and replication need no extra record type.
func (r *TopicRegistry) EvictEndpoint(node wire.NodeID, index uint16) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	evicted := 0
	for name, t := range r.topics {
		for a := range t.subs {
			if a.Node() == node && a.Index() == index {
				delete(t.subs, a)
				t.gen++
				evicted++
				r.notify(Mutation{Op: MutUnsubscribe, Topic: name, Addr: a})
			}
		}
	}
	evicted += r.evictPatternEndpointLocked(node, index)
	return evicted
}

// Snapshot returns topic's membership, ordered by address. The ok
// result reports whether the topic exists (an existing topic may have
// zero subscribers).
func (r *TopicRegistry) Snapshot(topic string) (TopicSnapshot, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	t := r.topics[topic]
	if t == nil {
		// A topic nobody subscribed to exactly can still have pattern
		// subscribers — it reads as found when any pattern matches, so
		// publishers to pattern-only topics build a fanout plan.
		snap := TopicSnapshot{Name: topic, Gen: r.patGen}
		snap.Pats = r.patternSubsLocked(topic, nil)
		return snap, len(snap.Pats) > 0
	}
	snap := TopicSnapshot{Name: topic, Class: t.class, Gen: t.gen + r.patGen,
		Subs: make([]Subscription, 0, len(t.subs))}
	snap.Pats = r.patternSubsLocked(topic, t.subs)
	for a, e := range t.subs {
		snap.Subs = append(snap.Subs, Subscription{Addr: a, Epoch: e})
	}
	sort.Slice(snap.Subs, func(i, j int) bool { return snap.Subs[i].Addr < snap.Subs[j].Addr })
	return snap, true
}

// Gen returns topic's effective membership generation, TopicSnapshot.Gen,
// without building a snapshot: Apply's check of a snapshot's hint.
func (r *TopicRegistry) Gen(topic string) uint32 {
	r.mu.Lock()
	defer r.mu.Unlock()
	if t := r.topics[topic]; t != nil {
		return t.gen + r.patGen
	}
	return r.patGen
}

// Advance starts a new sweep epoch and ages out every subscription not
// renewed within TTL epochs, returning how many were expired. Call it
// on the lease cadence (e.g. once per renewal interval from the
// registry daemon's housekeeping loop). Each expiry reaches the
// observer as an ordinary unsubscribe, as an eviction does; the epoch
// itself is soft state.
func (r *TopicRegistry) Advance() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.epoch++
	expired := 0
	for name, t := range r.topics {
		for a, e := range t.subs {
			if r.epoch-e > r.ttl {
				delete(t.subs, a)
				t.gen++
				expired++
				r.notify(Mutation{Op: MutUnsubscribe, Topic: name, Addr: a})
			}
		}
	}
	// The edge plane's soft state ages out on the same cadence. Its
	// expiries are not folded into the return value — existing callers
	// count exact-subscription churn — but they move the pattern
	// generation, so stale pattern fanout stops on the next plan probe.
	r.sweepPatternsLocked()
	r.sweepPresenceLocked()
	return expired
}

// Epoch returns the current sweep epoch.
func (r *TopicRegistry) Epoch() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.epoch
}

// RegistryGen returns the registry generation — the fencing epoch a
// durable registry resumes above after any restart or failover.
func (r *TopicRegistry) RegistryGen() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.reggen
}

// SetRegistryGen installs the registry generation (recovery/failover
// fencing; see internal/registrystore).
func (r *TopicRegistry) SetRegistryGen(gen uint64) {
	r.mu.Lock()
	r.reggen = gen
	r.mu.Unlock()
}

// Topics returns the known topic names, sorted.
func (r *TopicRegistry) Topics() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]string, 0, len(r.topics))
	for n := range r.topics {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// TopicState is one topic's full durable state (snapshot/restore unit).
type TopicState struct {
	Name  string
	Class uint8
	Gen   uint32
	Subs  []Subscription // ordered by address
}

// RegistryState is the registry's full durable state: what a compacted
// snapshot persists and a standby replica reconciles against.
type RegistryState struct {
	Gen    uint64       // registry generation (fencing epoch)
	Epoch  uint64       // sweep epoch
	Topics []TopicState // ordered by name
}

// ExportState captures the registry's full state, deterministically
// ordered (topics by name, subscribers by address).
func (r *TopicRegistry) ExportState() RegistryState {
	r.mu.Lock()
	defer r.mu.Unlock()
	st := RegistryState{Gen: r.reggen, Epoch: r.epoch, Topics: make([]TopicState, 0, len(r.topics))}
	for name, t := range r.topics {
		ts := TopicState{Name: name, Class: t.class, Gen: t.gen, Subs: make([]Subscription, 0, len(t.subs))}
		for a, e := range t.subs {
			ts.Subs = append(ts.Subs, Subscription{Addr: a, Epoch: e})
		}
		sort.Slice(ts.Subs, func(i, j int) bool { return ts.Subs[i].Addr < ts.Subs[j].Addr })
		st.Topics = append(st.Topics, ts)
	}
	sort.Slice(st.Topics, func(i, j int) bool { return st.Topics[i].Name < st.Topics[j].Name })
	return st
}

// RestoreState replaces the registry's state wholesale (recovery and
// standby resync). The observer is not notified: restores rebuild state
// that is already durable.
func (r *TopicRegistry) RestoreState(st RegistryState) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.reggen = st.Gen
	r.epoch = st.Epoch
	r.topics = make(map[string]*topicRecord, len(st.Topics))
	for _, ts := range st.Topics {
		t := &topicRecord{class: ts.Class, gen: ts.Gen, subs: make(map[wire.Addr]uint64, len(ts.Subs))}
		for _, s := range ts.Subs {
			t.subs[s.Addr] = s.Epoch
		}
		r.topics[ts.Name] = t
	}
}

// BumpTopicGens bumps every topic's membership generation. A recovered
// or failed-over registry calls it once before serving, so every
// publisher plan built against the previous incarnation reads as stale
// even if the tail of the record log was lost: each topic resumes at a
// generation strictly above any the previous incarnation served for the
// surviving state.
func (r *TopicRegistry) BumpTopicGens() {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, t := range r.topics {
		t.gen++
	}
}

// RestampLeases refreshes every subscription's lease to the current
// epoch — the failover reconciliation window: lease renewals are soft
// state, never journaled or replicated, so a new primary cannot know how
// stale its lease epochs are; it gives every imported subscriber a full
// TTL to re-validate by renewing (live subscribers renew on their normal
// cadence; dead ones age out), instead of mass-expiring or
// mass-trusting a divergent set.
func (r *TopicRegistry) RestampLeases() {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, t := range r.topics {
		for a := range t.subs {
			t.subs[a] = r.epoch
		}
	}
}
