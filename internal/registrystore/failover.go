package registrystore

import (
	"sync"

	"flipc/internal/nameservice"
)

// Role is a registry node's current role.
type Role uint8

const (
	// RoleStandby tracks the primary's mutation stream and serves no
	// mutations of its own.
	RoleStandby Role = iota
	// RolePrimary serves mutations, journals them, and feeds the
	// replication stream.
	RolePrimary
)

// String names the role.
func (r Role) String() string {
	if r == RolePrimary {
		return "primary"
	}
	return "standby"
}

// Manager owns a registry node's role policy: when to journal (primary
// only), how to fence a promotion, and when to yield to a peer whose
// fence is at or above ours (the double-failover rule).
//
// Promotion fencing: the new primary serves at
// max(recovered generation, highest peer generation observed) + 1 —
// strictly above everything any incarnation ever served — bumps every
// topic's membership generation so cached publisher plans read as
// stale, journals the fence (making the incarnation boundary part of
// the log, so later replays reconstruct generations exactly), and
// restamps every lease so divergent subscriber sets reconcile by
// re-validation instead of mass expiry.
type Manager struct {
	mu   sync.Mutex
	role Role
	reg  *nameservice.TopicRegistry
	st   *Store
	feed *Feed

	floor      uint64 // highest peer registry generation observed
	promotions uint64
	demotions  uint64
}

// NewManager wraps a recovered (Open'd) store and its registry. The
// node starts as a standby; call Promote to begin serving.
func NewManager(reg *nameservice.TopicRegistry, st *Store) *Manager {
	return &Manager{reg: reg, st: st}
}

// AttachFeed connects the replication stream (primary side). Journaled
// records are enqueued to it from the mutation observer.
func (m *Manager) AttachFeed(f *Feed) {
	m.mu.Lock()
	m.feed = f
	m.mu.Unlock()
}

// Role returns the node's current role.
func (m *Manager) Role() Role {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.role
}

// Promote fences a new incarnation and starts serving as primary,
// returning the fenced registry generation. Idempotent: promoting a
// primary returns its current generation without a new fence.
func (m *Manager) Promote() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.role == RolePrimary {
		return m.reg.RegistryGen()
	}
	gen := m.reg.RegistryGen()
	if m.floor > gen {
		gen = m.floor
	}
	gen++
	m.reg.SetRegistryGen(gen)
	m.reg.BumpTopicGens()
	m.reg.RestampLeases()
	rec := Record{Type: RecFence, Gen: gen}
	framed := m.st.Journal(&rec)
	if framed != nil && m.feed != nil {
		m.feed.Enqueue(rec.Seq, framed)
	}
	m.reg.Observe(m.observe)
	m.role = RolePrimary
	m.promotions++
	return gen
}

// observe is the primary's mutation observer: write-ahead journal plus
// replication enqueue, called under the registry lock before the
// mutating call returns.
func (m *Manager) observe(mut nameservice.Mutation) {
	rec, ok := recordOf(mut)
	if !ok {
		return
	}
	framed := m.st.Journal(&rec)
	if framed == nil {
		// The mutation could not be made durable (sticky store error):
		// self-demote rather than keep acknowledging non-durable,
		// non-replicated mutations. The observer stays attached — we
		// are under the registry lock, so detaching here would
		// deadlock — but journals nothing further, and a server
		// consulting the role refuses mutations once it reads standby.
		m.mu.Lock()
		if m.role == RolePrimary && m.st.Err() != nil {
			m.role = RoleStandby
			m.demotions++
		}
		m.mu.Unlock()
		return
	}
	m.mu.Lock()
	feed := m.feed
	m.mu.Unlock()
	if feed != nil {
		feed.Enqueue(rec.Seq, framed)
	}
}

// ObservePeer records a peer registry generation. If this node is
// primary and the peer's fence is at or above ours, the peer has taken
// over (or we raced a takeover): this node yields — detaches the
// journal and returns to standby — and reports true. A returning
// primary must call this with the new primary's generation before
// attempting to serve; the recorded floor also guarantees any later
// Promote fences strictly above the peer.
func (m *Manager) ObservePeer(gen uint64) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	if gen > m.floor {
		m.floor = gen
	}
	if m.role == RolePrimary && gen >= m.reg.RegistryGen() {
		m.reg.Observe(nil)
		m.role = RoleStandby
		m.demotions++
		return true
	}
	return false
}

// Heartbeat enqueues a replication heartbeat if this node is primary
// with a feed attached. The heartbeat's sequence number is the feed's
// own cursor (see Feed.Heartbeat), not the store's: the store cursor
// can run ahead of the enqueue order under concurrent mutation.
func (m *Manager) Heartbeat() {
	m.mu.Lock()
	feed, role := m.feed, m.role
	m.mu.Unlock()
	if role == RolePrimary && feed != nil {
		feed.Heartbeat(m.reg.RegistryGen())
	}
}

// Health is the registry node's durability/failover status — what
// /healthz reports and flipcstat watches.
type Health struct {
	Role        string `json:"role"`
	RegistryGen uint64 `json:"registry_gen"`
	Seq         uint64 `json:"seq"`
	SnapshotSeq uint64 `json:"snapshot_seq"`
	WALRecords  int    `json:"wal_records"`
	Epoch       uint64 `json:"epoch"`
	Promotions  uint64 `json:"promotions"`
	Demotions   uint64 `json:"demotions"`
	StoreErr    string `json:"store_err,omitempty"`
}

// Degraded reports a store error: the registry can no longer make
// mutations durable.
func (h Health) Degraded() bool { return h.StoreErr != "" }

// ShardHealth is one registry shard's status in a sharded deployment,
// as the registry node's housekeeping last probed it; a node registers
// one per shard in the map as its "shards" health source. Probed false
// with an empty Err means the shard has no address hint to probe:
// unknown, which is not treated as dead.
type ShardHealth struct {
	Shard   uint32 `json:"shard"`
	Role    string `json:"role"`
	Gen     uint64 `json:"gen"`
	Seq     uint64 `json:"seq"`
	Primary bool   `json:"primary"`
	Probed  bool   `json:"probed"`
	Err     string `json:"err,omitempty"`
}

// Degraded reports a shard confirmed to have no live primary, or whose
// probe failed outright: part of the topic namespace cannot take
// mutations, so the deployment is degraded even if this node is fine.
func (s ShardHealth) Degraded() bool { return (s.Probed && !s.Primary) || s.Err != "" }

// Health snapshots the node's durability/failover status.
func (m *Manager) Health() Health {
	m.mu.Lock()
	role, promos, demos := m.role, m.promotions, m.demotions
	m.mu.Unlock()
	h := Health{
		Role:        role.String(),
		RegistryGen: m.reg.RegistryGen(),
		Seq:         m.st.Seq(),
		SnapshotSeq: m.st.SnapshotSeq(),
		WALRecords:  m.st.WALRecords(),
		Epoch:       m.reg.Epoch(),
		Promotions:  promos,
		Demotions:   demos,
	}
	if err := m.st.Err(); err != nil {
		h.StoreErr = err.Error()
	}
	return h
}
