package topic

import (
	"errors"
	"fmt"
	"slices"
	"sync"

	"flipc/internal/nameservice"
	"flipc/internal/shardmap"
)

// ErrNoShard reports a topic routed to a shard this directory has no
// target for — the map names a shard that was never installed (or the
// map itself is missing).
var ErrNoShard = errors.New("topic: no directory for owning shard")

// ShardedDirectory routes every membership op to the registry shard
// that owns the topic, per the consistent-hash shard map. Each shard
// gets its own FailoverDirectory, so a failover on one shard retargets
// exactly that shard's publishers and subscribers — the other shards'
// leases, fanout plans, and replay cursors never observe it. That
// per-shard indirection is the whole point: the failure domain of a
// registry shard is the topics it owns, nothing more.
type ShardedDirectory struct {
	m *shardmap.Map // fixed at construction: a new map is a new directory

	mu     sync.RWMutex
	shards map[uint32]*FailoverDirectory
}

// NewShardedDirectory builds a sharded directory over an initial map.
// Shard targets are installed with SetShard.
func NewShardedDirectory(m *shardmap.Map) *ShardedDirectory {
	return &ShardedDirectory{m: m, shards: make(map[uint32]*FailoverDirectory)}
}

// SetShard installs (or, if the shard already has one, retargets) the
// directory for shard id. Retargeting goes through the shard's
// existing FailoverDirectory so handles held by publishers and
// subscribers stay valid across the swap — exactly the single-registry
// failover discipline, scoped to one shard.
func (s *ShardedDirectory) SetShard(id uint32, dir Directory) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if f, ok := s.shards[id]; ok {
		f.Retarget(dir)
		return
	}
	s.shards[id] = NewFailoverDirectory(dir)
}

// Shard returns shard id's FailoverDirectory (nil if never installed).
// Callers needing the retarget epoch of one shard read it here.
func (s *ShardedDirectory) Shard(id uint32) *FailoverDirectory {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.shards[id]
}

// ShardFor resolves the shard owning topic under the current map.
func (s *ShardedDirectory) ShardFor(topic string) (uint32, bool) {
	if s.m == nil {
		return 0, false
	}
	return s.m.ShardOf(topic)
}

// Do implements Directory, sending the op where its row of the op table
// says. An op for every shard (a pattern can match topics on any of
// them) goes to each installed shard in shard-id order; the first
// failure is returned after all were attempted — the others hold the
// lease, and the next renewal retries the failed one. Any other op goes
// to the shard owning op.Name (a topic, or a presence key: presence is
// spread by the client KEY's hash), following NotOwner redirects — a
// stale local map while a new spec rolls out — through the shared
// bounded helper. A redirect that names a shard this directory never installed
// surfaces as ErrNoShard: the caller must refetch the map and install
// the target, not loop.
func (s *ShardedDirectory) Do(op nameservice.Op) (snap nameservice.TopicSnapshot, err error) {
	if op.Kind.EveryShard() {
		s.mu.RLock()
		ids := make([]uint32, 0, len(s.shards))
		for id := range s.shards {
			ids = append(ids, id)
		}
		s.mu.RUnlock()
		if len(ids) == 0 {
			return snap, fmt.Errorf("%w: no shards installed for %q", ErrNoShard, op.Name)
		}
		slices.Sort(ids)
		for _, id := range ids {
			if _, e := s.Shard(id).Do(op); e != nil && err == nil {
				err = e
			}
		}
		return snap, err
	}
	start, ok := s.ShardFor(op.Name)
	if !ok {
		return snap, fmt.Errorf("%w: no shard map routes %q", ErrNoShard, op.Name)
	}
	err = nameservice.FollowOwner(start, func(shard uint32) error {
		f := s.Shard(shard)
		if f == nil {
			return fmt.Errorf("%w: shard %d for %q", ErrNoShard, shard, op.Name)
		}
		var e error
		snap, e = f.Do(op)
		return e
	})
	return snap, err
}
