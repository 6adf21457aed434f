package topic

import (
	"sync"

	"flipc/internal/core"
	"flipc/internal/nameservice"
)

// FailoverDirectory is a Directory indirection whose target can be
// swapped when the registry fails over: publishers and subscribers
// keep their directory handle for the process lifetime, and a single
// Retarget — driven by whoever watches the registry endpoint (the
// NodeRegistry, a RegistryInfo probe) — repoints every later
// subscribe, renewal, and snapshot at the new primary. No publisher
// or subscriber restarts: the new primary's fence bumped every topic
// generation, so the first snapshot from the new target reads as stale
// and every cached fanout plan rebuilds on its next refresh, while
// lease renewals re-validate the subscriber sets the new primary
// imported.
type FailoverDirectory struct {
	mu    sync.RWMutex
	dir   Directory
	epoch uint64
}

// NewFailoverDirectory wraps the initial target.
func NewFailoverDirectory(dir Directory) *FailoverDirectory {
	return &FailoverDirectory{dir: dir}
}

// Retarget swaps the directory target and bumps the retarget epoch.
func (f *FailoverDirectory) Retarget(dir Directory) {
	f.mu.Lock()
	f.dir = dir
	f.epoch++
	f.mu.Unlock()
}

// Epoch returns how many times the directory has been retargeted —
// clients compare it to detect a failover they have not yet reacted to.
func (f *FailoverDirectory) Epoch() uint64 {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return f.epoch
}

// Do implements Directory: the op goes to whatever the target is now.
func (f *FailoverDirectory) Do(op nameservice.Op) (nameservice.TopicSnapshot, error) {
	f.mu.RLock()
	dir := f.dir
	f.mu.RUnlock()
	return dir.Do(op)
}

// Evict removes addr from the cached fanout plan immediately, without
// waiting for the next directory refresh — the publisher-side half of
// quarantine integration. The directory is not touched (the registry
// eviction is the caller's job); the next refresh rebuilds the plan
// from the authoritative membership. Safe against a concurrent Publish
// (it is normally called from the quarantine housekeeping goroutine):
// the publisher mutex serializes it with the fanout loop, so a message
// either fans out to addr or doesn't — it is never charged to the
// ledgers twice or to an evicted subscriber. Returns whether addr was
// planned.
func (p *Publisher) Evict(addr core.Addr) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	for i, a := range p.patPlan {
		if a == addr {
			p.patPlan = append(p.patPlan[:i], p.patPlan[i+1:]...)
			if p.mSubs != nil {
				p.mSubs.Set(float64(len(p.plan) + len(p.patPlan)))
			}
			return true
		}
	}
	for i, a := range p.plan {
		if a == addr {
			p.plan = append(p.plan[:i], p.plan[i+1:]...)
			if p.mSubs != nil {
				p.mSubs.Set(float64(len(p.plan) + len(p.patPlan)))
			}
			// The account dies with the plan entry: a re-allocated
			// endpoint at this slot arrives under a new generation (a
			// different address) and handshakes afresh.
			delete(p.heard, addr)
			delete(p.hellos, addr)
			if sr := p.catchup[addr]; sr != nil {
				// Stop replaying into the quarantined endpoint. The
				// cursor survives in the log under the subscriber's
				// name; its rebind re-resumes from there at the new
				// address.
				sr.done = true
				sr.release()
				delete(p.catchup, addr)
			}
			return true
		}
	}
	return false
}

// EvictQuarantined evicts every subscription held by an endpoint the
// domain's engine has quarantined: a quarantined endpoint can never
// drain its queue again (until the slot is re-allocated), so leaving
// it in fanout plans costs up to TTL sweep epochs of counted-but-
// wasted sends. Call it from the registry node's housekeeping loop.
//
// seen tracks already-evicted quarantine episodes by slot → detection
// pass, making repeat calls O(quarantined) instead of re-walking the
// registry; a slot whose quarantine lifts (re-allocation) is forgotten,
// so a later re-quarantine of the same slot evicts again. Returns the
// number of subscriptions evicted.
func EvictQuarantined(d *core.Domain, reg *nameservice.TopicRegistry, seen map[int]uint64) int {
	evicted := 0
	node := d.Buffer().Node()
	base := d.Buffer().Config().EndpointBase
	qs := d.Engine().Quarantined()
	current := make(map[int]uint64, len(qs))
	for _, q := range qs {
		current[q.Slot] = q.Pass
		if pass, ok := seen[q.Slot]; ok && pass == q.Pass {
			continue
		}
		seen[q.Slot] = q.Pass
		evicted += reg.EvictEndpoint(node, uint16(base+q.Slot))
	}
	for slot := range seen {
		if _, ok := current[slot]; !ok {
			delete(seen, slot)
		}
	}
	return evicted
}
