package registrystore

import (
	"fmt"
	"io"
	"sync"

	"flipc/internal/duralog"
	"flipc/internal/nameservice"
	"flipc/internal/topic"
)

// ReplicationTopic is the reserved control-priority topic the primary
// streams registry mutation records over. The "!" prefix keeps it out
// of any application namespace; the standby subscribes to it through
// the primary's own registry, so the stream dogfoods the full topic
// stack (priority classes, fanout accounting, durable replay).
const ReplicationTopic = "!registry"

// ShardReplicationTopic is the reserved replication stream of one
// registry shard in a sharded deployment: "!registry/<shard>". Each
// shard streams over its own topic so one shard's failover (standby
// resubscribes, feed re-targets) never touches another shard's stream
// state. shardmap.Map.ShardOf routes these names to their own shard by
// construction.
func ShardReplicationTopic(shard uint32) string {
	return fmt.Sprintf("%s/%d", ReplicationTopic, shard)
}

// ReplicationClass is the stream's priority class: registry mutations
// are small and latency-critical, exactly what Control is for.
const ReplicationClass = topic.Control

// Feed is the primary's side of the replication stream: a durable
// topic publisher over the store's own journal (PublisherConfig.Log is
// Store.Log). Journal appends each record under the registry's lock;
// Pump — run outside any lock, on the housekeeping cadence — fans out
// the records appended since the last Pump, without appending them
// again, and drives the publisher's replay. A frame the network drops
// costs the standby a replay from its cursor, not a resync.
type Feed struct {
	pub *topic.Publisher
	rd  *duralog.Reader
}

// NewFeed wraps pub, a durable publisher over the store's journal. The
// records already journaled reach a standby by its replay, or by the
// snapshot it bootstraps from; the Feed publishes live from the next.
func NewFeed(pub *topic.Publisher) *Feed {
	log := pub.DurableLog()
	return &Feed{pub: pub, rd: log.NewReader(log.Head() + 1)}
}

// Pump publishes every record journaled since the last Pump, in order,
// then pumps the publisher's replay. It must run on the publisher's
// single thread (the housekeeping loop). Returns the number of records
// published and the first error; a record the stream cannot carry is
// stranded (see topic.Publisher.PublishLogged) and the rest still go.
func (f *Feed) Pump() (int, error) {
	n := 0
	var first error
	for ; ; n++ {
		seq, flags, payload, err := f.rd.Next()
		if err != nil {
			if err != io.EOF && first == nil {
				first = err
			}
			break
		}
		if _, err := f.pub.PublishLogged(seq, flags, payload); err != nil && first == nil {
			first = err
		}
	}
	f.pub.PumpReplay(0)
	return n, first
}

// Apply is the standby's side of the replication stream: a durable
// subscription with a stable name, whose records it applies to the
// standby's registry copy once each and in order, journaling each to
// the standby's own store at the primary's sequence so a standby
// restart recovers too.
//
// Sequence discipline: the subscription's replay seam delivers the
// stream exactly once and in order from the cursor it resumes at — the
// store's head, set by Resync — so a dropped frame is replayed, not
// lost. A record at or below the head is the bootstrap overlap and is
// skipped. One above head+1 means the publisher's retention passed the
// cursor (counted in its ReplayStranded): the copy would diverge, so
// nothing more applies and NeedResync reports true until Resync
// installs a full state snapshot.
//
// A standby whose store has failed (Manager.Health reports it) stops
// applying and never asks for a resync it could not journal, but still
// tracks what the stream delivers (Delivered), the primary's liveness.
type Apply struct {
	mu  sync.Mutex
	sub *topic.Subscriber
	reg *nameservice.TopicRegistry
	st  *Store

	primaryGen uint64
	delivered  uint64 // highest sequence the stream delivered
	stranded   bool
}

// NewApply wraps the standby's durable stream subscriber (see
// topic.NewSubscriberDurable), its registry and its store.
func NewApply(sub *topic.Subscriber, reg *nameservice.TopicRegistry, st *Store) *Apply {
	return &Apply{sub: sub, reg: reg, st: st}
}

// Drain consumes every waiting stream record, returning how many were
// processed. Call it on the standby's housekeeping cadence.
func (a *Apply) Drain() int {
	n := 0
	for {
		payload, _, ok := a.sub.Receive()
		if !ok {
			return n
		}
		a.mu.Lock()
		a.applyLocked(payload)
		a.mu.Unlock()
		n++
	}
}

// applyLocked applies one framed record. Caller holds a.mu.
func (a *Apply) applyLocked(b []byte) {
	rec, _, err := DecodeRecord(b)
	if err != nil {
		a.stranded = true
		return
	}
	a.delivered = max(a.delivered, rec.Seq)
	if (rec.Type == RecFence || rec.Type == RecHeartbeat) && rec.Gen > a.primaryGen {
		a.primaryGen = rec.Gen
	}
	head := a.st.Seq()
	if rec.Seq <= head || a.st.Err() != nil {
		return // the bootstrap overlap, or a store that cannot journal
	}
	if rec.Seq != head+1 || applyRecord(a.reg, &rec) != nil {
		a.stranded = true
		return
	}
	_ = a.st.Journal(&rec) // a failure is sticky: the Err check stops what follows
}

// NeedResync reports whether the stream passed the replica by and it
// needs a full state snapshot (never once its store has failed).
func (a *Apply) NeedResync() bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.stranded && a.st.Err() == nil
}

// Delivered returns the highest record sequence the stream delivered,
// applied or not: the standby's measure of the primary's liveness.
func (a *Apply) Delivered() uint64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.delivered
}

// Resync installs a full state snapshot exported by the primary at
// sequence seq (captured before the export, so records the snapshot
// already reflects replay harmlessly; see Store.Compact for why the
// overlap is safe) and restarts the store's journal at seq. The
// replica's local journal is discarded wholesale: it may hold a
// divergent history (an ex-primary's unreplicated tail, possibly with
// sequence numbers above seq), and the snapshot supersedes all of it.
// A subscription that has not yet locked its seam resumes at seq.
func (a *Apply) Resync(state nameservice.RegistryState, seq uint64) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.reg.RestoreState(state)
	a.primaryGen = max(a.primaryGen, state.Gen)
	if a.sub != nil {
		a.sub.ResumeFrom(seq)
	}
	if err := a.st.ResetTo(state, seq); err != nil {
		return err
	}
	a.stranded = false
	return nil
}

// Renew refreshes the stream subscription's lease at the primary and
// acknowledges its cursor in-band.
func (a *Apply) Renew() error { return a.sub.Renew() }

// PrimaryGen returns the highest primary registry generation observed
// on the stream (heartbeats and fences) or via resync.
func (a *Apply) PrimaryGen() uint64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.primaryGen
}
