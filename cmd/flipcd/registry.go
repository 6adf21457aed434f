package main

import (
	"fmt"
	"slices"
	"sync"
	"time"

	"flipc/internal/core"
	"flipc/internal/metrics"
	"flipc/internal/nameservice"
	"flipc/internal/registrystore"
	"flipc/internal/shardmap"
	"flipc/internal/topic"
	"flipc/internal/wire"
)

// registryOpts configures the daemon's registry role.
type registryOpts struct {
	// WALDir is the durable store directory; empty runs the registry
	// volatile (pre-durability behavior).
	WALDir string
	// Standby starts the node as a standby replica instead of promoting
	// it to primary. Requires WALDir and StreamAddr.
	Standby bool
	// StreamAddr is the primary registry server's endpoint address
	// (hex, as printed by the primary at startup) the standby resolves
	// the replication stream and its bootstrap resync through.
	StreamAddr string
	// LeaseInterval is the housekeeping cadence: lease sweeps,
	// replication pumping, compaction checks.
	LeaseInterval time.Duration
	// CompactEvery compacts the journal once it accumulates this many
	// records.
	CompactEvery int
	// FailoverAfter promotes a standby that has seen no stream progress
	// for this long (0 = promote only on SIGUSR1).
	FailoverAfter time.Duration
	// Shard is this node's shard id in a sharded registry deployment
	// (meaningful only with ShardMap).
	Shard uint32
	// ShardMap makes the registry sharded: an inline spec
	// ("0@hexaddr,1@hexaddr*weight,...", see shardmap.ParseSpec), the
	// same on every node. The node serves only topics the map assigns
	// to Shard, replicates over its own "!registry/<shard>" stream, and
	// answers the shard-map remote op.
	ShardMap string
}

// registryNode bundles the registry pieces of one flipcd process: the
// in-band server, optionally a durable store with role manager, and —
// depending on role — the feed publishing the store's journal
// (primary) or the durable subscription applying it (standby).
type registryNode struct {
	opts registryOpts
	d    *core.Domain
	reg  *nameservice.TopicRegistry
	srv  *nameservice.Server
	st   *registrystore.Store
	mgr  *registrystore.Manager
	feed *registrystore.Feed

	apply  *registrystore.Apply // the standby's durable stream subscription, applied
	client *nameservice.Client  // resync fetches from the primary

	seen       map[int]uint64 // quarantine episodes already evicted
	lastSeq    uint64         // stream progress marker (previous tick)
	lastMoved  time.Time
	promoteReq chan struct{}

	// Sharded deployments: the shard map (nil when unsharded) and the
	// peer-shard probe state behind the /healthz roll-up.
	smap       *shardmap.Map
	peerMu     sync.Mutex
	peerCli    map[uint32]*nameservice.Client       // lazy per-shard probe clients
	peerStatus map[uint32]registrystore.ShardHealth // last probe result per shard
}

// replicationTopic is this node's replication stream: the shared
// "!registry" when unsharded, the shard's own "!registry/<n>" stream
// in a sharded deployment — so one shard's failover never disturbs
// another shard's feed or standby subscription.
func (rn *registryNode) replicationTopic() string {
	if rn.smap != nil {
		return registrystore.ShardReplicationTopic(rn.opts.Shard)
	}
	return registrystore.ReplicationTopic
}

// startRegistry brings up the registry role on domain d: recovers the
// durable store (if configured), starts the in-band server, and wires
// the role-appropriate replication side.
func startRegistry(d *core.Domain, dir *nameservice.Directory, opts registryOpts) (*registryNode, error) {
	rn := &registryNode{
		opts: opts, d: d,
		reg:        nameservice.NewTopicRegistry(),
		seen:       make(map[int]uint64),
		lastMoved:  time.Now(),
		promoteReq: make(chan struct{}, 1),
	}
	if opts.Standby && (opts.WALDir == "" || opts.StreamAddr == "") {
		return nil, fmt.Errorf("flipcd: -standby requires -waldir and -registry-stream")
	}
	if opts.ShardMap != "" {
		m, err := shardmap.ParseSpec(opts.ShardMap)
		if err != nil {
			return nil, err
		}
		rn.smap = m
		if _, ok := m.Entry(opts.Shard); !ok {
			return nil, fmt.Errorf("flipcd: shard %d not in map %q", opts.Shard, opts.ShardMap)
		}
		rn.peerCli = make(map[uint32]*nameservice.Client)
		rn.peerStatus = make(map[uint32]registrystore.ShardHealth)
	}
	if opts.WALDir != "" {
		st, err := registrystore.Open(opts.WALDir, rn.reg, registrystore.Options{})
		if err != nil {
			return nil, err
		}
		rn.st = st
		rn.mgr = registrystore.NewManager(rn.reg, st)
	}
	srv, err := nameservice.NewServerWith(d, dir, rn.reg, 64)
	if err != nil {
		return nil, err
	}
	rn.srv = srv
	if rn.mgr != nil {
		srv.SetInfo(func() nameservice.RegistryInfo {
			h := rn.mgr.Health()
			return nameservice.RegistryInfo{
				Primary: h.Role == "primary", Gen: h.RegistryGen, Seq: h.Seq, Epoch: h.Epoch,
			}
		})
	}
	if rn.smap != nil {
		srv.SetShards(opts.Shard, rn.smap)
	}

	switch {
	case rn.mgr == nil:
		// Volatile registry: nothing to fence or replicate.
	case opts.Standby:
		if err := rn.startStandby(); err != nil {
			return nil, err
		}
	default:
		if err := rn.startPrimary(); err != nil {
			return nil, err
		}
	}
	go srv.Serve(5)
	return rn, nil
}

// startPrimary creates the replication feed and fences a new
// incarnation.
func (rn *registryNode) startPrimary() error {
	if err := rn.ensureFeed(); err != nil {
		return err
	}
	rn.mgr.Promote()
	return nil
}

// ensureFeed creates the replication feed once: a durable publisher
// over the store's journal on the reserved control topic of this
// registry itself. With no standby subscribed the fanout plan is empty
// and pumping publishes to no one.
func (rn *registryNode) ensureFeed() error {
	if rn.feed != nil {
		return nil
	}
	pub, err := topic.NewPublisher(rn.d, topic.LocalDirectory{R: rn.reg}, topic.PublisherConfig{
		Topic: rn.replicationTopic(), Class: registrystore.ReplicationClass,
		RefreshEvery: 1, Window: 64, Log: rn.st.Log(), CreditBuffers: 16,
	})
	if err != nil {
		return err
	}
	rn.feed = registrystore.NewFeed(pub)
	return nil
}

// startStandby subscribes to the primary's replication stream through
// the remote directory, as a durable subscriber named after this node,
// and bootstraps a full-state resync: the subscription resumes from
// the snapshot's sequence.
func (rn *registryNode) startStandby() error {
	addr, err := wire.ParseAddr(rn.opts.StreamAddr)
	if err != nil {
		return err
	}
	client, err := nameservice.NewClient(rn.d, addr)
	if err != nil {
		return err
	}
	// The standby subscribes to a reserved "!"-prefixed stream: mark
	// the client privileged so the server admits it.
	client.Privileged = true
	rn.client = client
	rdir := topic.RemoteDirectory{C: client, Timeout: rn.callTimeout()}
	sub, err := topic.NewSubscriberDurable(rn.d, rdir, rn.replicationTopic(),
		registrystore.ReplicationClass, 64, 64, fmt.Sprintf("standby/%d", rn.d.Buffer().Node()))
	if err != nil {
		return err
	}
	rn.apply = registrystore.NewApply(sub, rn.reg, rn.st)
	return rn.resyncFromPrimary()
}

// callTimeout bounds each registry call housekeeping makes inline on a
// standby (the stream lease renewal, each resync call): a quarter of the
// lease interval, so a dead primary holds a tick up for less than the
// tick itself and the failover detector runs on time.
func (rn *registryNode) callTimeout() time.Duration { return rn.opts.LeaseInterval / 4 }

// resyncFromPrimary rebuilds the replica's full state over the remote
// protocol: registry info (generation + pre-export sequence), the
// paged topic list, and one paged snapshot per topic. Remote snapshots
// do not carry lease epochs, so every imported lease is restamped —
// the same re-validation window a takeover grants.
func (rn *registryNode) resyncFromPrimary() error {
	tmo := rn.callTimeout()
	info, err := rn.client.RegistryInfo(tmo)
	if err != nil {
		return err
	}
	names, err := rn.client.TopicList(tmo)
	if err != nil {
		return err
	}
	state := nameservice.RegistryState{Gen: info.Gen, Epoch: info.Epoch}
	for _, name := range names {
		snap, err := rn.client.TopicSnapshot(name, tmo)
		if err != nil {
			return err
		}
		state.Topics = append(state.Topics, nameservice.TopicState{
			Name: name, Class: snap.Class, Gen: snap.Gen, Subs: snap.Subs,
		})
	}
	if err := rn.apply.Resync(state, info.Seq); err != nil {
		return err
	}
	rn.reg.RestampLeases()
	return nil
}

// requestPromote asks housekeeping to promote this node (SIGUSR1, or
// operator tooling).
func (rn *registryNode) requestPromote() {
	select {
	case rn.promoteReq <- struct{}{}:
	default:
	}
}

// promote fences this node strictly above everything the old primary
// served and starts serving mutations — including a replication feed
// of its own, so the next standby can follow this node.
func (rn *registryNode) promote() {
	if rn.mgr == nil {
		return
	}
	if rn.apply != nil {
		rn.mgr.ObservePeer(rn.apply.PrimaryGen())
	}
	gen := rn.mgr.Promote()
	if err := rn.ensureFeed(); err != nil {
		fmt.Printf("flipcd: promoted without replication feed: %v\n", err)
	}
	fmt.Printf("flipcd: registry promoted to primary at generation %d\n", gen)
}

// streamInterval is the replication stream's beat between lease ticks,
// and the standby's failover detector's. Each journal record is one
// stream frame: a standby drained only once a lease tick takes one inbox
// (64 records) per tick, too few when a few hundred subscriptions join
// or leave at once.
const streamInterval = 10 * time.Millisecond

// housekeeping runs the registry's periodic work until stop closes:
// lease sweeps, quarantine eviction, replication pumping, compaction
// (primary); stream draining and failover detection on every stream
// beat, lease and cursor renewal and resync of a stranded cursor on
// every tick (standby).
func (rn *registryNode) housekeeping(stop <-chan struct{}) {
	tick := time.NewTicker(rn.opts.LeaseInterval)
	defer tick.Stop()
	beat := time.NewTicker(streamInterval)
	defer beat.Stop()
	for {
		select {
		case <-stop:
			return
		case <-rn.promoteReq:
			rn.promote()
		case <-beat.C:
			rn.streamBeat()
			continue
		case <-tick.C:
		}
		if rn.smap != nil {
			rn.probeShards()
		}
		if rn.mgr == nil || rn.mgr.Role() == registrystore.RolePrimary {
			rn.reg.Advance()
			if n := topic.EvictQuarantined(rn.d, rn.reg, rn.seen); n > 0 {
				fmt.Printf("flipcd: evicted %d subscriptions of quarantined endpoints\n", n)
			}
			if rn.mgr != nil {
				rn.mgr.Heartbeat()
				rn.streamBeat()
				if rn.st.WALRecords() >= rn.opts.CompactEvery {
					if err := rn.st.Compact(rn.reg); err != nil {
						fmt.Printf("flipcd: compaction: %v\n", err)
					}
				}
			}
			continue
		}
		// Standby: keep the stream subscription alive. A self-demoted
		// ex-primary (store failure) has no stream attached; it idles
		// until an operator intervenes.
		if rn.apply == nil {
			continue
		}
		if rn.apply.NeedResync() {
			if err := rn.resyncFromPrimary(); err != nil {
				fmt.Printf("flipcd: standby resync: %v\n", err)
			}
		}
		if err := rn.apply.Renew(); err != nil {
			fmt.Printf("flipcd: stream lease renewal: %v\n", err)
		}
		rn.streamBeat()
	}
}

// streamBeat moves the replication stream: a primary publishes what it
// journaled since the last beat; a standby applies what arrived and,
// once the stream has been silent past the failover timeout, takes over.
func (rn *registryNode) streamBeat() {
	switch {
	case rn.mgr == nil:
	case rn.mgr.Role() == registrystore.RolePrimary:
		if rn.feed != nil {
			if _, err := rn.feed.Pump(); err != nil {
				fmt.Printf("flipcd: replication pump: %v\n", err)
			}
		}
	case rn.apply != nil:
		rn.apply.Drain()
		if rn.streamSilent() {
			fmt.Printf("flipcd: no stream progress for %v, taking over\n", rn.opts.FailoverAfter)
			rn.promote()
		}
	}
}

// streamSilent records replication-stream progress and reports whether
// the stream has been silent past the failover timeout. Progress is a
// *change* in the highest sequence the stream delivered since the
// previous beat — the primary's heartbeats are journaled records, so a
// live primary moves it even when nothing mutates, and comparing against
// the last observed value is what distinguishes "the primary is alive"
// from "the primary was alive once". Not the journal head: a standby
// whose store failed stops journaling while the primary lives.
func (rn *registryNode) streamSilent() bool {
	if seq := rn.apply.Delivered(); seq != rn.lastSeq {
		rn.lastSeq = seq
		rn.lastMoved = time.Now()
	}
	return rn.opts.FailoverAfter > 0 && time.Since(rn.lastMoved) > rn.opts.FailoverAfter
}

// probeShards refreshes the per-shard status cache behind the
// /healthz roll-up: the local shard is read from the manager; every
// other shard is probed at its map address hint with a registry-info
// call. Shards with no hint report unprobed (the roll-up treats them
// as unknown, not dead).
func (rn *registryNode) probeShards() {
	for _, e := range rn.smap.Entries() {
		st := registrystore.ShardHealth{Shard: e.ID, Role: "unknown"}
		switch {
		case e.ID == rn.opts.Shard:
			st.Probed = true
			if rn.mgr != nil {
				h := rn.mgr.Health()
				st.Role, st.Gen, st.Seq = h.Role, h.RegistryGen, h.Seq
				st.Primary = h.Role == "primary"
			} else {
				st.Role, st.Primary = "primary", true // volatile registry
			}
		case e.Addr != 0:
			info, err := rn.probePeer(e.ID, wire.Addr(e.Addr))
			if err != nil {
				st.Err = err.Error()
				break
			}
			st.Probed = true
			st.Primary = info.Primary
			st.Gen, st.Seq = info.Gen, info.Seq
			if info.Primary {
				st.Role = "primary"
			} else {
				st.Role = "standby"
			}
		}
		rn.peerMu.Lock()
		rn.peerStatus[e.ID] = st
		rn.peerMu.Unlock()
	}
}

// probePeer performs one registry-info call against a peer shard,
// lazily creating (and caching) the probe client for its address.
func (rn *registryNode) probePeer(shard uint32, addr wire.Addr) (nameservice.RegistryInfo, error) {
	rn.peerMu.Lock()
	cli := rn.peerCli[shard]
	rn.peerMu.Unlock()
	if cli == nil {
		var err error
		cli, err = nameservice.NewClient(rn.d, addr)
		if err != nil {
			return nameservice.RegistryInfo{}, err
		}
		rn.peerMu.Lock()
		rn.peerCli[shard] = cli
		rn.peerMu.Unlock()
	}
	return cli.RegistryInfo(rn.probeTimeout())
}

// probeTimeout bounds one peer-shard RegistryInfo probe. The probes run
// inline on the housekeeping tick, one after another: together they
// may take a quarter of the lease interval, so dead shards cannot stall
// lease sweeps or the failover detector.
func (rn *registryNode) probeTimeout() time.Duration {
	return rn.opts.LeaseInterval / time.Duration(4*rn.smap.Len())
}

// registerHealth registers the registry's health sources: "registry"
// (role, generation and store state; durable registries only) and, on
// a sharded deployment, "shards" (the per-shard roll-up).
func (rn *registryNode) registerHealth(reg *metrics.Registry) {
	if rn.mgr != nil {
		reg.Status("registry", func() (any, bool) {
			h := rn.mgr.Health()
			return h, !h.Degraded()
		})
	}
	if rn.smap != nil {
		reg.Status("shards", func() (any, bool) {
			sh := rn.shardHealth()
			return sh, !slices.ContainsFunc(sh, registrystore.ShardHealth.Degraded)
		})
	}
}

// shardHealth is the per-shard roll-up: the cached per-shard status,
// ordered by shard id (the map's entry order).
func (rn *registryNode) shardHealth() []registrystore.ShardHealth {
	rn.peerMu.Lock()
	defer rn.peerMu.Unlock()
	out := make([]registrystore.ShardHealth, 0, rn.smap.Len())
	for _, e := range rn.smap.Entries() {
		if st, ok := rn.peerStatus[e.ID]; ok {
			out = append(out, st)
		} else {
			out = append(out, registrystore.ShardHealth{Shard: e.ID, Role: "unknown"})
		}
	}
	return out
}
