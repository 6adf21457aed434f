package nameservice

import (
	"errors"
	"testing"

	"flipc/internal/core"
	"flipc/internal/interconnect"
	"flipc/internal/shardmap"
	"flipc/internal/wire"
)

// newShardedRig is newRemoteRig with the server shard-aware: it is
// shard self in the given map, installed before the serve loop starts
// (SetShards is wiring-time configuration, like SetInfo).
func newShardedRig(t *testing.T, self uint32, m *shardmap.Map) (*Server, *Client, *core.Domain, *core.Domain) {
	t.Helper()
	fabric := interconnect.NewFabric(256)
	mk := func(node wire.NodeID) *core.Domain {
		tr, err := fabric.Attach(node)
		if err != nil {
			t.Fatal(err)
		}
		d, err := core.NewDomain(core.Config{Node: node, MessageSize: 128, NumBuffers: 64}, tr)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(d.Close)
		d.Start()
		return d
	}
	sd := mk(0)
	cd := mk(1)
	srv, err := NewServer(sd, New(), 16)
	if err != nil {
		t.Fatal(err)
	}
	if m != nil {
		srv.SetShards(self, m)
	}
	go srv.Serve(5)
	cli, err := NewClient(cd, srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	return srv, cli, sd, cd
}

// threeShards builds a 3-shard map and, per shard, one topic name it
// owns (searched from a candidate pool — routing is deterministic, so
// the names are stable across runs).
func threeShards(t *testing.T) (*shardmap.Map, map[uint32]string) {
	t.Helper()
	m := shardmap.Restore(3, []shardmap.Entry{{ID: 0}, {ID: 1}, {ID: 2}})
	owned := map[uint32]string{}
	for i := 0; len(owned) < 3 && i < 1000; i++ {
		name := "topic-" + string(rune('a'+i%26)) + "-" + string(rune('0'+i/26%10)) + "-" + string(rune('0'+i/260))
		id, ok := m.ShardOf(name)
		if !ok {
			t.Fatal("map refused to route")
		}
		if _, have := owned[id]; !have {
			owned[id] = name
		}
	}
	if len(owned) < 3 {
		t.Fatal("could not find a topic per shard")
	}
	return m, owned
}

// TestReservedTopicRefusedForClients is the reserved-namespace
// regression test: a stock client's subscribe/unsubscribe on a
// "!"-prefixed topic answers statusReserved (a distinct error, not a
// generic failure), a privileged (replica) client is admitted, and
// presence drops are refused on reserved names unconditionally.
func TestReservedTopicRefusedForClients(t *testing.T) {
	srv, cli, _, cd := newShardedRig(t, 0, nil)
	ep, err := cd.NewRecvEndpoint(4)
	if err != nil {
		t.Fatal(err)
	}

	if err := subscribe(cli, "!registry", ep.Addr(), 0); !errors.Is(err, ErrReserved) {
		t.Fatalf("client subscribe on reserved topic: %v, want ErrReserved", err)
	}
	if err := unsubscribe(cli, "!registry", ep.Addr()); !errors.Is(err, ErrReserved) {
		t.Fatalf("client unsubscribe on reserved topic: %v, want ErrReserved", err)
	}
	if err := dropPresence(cli, "!registry"); !errors.Is(err, ErrReserved) {
		t.Fatalf("client presence drop on reserved name: %v, want ErrReserved", err)
	}
	if n := len(srv.Topics().Topics()); n != 0 {
		t.Fatalf("refused mutations still created %d topics", n)
	}

	// The replica's client authorizes itself with the privilege marker.
	cli.Privileged = true
	if err := subscribe(cli, "!registry", ep.Addr(), 0); err != nil {
		t.Fatalf("privileged subscribe on reserved topic: %v", err)
	}
	snap, err := cli.TopicSnapshot("!registry", callTimeout)
	if err != nil || len(snap.Subs) != 1 {
		t.Fatalf("reserved topic snapshot %+v, %v", snap, err)
	}
	if err := unsubscribe(cli, "!registry", ep.Addr()); err != nil {
		t.Fatalf("privileged unsubscribe on reserved topic: %v", err)
	}
	// Privilege admits stream membership only: a presence op has no
	// marker field, so a reserved name is refused whoever asks.
	if err := dropPresence(cli, "!registry"); !errors.Is(err, ErrReserved) {
		t.Fatalf("privileged presence drop on reserved name: %v, want ErrReserved", err)
	}
	// Ordinary topics are untouched by the reserved gate.
	if err := subscribe(cli, "app-topic", ep.Addr(), 0); err != nil {
		t.Fatalf("ordinary subscribe: %v", err)
	}
}

// TestShardRoutingNotOwner proves the NotOwner redirect: a sharded
// server refuses topic ops on names the map assigns elsewhere, naming
// the owning shard, and serves the names it owns normally. Reserved
// per-shard streams are exempt — shard 1's replication stream is
// subscribable at any node that hosts it.
func TestShardRoutingNotOwner(t *testing.T) {
	m, owned := threeShards(t)
	_, cli, _, cd := newShardedRig(t, 0, m)
	ep, err := cd.NewRecvEndpoint(4)
	if err != nil {
		t.Fatal(err)
	}

	// A topic this shard owns: served.
	if err := subscribe(cli, owned[0], ep.Addr(), 0); err != nil {
		t.Fatalf("subscribe on owned topic: %v", err)
	}

	// Topics owned elsewhere: redirected with the owner's id.
	for _, foreign := range []uint32{1, 2} {
		err := subscribe(cli, owned[foreign], ep.Addr(), 0)
		if !errors.Is(err, ErrNotOwner) {
			t.Fatalf("subscribe on shard-%d topic: %v, want ErrNotOwner", foreign, err)
		}
		var noe *NotOwnerError
		if !errors.As(err, &noe) || noe.Shard != foreign {
			t.Fatalf("redirect for shard-%d topic carried %+v", foreign, noe)
		}
		if err := unsubscribe(cli, owned[foreign], ep.Addr()); !errors.Is(err, ErrNotOwner) {
			t.Fatalf("unsubscribe on shard-%d topic: %v, want ErrNotOwner", foreign, err)
		}
		if _, err := cli.TopicSnapshot(owned[foreign], callTimeout); !errors.Is(err, ErrNotOwner) {
			t.Fatalf("snapshot on shard-%d topic: %v, want ErrNotOwner", foreign, err)
		}
	}

	// Reserved streams bypass ownership: this node hosts shard 0 but a
	// standby of shard 1 colocated here may subscribe to shard 1's
	// stream if it is fed here.
	cli.Privileged = true
	if err := subscribe(cli, "!registry/1", ep.Addr(), 0); err != nil {
		t.Fatalf("privileged subscribe on reserved stream: %v", err)
	}
}

// TestShardMapFetch round-trips the map through the op-10 pager: a
// 12-shard map does not fit one 120-byte page (10 entries max), so the
// client pages, and the reconstructed map routes identically.
func TestShardMapFetch(t *testing.T) {
	entries := make([]shardmap.Entry, 12)
	for i := range entries {
		entries[i] = shardmap.Entry{ID: uint32(i), Weight: 16, Addr: uint32(0x1000 + i)}
	}
	m := shardmap.Restore(99, entries)
	_, cli, _, _ := newShardedRig(t, 3, m)

	got, self, err := cli.ShardMap(callTimeout)
	if err != nil {
		t.Fatal(err)
	}
	if self != 3 {
		t.Fatalf("server reported shard %d, want 3", self)
	}
	if got.Epoch() != 99 || got.Len() != 12 {
		t.Fatalf("fetched map epoch %d len %d, want 99/12", got.Epoch(), got.Len())
	}
	ge := got.Entries()
	for i, e := range m.Entries() {
		if ge[i] != e {
			t.Fatalf("entry %d: fetched %+v, want %+v", i, ge[i], e)
		}
	}
	for _, name := range []string{"alpha", "beta", "gamma", "!registry/7"} {
		w, _ := m.ShardOf(name)
		g, _ := got.ShardOf(name)
		if w != g {
			t.Fatalf("fetched map routes %q to %d, original to %d", name, g, w)
		}
	}
}

// TestShardMapAbsent: an unsharded node answers op 10 with not-found.
func TestShardMapAbsent(t *testing.T) {
	_, cli, _, _ := newShardedRig(t, 0, nil)
	if _, _, err := cli.ShardMap(callTimeout); !errors.Is(err, ErrNotFound) {
		t.Fatalf("shard map from unsharded server: %v, want ErrNotFound", err)
	}
}
