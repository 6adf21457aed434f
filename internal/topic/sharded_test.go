package topic

import (
	"errors"
	"testing"

	"flipc/internal/core"
	"flipc/internal/nameservice"
	"flipc/internal/shardmap"
	"flipc/internal/wire"
)

func shardedFixture(t *testing.T) (*ShardedDirectory, map[uint32]*nameservice.TopicRegistry, map[uint32]string) {
	t.Helper()
	m := shardmap.Restore(3, []shardmap.Entry{{ID: 0}, {ID: 1}, {ID: 2}})
	sd := NewShardedDirectory(m)
	regs := map[uint32]*nameservice.TopicRegistry{}
	for id := uint32(0); id < 3; id++ {
		regs[id] = nameservice.NewTopicRegistry()
		sd.SetShard(id, LocalDirectory{R: regs[id]})
	}
	owned := map[uint32]string{}
	for i := 0; len(owned) < 3 && i < 1000; i++ {
		name := "t-" + string(rune('a'+i%26)) + string(rune('a'+i/26%26)) + string(rune('a'+i/676))
		id, ok := sd.ShardFor(name)
		if !ok {
			t.Fatal("sharded directory refused to route")
		}
		if _, have := owned[id]; !have {
			owned[id] = name
		}
	}
	if len(owned) < 3 {
		t.Fatal("could not find a topic per shard")
	}
	return sd, regs, owned
}

func mustAddr(t *testing.T, node uint16, ep uint16) core.Addr {
	t.Helper()
	a, err := wire.MakeAddr(wire.NodeID(node), ep, 1)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// TestShardedDirectoryPartitions: each op lands only in the owning
// shard's registry — the other shards never see the topic.
func TestShardedDirectoryPartitions(t *testing.T) {
	sd, regs, owned := shardedFixture(t)
	addr := mustAddr(t, 2, 3)
	for id, name := range owned {
		if err := Subscribe(sd, name, addr, Control); err != nil {
			t.Fatalf("subscribe %q: %v", name, err)
		}
		snap, err := Snapshot(sd, name)
		if err != nil || len(snap.Subs) != 1 {
			t.Fatalf("snapshot %q: %+v, %v", name, snap, err)
		}
		for other, reg := range regs {
			if _, ok := reg.Snapshot(name); ok != (other == id) {
				t.Fatalf("topic %q present in shard %d registry (owner %d)", name, other, id)
			}
		}
	}
}

// TestShardedDirectoryRetargetIsolation: retargeting one shard bumps
// that shard's failover epoch only, and subsequent ops on its topics
// hit the new target while other shards keep their original ones.
func TestShardedDirectoryRetargetIsolation(t *testing.T) {
	sd, regs, owned := shardedFixture(t)
	addr := mustAddr(t, 2, 4)

	before := map[uint32]uint64{}
	for id := uint32(0); id < 3; id++ {
		before[id] = sd.Shard(id).Epoch()
	}
	// Shard 1 fails over to a fresh registry (the promoted standby).
	promoted := nameservice.NewTopicRegistry()
	h1 := sd.Shard(1)
	sd.SetShard(1, LocalDirectory{R: promoted})
	if sd.Shard(1) != h1 {
		t.Fatal("retarget replaced the FailoverDirectory handle")
	}
	for id := uint32(0); id < 3; id++ {
		want := before[id]
		if id == 1 {
			want++
		}
		if got := sd.Shard(id).Epoch(); got != want {
			t.Fatalf("shard %d epoch %d after shard-1 retarget, want %d", id, got, want)
		}
	}
	if err := Subscribe(sd, owned[1], addr, Normal); err != nil {
		t.Fatal(err)
	}
	if _, ok := promoted.Snapshot(owned[1]); !ok {
		t.Fatal("post-retarget subscribe missed the promoted registry")
	}
	if _, ok := regs[1].Snapshot(owned[1]); ok {
		t.Fatal("post-retarget subscribe leaked to the demoted registry")
	}
	// Other shards still reach their original registries.
	if err := Subscribe(sd, owned[2], addr, Normal); err != nil {
		t.Fatal(err)
	}
	if _, ok := regs[2].Snapshot(owned[2]); !ok {
		t.Fatal("shard-2 subscribe missed its registry after shard-1 retarget")
	}
}

// TestShardedDirectoryNoShard: a map naming an uninstalled shard (and
// a missing map) answer ErrNoShard rather than misrouting.
func TestShardedDirectoryNoShard(t *testing.T) {
	m := shardmap.Restore(2, []shardmap.Entry{{ID: 0}, {ID: 7}})
	sd := NewShardedDirectory(m)
	sd.SetShard(0, LocalDirectory{R: nameservice.NewTopicRegistry()})
	addr := mustAddr(t, 2, 5)

	var name string
	for i := 0; i < 1000; i++ {
		cand := "u-" + string(rune('a'+i%26)) + string(rune('a'+i/26))
		if id, _ := sd.ShardFor(cand); id == 7 {
			name = cand
			break
		}
	}
	if name == "" {
		t.Fatal("no topic routed to shard 7")
	}
	if err := Subscribe(sd, name, addr, Normal); !errors.Is(err, ErrNoShard) {
		t.Fatalf("subscribe via uninstalled shard: %v, want ErrNoShard", err)
	}
	if _, err := Snapshot(sd, name); !errors.Is(err, ErrNoShard) {
		t.Fatalf("snapshot via uninstalled shard: %v, want ErrNoShard", err)
	}

	empty := NewShardedDirectory(nil)
	if err := Unsubscribe(empty, "x", addr); !errors.Is(err, ErrNoShard) {
		t.Fatalf("op with no map: %v, want ErrNoShard", err)
	}

	// The reserved stream of a mapped shard routes to it.
	if id, ok := sd.ShardFor("!registry/7"); !ok || id != 7 {
		t.Fatalf("reserved stream routed to %d/%v, want shard 7", id, ok)
	}
}

// scriptedDir is a shard target that records the visit and answers as
// told.
type scriptedDir struct {
	id     uint32
	visits *[]uint32
	err    error
}

func (d scriptedDir) Do(nameservice.Op) (nameservice.TopicSnapshot, error) {
	*d.visits = append(*d.visits, d.id)
	return nameservice.TopicSnapshot{Gen: d.id}, d.err
}

// TestShardedDirectoryRoutesByTable: where an op goes is its row of the
// op table. A pattern op visits every installed shard in shard-id order
// and returns the first failure only after all were tried; any other op
// starts at the shard its name hashes to, follows that shard's NotOwner
// redirect to the owner (counted), and gives up as a storm after
// nameservice.DefaultMaxRedirects attempts.
func TestShardedDirectoryRoutesByTable(t *testing.T) {
	var visits []uint32
	boom := errors.New("shard 1 is down")
	sd := NewShardedDirectory(shardmap.Restore(3, []shardmap.Entry{{ID: 0}, {ID: 1}, {ID: 2}}))
	for _, id := range []uint32{2, 0, 1} {
		sd.SetShard(id, scriptedDir{id: id, visits: &visits})
	}
	sd.SetShard(1, scriptedDir{id: 1, visits: &visits, err: boom})
	if err := SubscribePattern(sd, "metrics.*", mustAddr(t, 2, 6)); !errors.Is(err, boom) {
		t.Fatalf("pattern broadcast: %v, want shard 1's failure", err)
	}
	if len(visits) != 3 || visits[0] != 0 || visits[1] != 1 || visits[2] != 2 {
		t.Fatalf("pattern broadcast visited %v, want every shard in id order", visits)
	}

	start, _ := sd.ShardFor("metrics.cpu")
	owner := (start + 1) % 3
	sd.SetShard(start, scriptedDir{id: start, visits: &visits, err: &nameservice.NotOwnerError{Topic: "metrics.cpu", Shard: owner}})
	sd.SetShard(owner, scriptedDir{id: owner, visits: &visits})
	visits = nil
	snap, err := Snapshot(sd, "metrics.cpu")
	if err != nil || snap.Gen != owner || len(visits) != 2 || visits[0] != start || visits[1] != owner {
		t.Fatalf("redirected snapshot: answer from shard %d, visits %v, err %v; want the owner %d after %d", snap.Gen, visits, err, owner, start)
	}

	sd.SetShard(owner, scriptedDir{id: owner, visits: &visits, err: &nameservice.NotOwnerError{Topic: "metrics.cpu", Shard: start}})
	visits = nil
	if err := Unsubscribe(sd, "metrics.cpu", mustAddr(t, 2, 6)); !errors.Is(err, nameservice.ErrRedirectStorm) || len(visits) != nameservice.DefaultMaxRedirects {
		t.Fatalf("redirect loop: err %v after %d attempts, want a storm after %d", err, len(visits), nameservice.DefaultMaxRedirects)
	}
}
