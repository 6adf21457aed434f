package shardmap

import (
	"fmt"
	"testing"
)

func spec(t *testing.T, s string) *Map {
	t.Helper()
	m, err := ParseSpec(s)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestRoutingDeterministicAndTotal(t *testing.T) {
	m := spec(t, "0,1,2")
	n := spec(t, "0,1,2")
	counts := map[uint32]int{}
	for i := 0; i < 3000; i++ {
		name := fmt.Sprintf("topic-%d", i)
		a, ok := m.ShardOf(name)
		if !ok {
			t.Fatalf("ShardOf(%q) not routable on a populated map", name)
		}
		b, _ := n.ShardOf(name)
		if a != b {
			t.Fatalf("ShardOf(%q) differs between identical maps: %d vs %d", name, a, b)
		}
		counts[a]++
	}
	// Balance: with 64 vnodes per shard every shard must own a
	// substantial slice of a 3000-topic namespace.
	for id := uint32(0); id < 3; id++ {
		if counts[id] < 300 {
			t.Fatalf("shard %d owns only %d/3000 topics — ring unbalanced: %v", id, counts[id], counts)
		}
	}
}

// TestRemoveOnlyMovesVictimsTopics is the property an operator relies
// on when a fleet's spec drops a shard: only that shard's topics move.
func TestRemoveOnlyMovesVictimsTopics(t *testing.T) {
	m := spec(t, "0,1,2")
	owner := map[string]uint32{}
	for i := 0; i < 1000; i++ {
		name := fmt.Sprintf("t%d", i)
		owner[name], _ = m.ShardOf(name)
	}
	m = spec(t, "0,2")
	for name, was := range owner {
		now, ok := m.ShardOf(name)
		if !ok {
			t.Fatalf("ShardOf(%q) lost after remove", name)
		}
		if was != 1 && now != was {
			t.Fatalf("topic %q moved %d→%d though shard 1 was removed — consistent hashing violated",
				name, was, now)
		}
		if was == 1 && now == 1 {
			t.Fatalf("topic %q still routed to removed shard 1", name)
		}
	}
}

func TestReservedStreamRoutesToItsShard(t *testing.T) {
	m := spec(t, "0,1,2")
	for id := uint32(0); id < 3; id++ {
		got, ok := m.ShardOf(fmt.Sprintf("!registry/%d", id))
		if !ok || got != id {
			t.Fatalf("!registry/%d routed to shard %d (ok=%v), want its own shard", id, got, ok)
		}
	}
	// An unmapped suffix falls back to the hash ring, and a foreign
	// reserved name routes somewhere, not nowhere.
	if _, ok := m.ShardOf("!registry/99"); !ok {
		t.Fatal("!registry/99 (unmapped shard) not routable at all")
	}
	if _, ok := m.ShardOf("!registry"); !ok {
		t.Fatal("legacy !registry not routable")
	}
}

func TestParseSpec(t *testing.T) {
	m, err := ParseSpec("0@0x1030001, 1@2030001*32 ,2")
	if err != nil {
		t.Fatal(err)
	}
	if m.Len() != 3 || m.Epoch() != 3 {
		t.Fatalf("spec parsed to %d shards at epoch %d", m.Len(), m.Epoch())
	}
	e, _ := m.Entry(0)
	if e.Addr != 0x1030001 || e.Weight != DefaultWeight {
		t.Fatalf("shard 0 entry %+v", e)
	}
	e, _ = m.Entry(1)
	if e.Addr != 0x2030001 || e.Weight != 32 {
		t.Fatalf("shard 1 entry %+v", e)
	}
	for _, bad := range []string{"", "x", "1@zz", "1*99999999", "1,1"} {
		if _, err := ParseSpec(bad); err == nil {
			t.Fatalf("spec %q accepted", bad)
		}
	}
}
