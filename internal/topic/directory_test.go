package topic

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"flipc/internal/interconnect"
	"flipc/internal/nameservice"
	"flipc/internal/shardmap"
)

// describeRegistries renders what a set of registries holds, as one
// registry would: topics, subscribers, cursors and presence leases are
// the union over the registries (each lives on one shard); the patterns
// must be the same on every one of them (they go to every shard).
func describeRegistries(t *testing.T, regs ...*nameservice.TopicRegistry) string {
	t.Helper()
	var lines []string
	for i, r := range regs {
		for _, ts := range r.ExportState().Topics {
			line := fmt.Sprintf("topic %s class=%d subs=", ts.Name, ts.Class)
			for _, s := range ts.Subs {
				line += fmt.Sprintf("%v,", s.Addr)
			}
			line += " cursors="
			for _, c := range ts.Cursors {
				line += fmt.Sprintf("%s@%d,", c.Sub, c.Seq)
			}
			lines = append(lines, line)
		}
		for _, p := range r.PresenceEntries() {
			lines = append(lines, fmt.Sprintf("presence %s at %s via %v", p.Key, p.Gateway, p.Addr))
		}
		if got, want := strings.Join(r.Patterns(), ","), strings.Join(regs[0].Patterns(), ","); got != want {
			t.Fatalf("registry %d holds patterns [%s], registry 0 [%s]", i, got, want)
		}
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n") + "\npatterns " + strings.Join(regs[0].Patterns(), ",")
}

// TestDirectoryConformance drives one script — every one of the eight
// directory ops, through the typed helpers — against each Directory
// implementation, and requires the same answers and the same registry
// state from all of them: LocalDirectory, RemoteDirectory against a live
// server, a FailoverDirectory over a local one, and a ShardedDirectory
// over three local ones.
func TestDirectoryConformance(t *testing.T) {
	a1, a2, pat, ctl := mustAddr(t, 1, 3), mustAddr(t, 1, 4), mustAddr(t, 2, 9), mustAddr(t, 2, 1)
	script := func(t *testing.T, dir Directory) string {
		t.Helper()
		for _, step := range []struct {
			what string
			err  error
		}{
			{"subscribe a1", Subscribe(dir, "tracks.north", a1, Control)},
			{"subscribe a2", Subscribe(dir, "tracks.north", a2, Control)},
			{"subscribe elsewhere", Subscribe(dir, "alarms", a2, Normal|Durable)},
			{"unsubscribe a2", Unsubscribe(dir, "tracks.north", a2)},
			{"unsubscribe a stranger", Unsubscribe(dir, "tracks.south", a2)},
			{"ack cursor", AckCursor(dir, "alarms", "billing", 7)},
			{"ack cursor, stale", AckCursor(dir, "alarms", "billing", 5)},
			{"subscribe pattern", SubscribePattern(dir, "tracks.*", pat)},
			{"subscribe second pattern", SubscribePattern(dir, "alarms", pat)},
			{"unsubscribe second pattern", UnsubscribePattern(dir, "alarms", pat)},
			{"presence up c1", UpsertPresence(dir, "gw-a/c1", "gw-a", ctl)},
			{"presence up c2", UpsertPresence(dir, "gw-a/c2", "gw-a", ctl)},
			{"presence drop c2", DropPresence(dir, "gw-a/c2")},
			{"presence drop a stranger", DropPresence(dir, "gw-a/c9")},
		} {
			if step.err != nil {
				t.Fatalf("%s: %v", step.what, step.err)
			}
		}
		if err := Subscribe(dir, "", a1, Normal); err == nil {
			t.Fatal("subscribe to the empty topic accepted")
		}
		if err := SubscribePattern(dir, "bad..pattern", pat); err == nil {
			t.Fatal("malformed pattern accepted")
		}
		var answers []string
		for _, name := range []string{"tracks.north", "alarms", "tracks.south", "nobody.home"} {
			snap, err := Snapshot(dir, name)
			if err != nil {
				t.Fatalf("snapshot %q: %v", name, err)
			}
			answers = append(answers, fmt.Sprintf("%s class=%d subs=%v pats=%v", name, snap.Class, snap.Addrs(), snap.Pats))
		}
		return strings.Join(answers, "\n")
	}

	local := nameservice.NewTopicRegistry()
	wantAnswers := script(t, LocalDirectory{R: local})
	wantState := describeRegistries(t, local)
	for _, line := range []string{"tracks.north class=2 subs=[" + fmt.Sprint(a1) + "]", "nobody.home class=0 subs=[] pats=[]"} {
		if !strings.Contains(wantAnswers, line) {
			t.Fatalf("local answers lack %q:\n%s", line, wantAnswers)
		}
	}
	if !strings.Contains(wantState, "cursors=billing@7,") || !strings.Contains(wantState, "patterns tracks.*") ||
		strings.Contains(wantState, "gw-a/c2") || !strings.Contains(wantState, "presence gw-a/c1 at gw-a") {
		t.Fatalf("local registry state:\n%s", wantState)
	}

	check := func(name string, answers string, regs ...*nameservice.TopicRegistry) {
		t.Helper()
		if answers != wantAnswers {
			t.Errorf("%s answers:\n%s\nlocal:\n%s", name, answers, wantAnswers)
		}
		if state := describeRegistries(t, regs...); state != wantState {
			t.Errorf("%s registry state:\n%s\nlocal:\n%s", name, state, wantState)
		}
	}

	t.Run("remote", func(t *testing.T) {
		fabric := interconnect.NewFabric(1024)
		reg := nameservice.NewTopicRegistry()
		srv, err := nameservice.NewServerWith(newDomain(t, fabric, 0), nameservice.New(), reg, 16)
		if err != nil {
			t.Fatal(err)
		}
		go srv.Serve(5)
		cli, err := nameservice.NewClient(newDomain(t, fabric, 1), srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		check("remote", script(t, RemoteDirectory{C: cli}), reg)
	})
	t.Run("failover", func(t *testing.T) {
		reg := nameservice.NewTopicRegistry()
		check("failover", script(t, NewFailoverDirectory(LocalDirectory{R: reg})), reg)
	})
	t.Run("sharded", func(t *testing.T) {
		sd := NewShardedDirectory(shardmap.Restore(3, []shardmap.Entry{{ID: 0}, {ID: 1}, {ID: 2}}))
		regs := make([]*nameservice.TopicRegistry, 3)
		for id := range regs {
			regs[id] = nameservice.NewTopicRegistry()
			sd.SetShard(uint32(id), LocalDirectory{R: regs[id]})
		}
		check("sharded", script(t, sd), regs...)
		owners := map[uint32]bool{}
		for _, name := range []string{"tracks.north", "alarms", "gw-a/c1"} {
			id, _ := sd.ShardFor(name)
			owners[id] = true
		}
		if len(owners) < 2 {
			t.Fatalf("the script's names all hash to one shard (%v): nothing sharded was exercised", owners)
		}
	})
}

// TestLocalSnapshotAllocs: a snapshot through Directory.Do costs what
// TopicRegistry.Snapshot and Addrs cost by themselves — the publisher
// takes one every RefreshEvery publishes, inside the fanout path.
func TestLocalSnapshotAllocs(t *testing.T) {
	reg := nameservice.NewTopicRegistry()
	var dir Directory = LocalDirectory{R: reg}
	for i := uint16(1); i <= 8; i++ {
		if err := Subscribe(dir, "t", mustAddr(t, 1, i), Normal); err != nil {
			t.Fatal(err)
		}
	}
	direct := testing.AllocsPerRun(200, func() {
		snap, _ := reg.Snapshot("t")
		_ = snap.Addrs()
	})
	through := testing.AllocsPerRun(200, func() {
		snap, _ := Snapshot(dir, "t")
		_ = snap.Addrs()
	})
	if through != direct {
		t.Fatalf("snapshot through Do allocates %v objects, TopicRegistry.Snapshot + Addrs %v", through, direct)
	}
}
