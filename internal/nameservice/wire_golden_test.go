package nameservice

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"flipc/internal/core"
	"flipc/internal/interconnect"
	"flipc/internal/shardmap"
	"flipc/internal/wire"
)

// Wire and gate goldens of the remote registry protocol, ops 1-14,
// recorded from commit cab165b (the hand-dispatched Server.process and
// the per-op Client methods) and unchanged since: the exact request
// bytes the client emits, the exact response bytes Server.process
// returns for the ok case and for each refusal, and the gate matrix —
// every op against a reserved name, a reserved name with the privilege
// marker, a name another shard owns, a standby server and a malformed
// tail. Op and status codes are written as the numbers they are on the
// wire, on purpose. The client half calls the directory ops through
// calls_test.go, the only file that knows which Client API it runs on.

const goldenPayload = 120 // payload of the 128-byte messages every rig here uses

const (
	goldReply = wire.Addr(0x00400c01) // node 1, endpoint 3, gen 1
	goldSub   = wire.Addr(0x00801401) // node 2, endpoint 5, gen 1
	goldPat   = wire.Addr(0x00c0fc01) // node 3, endpoint 63, gen 1
)

func unhex(t testing.TB, s string) []byte {
	t.Helper()
	b, err := hex.DecodeString(strings.ReplaceAll(s, " ", ""))
	if err != nil {
		t.Fatalf("bad golden %q: %v", s, err)
	}
	return b
}

// greq lays a request out by hand: op | reply address | 4-byte field |
// name length | name | tail.
func greq(op byte, field uint32, name string, tail ...byte) []byte {
	req := []byte{op, 0, 0, 0, 0, 0, 0, 0, 0, byte(len(name))}
	binary.BigEndian.PutUint32(req[1:5], uint32(goldReply))
	binary.BigEndian.PutUint32(req[5:9], field)
	return append(append(req, name...), tail...)
}

// goldenSeed gives a registry the state the goldens read: "big" (class
// 2, 60 subscribers: three snapshot pages at 27 addresses a page), one
// catch-all pattern subscriber (the block after the last page) and
// "alarms" (class 1, empty). Both names hash to shard 0 of goldenMap.
func goldenSeed(t testing.TB, s *Server) {
	t.Helper()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(s.topics.Declare("big", 2))
	for i := uint16(1); i <= 60; i++ {
		a, err := wire.MakeAddr(3, i, 1)
		must(err)
		must(s.topics.Subscribe("big", a))
	}
	must(s.topics.SubscribePattern("*", goldPat))
	must(s.topics.Declare("alarms", 1))
}

var goldenMap = shardmap.Restore(9, []shardmap.Entry{
	{ID: 0, Addr: 0x00000401}, {ID: 1, Addr: 0x00400401}, {ID: 2, Addr: 0x00800401},
})

// goldenServer is a seeded Server with no domain under it: process is
// driven directly, as the fuzz harness does.
func goldenServer(t testing.TB, sharded, primary bool) *Server {
	t.Helper()
	s := &Server{dir: New(), topics: NewTopicRegistry()}
	s.SetInfo(func() RegistryInfo { return RegistryInfo{Primary: primary, Gen: 7, Seq: 42, Epoch: 3} })
	if sharded {
		s.SetShards(0, goldenMap)
		for name, want := range map[string]uint32{"big": 0, "alarms": 0, "gw-a/c3": 0, "radar": 1, "gw-a/c1": 1, "!registry": 2} {
			if got, _ := goldenMap.ShardOf(name); got != want {
				t.Fatalf("golden name %q hashes to shard %d, the goldens assume %d", name, got, want)
			}
		}
	}
	goldenSeed(t, s)
	return s
}

// TestWireGoldenClientRequests pins what the client puts on the wire for
// each op. Every op runs on a fresh client (so its first tag is 1)
// against a live server whose requests are captured before they are
// served. "R" stands for the client's reply address. A register-shaped
// request (ops 1, 3, 4, 5, 11, 12, 13: bytes 5-9 are an address, not a
// request id) may carry four more bytes after the golden ones — a
// trailing request id — and nothing else.
func TestWireGoldenClientRequests(t *testing.T) {
	for _, g := range []struct {
		name       string
		privileged bool
		call       func(c *Client) error
		trailingID bool
		reqs       []string
	}{
		{"register", false, func(c *Client) error { return c.Register("svc", goldSub, callTimeout) }, true,
			[]string{"01 R 00801401 03 737663"}},
		{"lookup", false, func(c *Client) error { _, err := c.Lookup("svc", callTimeout); return ignoreNotFound(err) }, false,
			[]string{"02 R 00000001 03 737663"}},
		{"unregister", false, func(c *Client) error { return c.Unregister("svc", callTimeout) }, true,
			[]string{"03 R 00000000 03 737663"}},
		{"subscribe", false, func(c *Client) error { return subscribe(c, "alarms", goldSub, 1) }, true,
			[]string{"04 R 00801401 06 616c61726d73 01"}},
		{"subscribe privileged", true, func(c *Client) error { return subscribe(c, "!registry", goldSub, 0) }, true,
			[]string{"04 R 00801401 09 217265676973747279 00 52"}},
		{"unsubscribe", false, func(c *Client) error { return unsubscribe(c, "alarms", goldSub) }, true,
			[]string{"05 R 00801401 06 616c61726d73"}},
		{"unsubscribe privileged", true, func(c *Client) error { return unsubscribe(c, "!registry", goldSub) }, true,
			[]string{"05 R 00801401 09 217265676973747279 52"}},
		{"snapshot", false, func(c *Client) error {
			snap, err := c.TopicSnapshot("big", callTimeout)
			if err == nil && (len(snap.Subs) != 60 || len(snap.Pats) != 1 || snap.Class != 2) {
				err = fmt.Errorf("snapshot = %d subs, %d pats, class %d", len(snap.Subs), len(snap.Pats), snap.Class)
			}
			return err
		}, false, []string{
			"06 R 00000001 03 626967 00000000",
			"06 R 00000002 03 626967 0000001b",
			"06 R 00000003 03 626967 00000036"}},
		{"registry info", false, func(c *Client) error { _, err := c.RegistryInfo(callTimeout); return err }, false,
			[]string{"07 R 00000001 00"}},
		{"topic list", false, func(c *Client) error { _, err := c.TopicList(callTimeout); return err }, false,
			[]string{"08 R 00000001 00 00000000"}},
		{"shard map", false, func(c *Client) error { _, _, err := c.ShardMap(callTimeout); return err }, false,
			[]string{"0a R 00000001 00 00000000"}},
		{"pattern sub", false, func(c *Client) error { return subscribePattern(c, "metrics.*", goldSub) }, true,
			[]string{"0b R 00801401 09 6d6574726963732e2a"}},
		{"pattern unsub", false, func(c *Client) error { return unsubscribePattern(c, "metrics.*", goldSub) }, true,
			[]string{"0c R 00801401 09 6d6574726963732e2a"}},
		{"presence up", false, func(c *Client) error { return upsertPresence(c, "gw-a/c3", "gw-a", goldSub) }, true,
			[]string{"0d R 00801401 07 67772d612f6333 04 67772d61"}},
		{"presence drop", false, func(c *Client) error { return dropPresence(c, "gw-a/c3") }, false,
			[]string{"0e R 00000001 07 67772d612f6333"}},
	} {
		t.Run(g.name, func(t *testing.T) {
			srv, cli := goldenRig(t)
			goldenSeed(t, srv)
			cli.Privileged = g.privileged
			var seen [][]byte
			stop, done := make(chan struct{}), make(chan struct{})
			go func() {
				defer close(done)
				for {
					select {
					case <-stop:
						return
					default:
					}
					req, _, ok := srv.in.Receive()
					if !ok {
						time.Sleep(50 * time.Microsecond)
						continue
					}
					seen = append(seen, bytes.Clone(req)) // the inbox lends req until its next receive
					srv.handle(req, 0)
				}
			}()
			err := g.call(cli)
			close(stop)
			<-done
			if err != nil {
				t.Fatalf("call failed: %v", err)
			}
			if len(seen) != len(g.reqs) {
				t.Fatalf("client sent %d requests, golden has %d: %x", len(seen), len(g.reqs), seen)
			}
			reply := fmt.Sprintf("%08x", uint32(cli.in.Addr()))
			for i, got := range seen {
				want := unhex(t, strings.ReplaceAll(g.reqs[i], "R", reply))
				if g.trailingID && len(got) == len(want)+4 {
					got = got[:len(want)]
				}
				if !bytes.Equal(got, want) {
					t.Errorf("request %d = %x\n           golden %x", i, seen[i], want)
				}
			}
		})
	}
}

func ignoreNotFound(err error) error {
	if errors.Is(err, ErrNotFound) {
		return nil
	}
	return err
}

// goldenRig is a shard-aware server (shard 0 of goldenMap) and a client
// of it on a second domain, with no serve loop: the caller pulls
// requests off srv.in itself.
func goldenRig(t testing.TB) (*Server, *Client) {
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
	srv, err := NewServer(mk(0), New(), 16)
	if err != nil {
		t.Fatal(err)
	}
	srv.SetShards(0, goldenMap)
	cli, err := NewClient(mk(1), srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	return srv, cli
}

// TestWireGoldenServerResponses pins Server.process byte for byte: each
// op's ok response and every refusal it can give, the three pages of a
// 60-subscriber snapshot with the pattern block behind the last one, a
// legacy 2-byte page offset, and the registry-info and shard-map
// headers. Requests run in order against one server per role, so later
// rows see earlier rows' effects (lookup after register, and so on).
func TestWireGoldenServerResponses(t *testing.T) {
	primary := goldenServer(t, true, true)
	standby := goldenServer(t, true, false)
	unsharded := goldenServer(t, false, true)
	cursor := append([]byte{0, 0, 0, 0, 0, 0, 0, 9, 3}, "sub"...)
	gw := append([]byte{4}, "gw-a"...)
	page := func(from, n int) string { // n addresses of "big", starting at subscriber from+1
		var b strings.Builder
		for i := from + 1; i <= from+n; i++ {
			a, _ := wire.MakeAddr(3, uint16(i), 1)
			fmt.Fprintf(&b, "%08x", uint32(a))
		}
		return b.String()
	}
	for _, g := range []struct {
		name string
		s    *Server
		req  []byte
		resp string
	}{
		{"register ok", primary, greq(1, uint32(goldSub), "svc"), "00 00000000 00801401"},
		{"register duplicate", primary, greq(1, uint32(goldSub), "svc"), "02 00000000 00801401"},
		{"register empty name", primary, greq(1, uint32(goldSub), ""), "03 00000000 00801401"},
		{"lookup ok", primary, greq(2, 7, "svc"), "00 00801401 00000007"},
		{"lookup not found", primary, greq(2, 7, "nope"), "01 00000000 00000007"},
		{"unregister ok", primary, greq(3, 0, "svc"), "00 00000000 00000000"},

		{"subscribe ok", primary, greq(4, uint32(goldSub), "alarms", 1), "00 00000000 00801401"},
		{"subscribe no class byte", primary, greq(4, uint32(goldSub), "alarms"), "00 00000000 00801401"},
		{"subscribe bad address", primary, greq(4, 0, "alarms", 1), "03 00000000 00000000"},
		{"subscribe reserved", primary, greq(4, uint32(goldSub), "!registry", 0), "06 00000000 00801401"},
		{"subscribe reserved privileged", primary, greq(4, uint32(goldSub), "!registry", 0, 0x52), "00 00000000 00801401"},
		{"subscribe not owner", primary, greq(4, uint32(goldSub), "radar", 1), "05 00000001 00801401"},
		{"subscribe not primary", standby, greq(4, uint32(goldSub), "alarms", 1), "04 00000000 00801401"},

		{"unsubscribe ok", primary, greq(5, uint32(goldSub), "alarms"), "00 00000000 00801401"},
		{"unsubscribe reserved", primary, greq(5, uint32(goldSub), "!registry"), "06 00000000 00801401"},
		{"unsubscribe reserved privileged", primary, greq(5, uint32(goldSub), "!registry", 0x52), "00 00000000 00801401"},
		{"unsubscribe not owner", primary, greq(5, uint32(goldSub), "radar"), "05 00000001 00801401"},
		{"unsubscribe not primary", standby, greq(5, uint32(goldSub), "alarms"), "04 00000000 00801401"},

		{"snapshot page 1", primary, greq(6, 9, "big", 0, 0, 0, 0), "00 0000003e 00000009 02 1b" + page(0, 27)},
		{"snapshot page 2", primary, greq(6, 10, "big", 0, 0, 0, 27), "00 0000003e 0000000a 02 1b" + page(27, 27)},
		{"snapshot page 2, legacy 2-byte offset", primary, greq(6, 11, "big", 0, 27), "00 0000003e 0000000b 02 1b" + page(27, 27)},
		{"snapshot page 3 with pattern block", primary, greq(6, 12, "big", 0, 0, 0, 54), "00 0000003e 0000000c 02 06" + page(54, 6) + "01 00c0fc01"},
		{"snapshot past the end", primary, greq(6, 13, "big", 0, 0, 1, 0), "00 0000003e 0000000d 02 00 01 00c0fc01"},
		{"snapshot no offset bytes", primary, greq(6, 14, "alarms"), "00 00000006 0000000e 01 00 01 00c0fc01"},
		{"snapshot not found", primary, greq(6, 15, "no.such.topic"), "01 00000000 0000000f 00 00"},
		{"snapshot pattern-only topic", primary, greq(6, 16, "metrics"), "00 00000001 00000010 00 00 01 00c0fc01"},
		{"snapshot not owner", primary, greq(6, 17, "radar"), "05 00000001 00000011"},
		{"snapshot at standby", standby, greq(6, 18, "alarms"), "00 00000002 00000012 01 00 01 00c0fc01"},

		{"registry info primary", primary, greq(7, 19, ""), "00 00000000 00000013 01 0000000000000007 000000000000002a 0000000000000003"},
		{"registry info standby", standby, greq(7, 20, ""), "00 00000000 00000014 00 0000000000000007 000000000000002a 0000000000000003"},

		{"topic list", primary, greq(8, 21, "", 0, 0, 0, 0), "00 00000003 00000015 03 09 217265676973747279 06 616c61726d73 03 626967"},
		{"topic list from 2, legacy offset", primary, greq(8, 22, "", 0, 2), "00 00000003 00000016 01 03 626967"},
		{"topic list past the end", primary, greq(8, 23, "", 0, 0, 0, 9), "00 00000003 00000017 00"},

		// Code 9, the retired cursor ack, is unassigned: refused as bad
		// before any gate, whatever its tail, name or the node's role.
		{"code 9 unassigned", primary, greq(9, 24, "alarms", cursor...), "03 00000000 00000018"},
		{"code 9 short tail", primary, greq(9, 25, "alarms", 0, 0, 0), "03 00000000 00000019"},
		{"code 9 empty subscriber", primary, greq(9, 26, "alarms", 0, 0, 0, 0, 0, 0, 0, 9, 0, 0), "03 00000000 0000001a"},
		{"code 9 reserved, marker or not", primary, greq(9, 27, "!registry", append(cursor, 0x52)...), "03 00000000 0000001b"},
		{"code 9 foreign shard", primary, greq(9, 28, "radar", cursor...), "03 00000000 0000001c"},
		{"code 9 at standby", standby, greq(9, 29, "alarms", cursor...), "03 00000000 0000001d"},

		{"shard map", primary, greq(10, 30, "", 0, 0, 0, 0),
			"00 00000000 0000001e 0000000000000009 0003 03 00000000 0040 00000401 00000001 0040 00400401 00000002 0040 00800401"},
		{"shard map from 2", primary, greq(10, 31, "", 0, 0, 0, 2), "00 00000000 0000001f 0000000000000009 0003 01 00000002 0040 00800401"},
		{"shard map unsharded", unsharded, greq(10, 32, "", 0, 0, 0, 0), "01 00000000 00000020 0000000000000000 0000 00"},

		{"pattern sub ok", primary, greq(11, uint32(goldSub), "metrics.*"), "00 00000000 00801401"},
		{"pattern sub bad pattern", primary, greq(11, uint32(goldSub), "bad..pattern"), "03 00000000 00801401"},
		{"pattern sub reserved-looking name is just a bad pattern", primary, greq(11, uint32(goldSub), "!registry"), "03 00000000 00801401"},
		{"pattern sub not primary", standby, greq(11, uint32(goldSub), "metrics.*"), "04 00000000 00801401"},
		{"pattern unsub ok", primary, greq(12, uint32(goldSub), "metrics.*"), "00 00000000 00801401"},
		{"pattern unsub bad pattern", primary, greq(12, uint32(goldSub), "bad..pattern"), "03 00000000 00801401"},
		{"pattern unsub not primary", standby, greq(12, uint32(goldSub), "metrics.*"), "04 00000000 00801401"},

		{"presence up ok", primary, greq(13, uint32(goldSub), "gw-a/c3", gw...), "00 00000000 00801401"},
		{"presence up name overruns tail", primary, greq(13, uint32(goldSub), "gw-a/c3", 9), "03 00000000 00801401"},
		{"presence up no tail", primary, greq(13, uint32(goldSub), "gw-a/c3"), "03 00000000 00801401"},
		{"presence up reserved", primary, greq(13, uint32(goldSub), "!registry", gw...), "06 00000000 00801401"},
		{"presence up not owner", primary, greq(13, uint32(goldSub), "gw-a/c1", gw...), "05 00000001 00801401"},
		{"presence up not primary", standby, greq(13, uint32(goldSub), "gw-a/c3", gw...), "04 00000000 00801401"},
		{"presence drop ok", primary, greq(14, 33, "gw-a/c3"), "00 00000000 00000021"},
		{"presence drop reserved", primary, greq(14, 34, "!registry"), "06 00000000 00000022"},
		{"presence drop not owner", primary, greq(14, 35, "gw-a/c1"), "05 00000001 00000023"},
		{"presence drop not primary", standby, greq(14, 36, "gw-a/c3"), "04 00000000 00000024"},

		{"unknown op", primary, greq(99, 37, "x"), "03 00000000 00000025"},
		{"name length overruns request", primary, append(greq(2, 38, "abc")[:9], 200, 'a', 'b', 'c'), "03 00000000 00000026"},
	} {
		to, resp := g.s.process(g.req, goldenPayload)
		if to != goldReply {
			t.Errorf("%s: reply addressed to %v, want %v", g.name, to, goldReply)
		}
		if want := unhex(t, g.resp); !bytes.Equal(resp, want) {
			t.Errorf("%s:\n   got %x\ngolden %x", g.name, resp, want)
		}
	}
	for name, req := range map[string][]byte{
		"short header":          {2, 0, 0},
		"invalid reply address": append([]byte{2, 0, 0, 0, 0, 0, 0, 0, 7, 1}, 'x'),
	} {
		if to, resp := primary.process(req, goldenPayload); resp != nil || to != wire.NilAddr {
			t.Errorf("%s: answered %x to %v, want no response", name, resp, to)
		}
	}
}

// TestWireGoldenGateMatrix pins how every op is gated: for each op, the
// status and bytes 1-5 of the response to a reserved name, a reserved
// name whose tail carries the privilege marker where that op would look
// for it, a name shard 1 owns (asked of shard 0), a well-formed request
// at a standby, and a malformed tail. Every cell runs on a fresh server.
func TestWireGoldenGateMatrix(t *testing.T) {
	type cell struct {
		status byte
		field  uint32
	}
	cursor := append([]byte{0, 0, 0, 0, 0, 0, 0, 9, 3}, "sub"...)
	gw := append([]byte{4}, "gw-a"...)
	addr, tag := uint32(goldSub), uint32(77)
	for _, g := range []struct {
		op        byte
		field     uint32
		tail      []byte // well-formed
		marked    []byte // well-formed, with the privilege marker
		malformed []byte
		// reserved, reserved+marker, foreign shard, standby, malformed tail
		want [5]cell
	}{
		{1, addr, nil, []byte{0x52}, []byte{0xFF}, [5]cell{{0, 0}, {0, 0}, {0, 0}, {0, 0}, {0, 0}}},
		{2, tag, nil, []byte{0x52}, []byte{0xFF}, [5]cell{{1, 0}, {1, 0}, {1, 0}, {1, 0}, {1, 0}}},
		{3, 0, nil, []byte{0x52}, []byte{0xFF}, [5]cell{{0, 0}, {0, 0}, {0, 0}, {0, 0}, {0, 0}}},
		{4, addr, []byte{1}, []byte{1, 0x52}, nil, [5]cell{{6, 0}, {0, 0}, {5, 1}, {4, 0}, {0, 0}}},
		{5, addr, nil, []byte{0x52}, []byte{0xFF, 0xFF}, [5]cell{{6, 0}, {0, 0}, {5, 1}, {4, 0}, {0, 0}}},
		{6, tag, []byte{0, 0, 0, 0}, []byte{0, 0, 0, 0, 0x52}, []byte{0xFF}, [5]cell{{0, 1}, {0, 1}, {5, 1}, {0, 2}, {0, 2}}},
		{7, tag, nil, []byte{0x52}, []byte{0xFF}, [5]cell{{0, 0}, {0, 0}, {0, 0}, {0, 0}, {0, 0}}},
		{8, tag, []byte{0, 0, 0, 0}, []byte{0, 0, 0, 0, 0x52}, []byte{0xFF}, [5]cell{{0, 2}, {0, 2}, {0, 2}, {0, 2}, {0, 2}}},
		{9, tag, cursor, append(cursor[:len(cursor):len(cursor)], 0x52), []byte{0, 0, 0}, [5]cell{{3, 0}, {3, 0}, {3, 0}, {3, 0}, {3, 0}}}, // unassigned
		{10, tag, []byte{0, 0, 0, 0}, []byte{0, 0, 0, 0, 0x52}, []byte{0xFF}, [5]cell{{0, 0}, {0, 0}, {0, 0}, {0, 0}, {0, 0}}},
		{11, addr, nil, []byte{0x52}, []byte{0xFF}, [5]cell{{3, 0}, {3, 0}, {0, 0}, {4, 0}, {0, 0}}},
		{12, addr, nil, []byte{0x52}, []byte{0xFF}, [5]cell{{3, 0}, {3, 0}, {0, 0}, {4, 0}, {0, 0}}},
		{13, addr, gw, append(gw[:len(gw):len(gw)], 0x52), []byte{9}, [5]cell{{6, 0}, {6, 0}, {5, 1}, {4, 0}, {3, 0}}},
		{14, tag, nil, []byte{0x52}, []byte{0xFF}, [5]cell{{6, 0}, {6, 0}, {5, 1}, {4, 0}, {0, 0}}},
	} {
		owned, foreign := "alarms", "radar"
		if g.op == 13 || g.op == 14 {
			owned, foreign = "gw-a/c3", "gw-a/c1" // presence keys: shard 0's and shard 1's
		}
		for col, c := range []struct {
			what    string
			primary bool
			name    string
			tail    []byte
		}{
			{"reserved name", true, "!registry", g.tail},
			{"reserved name + marker", true, "!registry", g.marked},
			{"foreign shard", true, foreign, g.tail},
			{"standby", false, owned, g.tail},
			{"malformed tail", true, owned, g.malformed},
		} {
			s := goldenServer(t, true, c.primary)
			_, resp := s.process(greq(g.op, g.field, c.name, c.tail...), goldenPayload)
			if len(resp) < 9 {
				t.Fatalf("op %d, %s: response %x", g.op, c.what, resp)
			}
			got := cell{resp[0], binary.BigEndian.Uint32(resp[1:5])}
			if got != g.want[col] {
				t.Errorf("op %d, %s: status %d field %d, golden status %d field %d",
					g.op, c.what, got.status, got.field, g.want[col].status, g.want[col].field)
			}
			if !bytes.Equal(resp[5:9], greq(g.op, g.field, "")[5:9]) {
				t.Errorf("op %d, %s: bytes 5-9 = %x, want the request's echoed", g.op, c.what, resp[5:9])
			}
		}
	}
}
