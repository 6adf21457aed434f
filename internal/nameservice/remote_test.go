package nameservice

import (
	"encoding/binary"
	"errors"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"flipc/internal/core"
	"flipc/internal/interconnect"
	"flipc/internal/msglib"
	"flipc/internal/wire"
)

func newRemoteRig(t *testing.T) (*Server, *Client, *core.Domain, *core.Domain) {
	return newRemoteRigInfo(t, nil)
}

// newRemoteRigInfo is newRemoteRig with the server's registry-info
// source installed before the serve loop starts (SetInfo is wiring-time
// configuration, not synchronized against a running server).
func newRemoteRigInfo(t *testing.T, info func() RegistryInfo) (*Server, *Client, *core.Domain, *core.Domain) {
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
	if info != nil {
		srv.SetInfo(info)
	}
	go srv.Serve(5)
	cli, err := NewClient(cd, srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	return srv, cli, sd, cd
}

const callTimeout = 5 * time.Second

func TestRemoteRegisterLookup(t *testing.T) {
	_, cli, _, cd := newRemoteRig(t)
	// Publish a real endpoint's address through the in-band directory.
	ep, err := cd.NewRecvEndpoint(4)
	if err != nil {
		t.Fatal(err)
	}
	if err := cli.Register("svc.sensor", ep.Addr(), callTimeout); err != nil {
		t.Fatal(err)
	}
	got, err := cli.Lookup("svc.sensor", callTimeout)
	if err != nil {
		t.Fatal(err)
	}
	if got != ep.Addr() {
		t.Fatalf("Lookup = %v, want %v", got, ep.Addr())
	}
}

func TestRemoteLookupNotFound(t *testing.T) {
	_, cli, _, _ := newRemoteRig(t)
	if _, err := cli.Lookup("nonexistent", callTimeout); !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v", err)
	}
}

func TestRemoteTopicOps(t *testing.T) {
	srv, cli, _, cd := newRemoteRig(t)

	// Two subscriber endpoints on the client domain join one topic.
	ep1, err := cd.NewRecvEndpoint(4)
	if err != nil {
		t.Fatal(err)
	}
	ep2, err := cd.NewRecvEndpoint(4)
	if err != nil {
		t.Fatal(err)
	}
	if err := subscribe(cli, "radar.tracks", ep1.Addr(), 2); err != nil {
		t.Fatal(err)
	}
	if err := subscribe(cli, "radar.tracks", ep2.Addr(), 2); err != nil {
		t.Fatal(err)
	}
	snap, err := cli.TopicSnapshot("radar.tracks", callTimeout)
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Subs) != 2 || snap.Class != 2 {
		t.Fatalf("snapshot = %+v, want 2 subs class 2", snap)
	}
	want := map[wire.Addr]bool{ep1.Addr(): true, ep2.Addr(): true}
	for _, s := range snap.Subs {
		if !want[s.Addr] {
			t.Fatalf("unexpected subscriber %v", s.Addr)
		}
	}

	// Leave bumps the generation and shrinks the set.
	if err := unsubscribe(cli, "radar.tracks", ep2.Addr()); err != nil {
		t.Fatal(err)
	}
	snap2, err := cli.TopicSnapshot("radar.tracks", callTimeout)
	if err != nil {
		t.Fatal(err)
	}
	if len(snap2.Subs) != 1 || snap2.Subs[0].Addr != ep1.Addr() {
		t.Fatalf("after leave: %+v", snap2.Subs)
	}
	if snap2.Gen == snap.Gen {
		t.Fatal("leave did not bump membership generation")
	}

	// The server-side registry sees the same state (daemon housekeeping
	// path).
	if got := srv.Topics().Gen("radar.tracks"); got != snap2.Gen {
		t.Fatalf("server gen %d != client view %d", got, snap2.Gen)
	}

	if _, err := cli.TopicSnapshot("no.such.topic", callTimeout); !errors.Is(err, ErrNotFound) {
		t.Fatalf("unknown topic: %v", err)
	}
}

func TestRemoteTopicSnapshotPaging(t *testing.T) {
	// 128-byte messages give 120 payload bytes: (120-11)/4 = 27
	// addresses per page. 40 subscribers forces two pages.
	_, cli, _, _ := newRemoteRig(t)
	for i := 0; i < 40; i++ {
		a, err := wire.MakeAddr(wire.NodeID(i%4), uint16(i), 1)
		if err != nil {
			t.Fatal(err)
		}
		if err := subscribe(cli, "big", a, 0); err != nil {
			t.Fatal(err)
		}
	}
	snap, err := cli.TopicSnapshot("big", callTimeout)
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Subs) != 40 {
		t.Fatalf("paged snapshot returned %d subs, want 40", len(snap.Subs))
	}
	seen := map[wire.Addr]bool{}
	for _, s := range snap.Subs {
		if seen[s.Addr] {
			t.Fatalf("duplicate subscriber %v across pages", s.Addr)
		}
		seen[s.Addr] = true
	}
}

func TestRemoteDuplicateRegister(t *testing.T) {
	_, cli, _, cd := newRemoteRig(t)
	ep, _ := cd.NewRecvEndpoint(4)
	if err := cli.Register("dup", ep.Addr(), callTimeout); err != nil {
		t.Fatal(err)
	}
	if err := cli.Register("dup", ep.Addr(), callTimeout); !errors.Is(err, ErrDuplicate) {
		t.Fatalf("duplicate register: %v", err)
	}
}

func TestRemoteUnregisterAllowsRebind(t *testing.T) {
	_, cli, _, cd := newRemoteRig(t)
	ep1, _ := cd.NewRecvEndpoint(4)
	ep2, _ := cd.NewRecvEndpoint(4)
	if err := cli.Register("x", ep1.Addr(), callTimeout); err != nil {
		t.Fatal(err)
	}
	if err := cli.Unregister("x", callTimeout); err != nil {
		t.Fatal(err)
	}
	if err := cli.Register("x", ep2.Addr(), callTimeout); err != nil {
		t.Fatal(err)
	}
	got, err := cli.Lookup("x", callTimeout)
	if err != nil || got != ep2.Addr() {
		t.Fatalf("rebind lookup = %v, %v", got, err)
	}
}

func TestRemoteNameTooLong(t *testing.T) {
	_, cli, _, _ := newRemoteRig(t)
	long := make([]byte, 150)
	for i := range long {
		long[i] = 'a'
	}
	// 150+10 > 120-byte payload: must be refused client-side.
	if err := cli.Register(string(long), mustAddr(t), callTimeout); err == nil {
		t.Fatal("oversized name accepted")
	}
}

func mustAddr(t *testing.T) wire.Addr {
	t.Helper()
	a, err := wire.MakeAddr(1, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestRemoteClientValidation(t *testing.T) {
	fabric := interconnect.NewFabric(16)
	tr, _ := fabric.Attach(0)
	d, err := core.NewDomain(core.Config{Node: 0, MessageSize: 64}, tr)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if _, err := NewClient(d, wire.NilAddr); err == nil {
		t.Fatal("nil server address accepted")
	}
}

func TestRemoteTimeoutWithoutServer(t *testing.T) {
	fabric := interconnect.NewFabric(16)
	tr, _ := fabric.Attach(0)
	fabric.Attach(1)
	d, err := core.NewDomain(core.Config{Node: 0, MessageSize: 64, NumBuffers: 16}, tr)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	d.Start()
	// Server address points at an unallocated endpoint on node 1.
	dead, _ := wire.MakeAddr(1, 9, 3)
	cli, err := NewClient(d, dead)
	if err != nil {
		t.Fatal(err)
	}
	const timeout = 50 * time.Millisecond
	start := time.Now()
	if _, err := cli.Lookup("anything", timeout); !errors.Is(err, ErrRemoteTimeout) {
		t.Fatalf("err = %v", err)
	}
	if took := time.Since(start); took < timeout {
		t.Fatalf("timed out after %v, before the %v timeout", took, timeout)
	}
}

// A server that exists but never serves: the request lands in its
// inbox, no reply comes, and the call returns ErrRemoteTimeout no
// earlier than its timeout.
func TestRemoteTimeoutUnservedServer(t *testing.T) {
	fabric := interconnect.NewFabric(16)
	mk := func(node wire.NodeID) *core.Domain {
		tr, _ := fabric.Attach(node)
		d, err := core.NewDomain(core.Config{Node: node, MessageSize: 64, NumBuffers: 16}, tr)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(d.Close)
		d.Start()
		return d
	}
	srv, err := NewServer(mk(0), New(), 4)
	if err != nil {
		t.Fatal(err)
	}
	cli, err := NewClient(mk(1), srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	const timeout = 30 * time.Millisecond
	for i := 0; i < 3; i++ {
		start := time.Now()
		if _, err := cli.Lookup("anything", timeout); !errors.Is(err, ErrRemoteTimeout) {
			t.Fatalf("call %d: err = %v", i, err)
		}
		if took := time.Since(start); took < timeout {
			t.Fatalf("call %d timed out after %v, before the %v timeout", i, took, timeout)
		}
	}
}

// Full dogfooding loop: two application nodes discover each other
// purely through the in-band directory, then exchange a message.
func TestRemoteEndToEndDiscovery(t *testing.T) {
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
	dirNode, producer, consumer := mk(0), mk(1), mk(2)
	srv, err := NewServer(dirNode, New(), 16)
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(5)

	// Consumer publishes its inbox via the directory.
	rep, _ := consumer.NewRecvEndpoint(4)
	rb, _ := consumer.AllocBuffer()
	rep.Post(rb)
	cCli, err := NewClient(consumer, srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if err := cCli.Register("consumer.inbox", rep.Addr(), callTimeout); err != nil {
		t.Fatal(err)
	}

	// Producer resolves it and sends.
	pCli, err := NewClient(producer, srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	dst, err := pCli.Lookup("consumer.inbox", callTimeout)
	if err != nil {
		t.Fatal(err)
	}
	sep, _ := producer.NewSendEndpoint(4)
	m, _ := producer.AllocBuffer()
	n := copy(m.Payload(), "discovered in-band")
	if err := sep.Send(m, dst, n); err != nil {
		t.Fatal(err)
	}
	got, err := rep.ReceiveBlock(3, time.Time{})
	if err != nil {
		t.Fatal(err)
	}
	if string(got.Payload()[:got.Len()]) != "discovered in-band" {
		t.Fatalf("payload = %q", got.Payload()[:got.Len()])
	}
}

// TestStandbyRefusesMutations: a server whose info source reports it is
// not the primary (a standby, or a primary that self-demoted after a
// store failure) must refuse topic mutations with ErrNotPrimary instead
// of acknowledging non-durable, non-replicated state — while reads keep
// serving and a later return to primary resumes mutations.
func TestStandbyRefusesMutations(t *testing.T) {
	var primary atomic.Bool
	primary.Store(true)
	_, cli, _, cd := newRemoteRigInfo(t, func() RegistryInfo {
		return RegistryInfo{Primary: primary.Load(), Gen: 7}
	})
	ep, err := cd.NewRecvEndpoint(4)
	if err != nil {
		t.Fatal(err)
	}
	if err := subscribe(cli, "ctl", ep.Addr(), 2); err != nil {
		t.Fatalf("subscribe at primary: %v", err)
	}

	primary.Store(false)
	if err := subscribe(cli, "ctl", ep.Addr(), 2); !errors.Is(err, ErrNotPrimary) {
		t.Fatalf("subscribe at standby: err = %v, want ErrNotPrimary", err)
	}
	if err := unsubscribe(cli, "ctl", ep.Addr()); !errors.Is(err, ErrNotPrimary) {
		t.Fatalf("unsubscribe at standby: err = %v, want ErrNotPrimary", err)
	}
	// Reads still serve, and the refused unsubscribe changed nothing.
	snap, err := cli.TopicSnapshot("ctl", callTimeout)
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Subs) != 1 || snap.Subs[0].Addr != ep.Addr() {
		t.Fatalf("standby refusal mutated state: %+v", snap.Subs)
	}

	primary.Store(true)
	if err := unsubscribe(cli, "ctl", ep.Addr()); err != nil {
		t.Fatalf("unsubscribe after return to primary: %v", err)
	}
}

// TestTopicListStalledPageErrors: a topic name too long for the server
// to fit into one page stalls the paging loop with a zero-entry page;
// the client must surface that as an error, never as a successful but
// silently incomplete listing (a replica would otherwise bootstrap
// partial state).
func TestTopicListStalledPageErrors(t *testing.T) {
	srv, cli, _, _ := newRemoteRigInfo(t, nil)
	long := strings.Repeat("n", 120) // entry exceeds the 128-byte rig payload
	if err := srv.Topics().Declare(long, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := cli.TopicList(callTimeout); !errors.Is(err, ErrBadReply) {
		t.Fatalf("stalled topic list: err = %v, want ErrBadReply", err)
	}
}

// TestStaleReplySkipped parks the late answer to an earlier timed-out
// call in the client's inbox and checks every register-shaped op skips
// it for its own reply instead of, say, following a stale redirect to
// the wrong shard. Bytes 5-9 of these ops carry an address, not a
// request id, and the same subscriber or gateway-lane address across
// topics is the normal case — so besides a reply echoing a different
// address, the stale replies here echo the very address the next call
// uses (0 for Unregister, which sends none): the 9-byte reply an id-less
// request gets, and the 13-byte one carrying an earlier call's id.
func TestStaleReplySkipped(t *testing.T) {
	_, cli, sd, cd := newRemoteRig(t)
	earlier, err := cd.NewRecvEndpoint(4)
	if err != nil {
		t.Fatal(err)
	}
	ep, err := cd.NewRecvEndpoint(4)
	if err != nil {
		t.Fatal(err)
	}
	out, err := msglib.NewOutbox(sd, 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	stale := func(status byte, echo wire.Addr, id ...byte) []byte {
		b := make([]byte, 9, 13)
		b[0] = status
		binary.BigEndian.PutUint32(b[1:5], 7)
		binary.BigEndian.PutUint32(b[5:9], uint32(echo))
		return append(b, id...)
	}

	for _, op := range []struct {
		name string
		echo wire.Addr
		call func() error
	}{
		{"Register", ep.Addr(), func() error { return cli.Register("svc.a", ep.Addr(), callTimeout) }},
		{"Unregister", 0, func() error { return cli.Unregister("svc.a", callTimeout) }},
		{"Subscribe", ep.Addr(), func() error { return subscribe(cli, "radar.tracks", ep.Addr(), 2) }},
		{"Unsubscribe", ep.Addr(), func() error { return unsubscribe(cli, "radar.tracks", ep.Addr()) }},
		{"SubscribePattern", ep.Addr(), func() error { return subscribePattern(cli, "radar.*", ep.Addr()) }},
		{"UnsubscribePattern", ep.Addr(), func() error { return unsubscribePattern(cli, "radar.*", ep.Addr()) }},
		{"UpsertPresence", ep.Addr(), func() error { return upsertPresence(cli, "gw-0/c1", "gw-0", ep.Addr()) }},
	} {
		for _, parked := range [][]byte{
			stale(statusNotOwner, earlier.Addr()),
			stale(statusNotOwner, op.echo),
			stale(statusNotPrimary, op.echo),
			stale(statusNotOwner, op.echo, 0xFF, 0xFF, 0xFF, 0xFE),
		} {
			if err := out.Send(cli.in.Addr(), parked); err != nil {
				t.Fatal(err)
			}
			deadline := time.Now().Add(callTimeout)
			for {
				if _, n := cli.in.Endpoint().Pending(); n > 0 {
					break
				}
				if time.Now().After(deadline) {
					t.Fatal("stale reply never reached the client inbox")
				}
				time.Sleep(50 * time.Microsecond)
			}
			if err := op.call(); err != nil && !errors.Is(err, ErrDuplicate) {
				t.Errorf("%s took the stale reply %x as its answer: %v", op.name, parked, err)
			}
		}
	}
}

// BenchmarkRegistryRoundTrip is one Client.Do (a subscription renew)
// against a server that a goroutine pumps with ServeOne, both domains
// on a started fabric. allocs/op counts the heap objects of the whole
// round trip, client and server side, engines included.
func BenchmarkRegistryRoundTrip(b *testing.B) {
	srv, cli := goldenRig(b)
	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
			}
			if !srv.ServeOne() {
				runtime.Gosched()
			}
		}
	}()
	defer func() { close(stop); <-done }()
	op := Op{Kind: OpSubscribe, Name: "alarms", Addr: goldSub, Class: 1}
	if _, err := cli.Do(op, callTimeout); err != nil { // declares the topic: every timed call renews
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cli.Do(op, callTimeout); err != nil {
			b.Fatal(err)
		}
	}
}
