package commbuf

import (
	"testing"

	"flipc/internal/israce"
	"flipc/internal/mem"
	"flipc/internal/wire"
)

func defaultConfig() Config {
	return Config{
		Node:        1,
		MessageSize: 64,
		NumBuffers:  8,
		Padded:      true,
	}
}

func newBuffer(t *testing.T, cfg Config) *Buffer {
	t.Helper()
	b, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestNewDefaults(t *testing.T) {
	b := newBuffer(t, Config{Node: 2})
	cfg := b.Config()
	if cfg.MessageSize != wire.MinMessageSize {
		t.Fatalf("MessageSize = %d", cfg.MessageSize)
	}
	if cfg.NumBuffers == 0 || cfg.MaxEndpoints == 0 || cfg.DefaultQueueDepth == 0 {
		t.Fatalf("defaults not applied: %+v", cfg)
	}
	if b.Node() != 2 {
		t.Fatalf("Node = %d", b.Node())
	}
	if b.Doorbell() == nil || b.Arena() == nil {
		t.Fatal("nil components")
	}
}

func TestNewValidation(t *testing.T) {
	bad := []Config{
		{MessageSize: 48},
		{MessageSize: 70},
		{MessageSize: 64, NumBuffers: -1},
		{MessageSize: 64, MaxEndpoints: -2},
		{MessageSize: 64, DefaultQueueDepth: 3},
	}
	for _, cfg := range bad {
		if _, err := New(cfg); err == nil {
			t.Errorf("New(%+v) accepted", cfg)
		}
	}
}

func TestMaxPayloadIs56AtMinimum(t *testing.T) {
	b := newBuffer(t, defaultConfig())
	if got := b.Config().MaxPayload(); got != 56 {
		t.Fatalf("MaxPayload = %d, want 56 (paper's minimum application message size)", got)
	}
}

func TestAllocFreeMsgCycle(t *testing.T) {
	b := newBuffer(t, defaultConfig())
	if b.FreeBufferCount() != 8 {
		t.Fatalf("FreeBufferCount = %d", b.FreeBufferCount())
	}
	var msgs []*Msg
	seen := map[int]bool{}
	for i := 0; i < 8; i++ {
		m, err := b.AllocMsg()
		if err != nil {
			t.Fatal(err)
		}
		if seen[m.ID()] {
			t.Fatalf("buffer %d allocated twice", m.ID())
		}
		seen[m.ID()] = true
		msgs = append(msgs, m)
	}
	if _, err := b.AllocMsg(); err != ErrNoBuffers {
		t.Fatalf("exhaustion error = %v", err)
	}
	for _, m := range msgs {
		if err := b.FreeMsg(m); err != nil {
			t.Fatal(err)
		}
	}
	if b.FreeBufferCount() != 8 {
		t.Fatalf("FreeBufferCount after frees = %d", b.FreeBufferCount())
	}
}

func TestFreeMsgValidation(t *testing.T) {
	b := newBuffer(t, defaultConfig())
	if err := b.FreeMsg(nil); err == nil {
		t.Fatal("FreeMsg(nil) accepted")
	}
	b2 := newBuffer(t, defaultConfig())
	m2, _ := b2.AllocMsg()
	if err := b.FreeMsg(m2); err == nil {
		t.Fatal("FreeMsg of foreign buffer accepted")
	}
	// Queued buffer cannot be freed.
	m, _ := b.AllocMsg()
	app := b.View(mem.ActorApp)
	dst, _ := wire.MakeAddr(1, 0, 1)
	if err := m.StageSend(app, dst, 4, 0); err != nil {
		t.Fatal(err)
	}
	if err := b.FreeMsg(m); err == nil {
		t.Fatal("FreeMsg of queued buffer accepted")
	}
}

// Each handle carries its payload area, cut once in New: every id's
// slice is exactly MaxPayload long with no spare capacity, so an append
// cannot spill into the next buffer; no two ids share a byte; and a
// second lookup of an id reaches the same bytes as the first.
func TestMsgPayloadIsolation(t *testing.T) {
	for _, padded := range []bool{true, false} {
		cfg := defaultConfig()
		cfg.Padded = padded
		b := newBuffer(t, cfg)
		want := b.MaxPayload()
		if want != 56 || want != b.Config().MaxPayload() {
			t.Fatalf("padded=%v: MaxPayload = %d, Config's %d, want 56", padded, want, b.Config().MaxPayload())
		}
		for id := 0; id < cfg.NumBuffers; id++ {
			m, err := b.MsgByID(uint64(id))
			if err != nil {
				t.Fatal(err)
			}
			p := m.Payload()
			if len(p) != want || cap(p) != want {
				t.Fatalf("padded=%v id %d: len %d cap %d, want both %d", padded, id, len(p), cap(p), want)
			}
			for i := range p {
				p[i] = byte(id + 1)
			}
			_ = append(p, 0xFF) // must reallocate, not write past the area
		}
		for id := 0; id < cfg.NumBuffers; id++ {
			m, _ := b.MsgByID(uint64(id))
			for i, v := range m.Payload() {
				if v != byte(id+1) {
					t.Fatalf("padded=%v id %d byte %d = %#x, want %#x: payloads overlap", padded, id, i, v, id+1)
				}
			}
		}
	}
}

func TestMsgStateMachine(t *testing.T) {
	b := newBuffer(t, defaultConfig())
	app := b.View(mem.ActorApp)
	eng := b.View(mem.ActorEngine)
	dst, _ := wire.MakeAddr(2, 3, 1)

	m, err := b.AllocMsg()
	if err != nil {
		t.Fatal(err)
	}
	if m.State(app) != StateOwned {
		t.Fatalf("fresh state = %v", m.State(app))
	}
	if err := m.StageSend(app, dst, 10, 0x03); err != nil {
		t.Fatal(err)
	}
	if m.State(app) != StateQueued || m.Size(app) != 10 || m.Addr(app) != dst || m.Flags(app) != 0x03 {
		t.Fatalf("staged meta: state=%v size=%d addr=%v flags=%#x",
			m.State(app), m.Size(app), m.Addr(app), m.Flags(app))
	}
	// Double-stage is rejected.
	if err := m.StageSend(app, dst, 10, 0); err == nil {
		t.Fatal("double StageSend accepted")
	}
	m.EngineCompleteSend(eng)
	if m.State(app) != StateDone {
		t.Fatalf("after engine: %v", m.State(app))
	}
	if st, err := m.Reclaim(app); err != nil || st != StateDone {
		t.Fatalf("reclaim = %v, %v", st, err)
	}
	if m.State(app) != StateOwned {
		t.Fatalf("after reclaim: %v", m.State(app))
	}
	if _, err := m.Reclaim(app); err == nil {
		t.Fatal("double reclaim accepted")
	}
	if err := b.FreeMsg(m); err != nil {
		t.Fatal(err)
	}
	if err := m.StageSend(app, dst, 1, 0); err == nil {
		t.Fatal("StageSend on freed buffer accepted")
	}
}

func TestStageSendValidation(t *testing.T) {
	b := newBuffer(t, defaultConfig())
	app := b.View(mem.ActorApp)
	m, _ := b.AllocMsg()
	dst, _ := wire.MakeAddr(1, 1, 1)
	if err := m.StageSend(app, wire.NilAddr, 4, 0); err == nil {
		t.Fatal("nil destination accepted")
	}
	if err := m.StageSend(app, dst, 57, 0); err == nil {
		t.Fatal("oversize payload accepted")
	}
	if err := m.StageSend(app, dst, -1, 0); err == nil {
		t.Fatal("negative size accepted")
	}
}

func TestStageRecvAndFill(t *testing.T) {
	b := newBuffer(t, defaultConfig())
	app := b.View(mem.ActorApp)
	eng := b.View(mem.ActorEngine)
	m, _ := b.AllocMsg()
	if err := m.StageRecv(app); err != nil {
		t.Fatal(err)
	}
	if m.State(app) != StateQueued || m.Size(app) != 0 {
		t.Fatalf("staged recv meta: %v/%d", m.State(app), m.Size(app))
	}
	copy(m.Payload(), "incoming")
	m.EngineFillRecv(eng, 8, wire.FlagUrgent)
	if m.State(app) != StateDone || m.Size(app) != 8 || m.Flags(app) != wire.FlagUrgent {
		t.Fatalf("filled meta: %v/%d/%#x", m.State(app), m.Size(app), m.Flags(app))
	}
	if string(m.Payload()[:8]) != "incoming" {
		t.Fatalf("payload = %q", m.Payload()[:8])
	}
}

func TestEngineDropSend(t *testing.T) {
	b := newBuffer(t, defaultConfig())
	app := b.View(mem.ActorApp)
	eng := b.View(mem.ActorEngine)
	m, _ := b.AllocMsg()
	dst, _ := wire.MakeAddr(1, 1, 1)
	if err := m.StageSend(app, dst, 4, 0); err != nil {
		t.Fatal(err)
	}
	m.EngineDropSend(eng)
	if m.State(app) != StateDropped {
		t.Fatalf("state = %v", m.State(app))
	}
	if st, err := m.Reclaim(app); err != nil || st != StateDropped {
		t.Fatalf("reclaim = %v, %v", st, err)
	}
	if err := b.FreeMsg(m); err != nil {
		t.Fatal(err)
	}
}

func TestMsgByID(t *testing.T) {
	b := newBuffer(t, defaultConfig())
	m, err := b.MsgByID(3)
	if err != nil || m.ID() != 3 {
		t.Fatalf("MsgByID = %v, %v", m, err)
	}
	if _, err := b.MsgByID(8); err == nil {
		t.Fatal("out-of-range ID accepted")
	}
	if !b.ValidBufID(7) || b.ValidBufID(8) {
		t.Fatal("ValidBufID wrong")
	}
	// One handle per buffer: the pool hands out the entry MsgByID indexes.
	owned, err := b.AllocMsg()
	if err != nil {
		t.Fatal(err)
	}
	if again, _ := b.MsgByID(uint64(owned.ID())); again != owned {
		t.Fatalf("MsgByID(%d) = %p, AllocMsg returned %p", owned.ID(), again, owned)
	}
	if israce.Enabled {
		return
	}
	if n := testing.AllocsPerRun(100, func() {
		if _, err := b.MsgByID(3); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("MsgByID allocates %v objects per call, want 0", n)
	}
}

// A staged buffer the queue then refuses goes back to its owner, who
// can stage it again; nothing else may be unstaged.
func TestUnstage(t *testing.T) {
	b := newBuffer(t, defaultConfig())
	app := b.View(mem.ActorApp)
	eng := b.View(mem.ActorEngine)
	dst, _ := wire.MakeAddr(2, 3, 1)
	m, _ := b.AllocMsg()
	if err := m.Unstage(app); err == nil {
		t.Fatal("Unstage of an owned buffer accepted")
	}
	for _, stage := range []func() error{
		func() error { return m.StageSend(app, dst, 10, 0x03) },
		func() error { return m.StageRecv(app) },
	} {
		if err := stage(); err != nil {
			t.Fatal(err)
		}
		if _, err := m.Reclaim(app); err == nil {
			t.Fatal("Reclaim of a queued buffer accepted")
		}
		if err := m.Unstage(app); err != nil {
			t.Fatal(err)
		}
		if m.State(app) != StateOwned {
			t.Fatalf("after Unstage: %v", m.State(app))
		}
	}
	if err := m.StageSend(app, dst, 1, 0); err != nil {
		t.Fatal(err)
	}
	m.EngineCompleteSend(eng)
	if err := m.Unstage(app); err == nil {
		t.Fatal("Unstage of a completed buffer accepted")
	}
}

func TestEngineMeta(t *testing.T) {
	b := newBuffer(t, defaultConfig())
	app := b.View(mem.ActorApp)
	eng := b.View(mem.ActorEngine)
	m, _ := b.AllocMsg()
	dst, _ := wire.MakeAddr(3, 4, 5)
	if err := m.StageSend(app, dst, 12, 0x42); err != nil {
		t.Fatal(err)
	}
	gotDst, gotSize, gotFlags, gotState := m.EngineMeta(eng)
	if gotDst != dst || gotSize != 12 || gotFlags != 0x42 || gotState != StateQueued {
		t.Fatalf("EngineMeta = %v,%d,%#x,%v", gotDst, gotSize, gotFlags, gotState)
	}
}

func TestMetaPackUnpack(t *testing.T) {
	dst, _ := wire.MakeAddr(7, 8, 9)
	w := metaWord{addr: dst, size: 1234, flags: 0xAB, state: StateDone}
	got := unpackMeta(packMeta(w))
	if got != w {
		t.Fatalf("round trip: %+v != %+v", got, w)
	}
}

func TestStateStrings(t *testing.T) {
	for s, want := range map[State]string{
		StateFree: "free", StateOwned: "owned", StateQueued: "queued",
		StateDone: "done", StateDropped: "dropped", State(99): "state(99)",
	} {
		if got := s.String(); got != want {
			t.Errorf("%d.String() = %q", s, got)
		}
	}
	if EndpointSend.String() != "send" || EndpointRecv.String() != "recv" {
		t.Fatal("endpoint type strings")
	}
	if EndpointType(9).String() == "" {
		t.Fatal("unknown endpoint type string empty")
	}
}

func TestUnpaddedLayoutWorks(t *testing.T) {
	cfg := defaultConfig()
	cfg.Padded = false
	b := newBuffer(t, cfg)
	app := b.View(mem.ActorApp)
	m, _ := b.AllocMsg()
	dst, _ := wire.MakeAddr(1, 1, 1)
	if err := m.StageSend(app, dst, 8, 0); err != nil {
		t.Fatal(err)
	}
	ep, err := b.AllocEndpoint(EndpointSend, 4)
	if err != nil {
		t.Fatal(err)
	}
	if ep.Addr().Node() != 1 {
		t.Fatalf("addr = %v", ep.Addr())
	}
}

func TestLargeMessageSizeConfig(t *testing.T) {
	cfg := defaultConfig()
	cfg.MessageSize = 512
	b := newBuffer(t, cfg)
	if got := b.Config().MaxPayload(); got != 504 {
		t.Fatalf("MaxPayload = %d", got)
	}
	m, _ := b.AllocMsg()
	if len(m.Payload()) != 504 {
		t.Fatalf("payload len = %d", len(m.Payload()))
	}
}
