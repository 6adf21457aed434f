package commbuf

import (
	"fmt"
	"strings"
	"testing"

	"flipc/internal/mem"
)

// seqTracer records every traced access as "<L|S|B><word>" per actor.
type seqTracer struct{ seq map[mem.Actor][]string }

func (s *seqTracer) add(a mem.Actor, op byte, w int) {
	s.seq[a] = append(s.seq[a], fmt.Sprintf("%c%d", op, w))
}
func (s *seqTracer) OnLoad(a mem.Actor, w int)    { s.add(a, 'L', w) }
func (s *seqTracer) OnStore(a mem.Actor, w int)   { s.add(a, 'S', w) }
func (s *seqTracer) OnBusLock(a mem.Actor, w int) { s.add(a, 'B', w) }

// TestFigure4CycleTracedSequence runs the paper's five-step cycle
// (Figure 4) over the shared words with exactly the primitives
// core.Endpoint and the engine's transmit/deliver use, on a traced
// arena, and compares each actor's load/store sequence with the one
// recorded at commit 862594a — before mem's accessors were split into an
// inlinable untraced half and an out-of-line traced half, and before
// Msg cached its meta-word offset. The engine's sequence was re-recorded
// once since, when the send and receive runs began storing process from
// the two pointers they loaded at the start, not from a second load of
// both (the `L process L release` before each `S process` is gone). A
// traced access that inlining or layer-stripping silently dropped (or
// duplicated) shows up here as a changed sequence; cachesim,
// experiments and flipcstat consume exactly this stream.
func TestFigure4CycleTracedSequence(t *testing.T) {
	b := newBuffer(t, Config{Node: 1, MessageSize: 64, NumBuffers: 4, MaxEndpoints: 2, Padded: true})
	sep, err := b.AllocEndpoint(EndpointSend, 4)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := b.AllocEndpoint(EndpointRecv, 4)
	if err != nil {
		t.Fatal(err)
	}
	app, eng := b.View(mem.ActorApp), b.View(mem.ActorEngine)
	sInfo := mustOpen(t, b, eng, sep.Index())
	rInfo := mustOpen(t, b, eng, rep.Index())
	sm, err := b.AllocMsg()
	if err != nil {
		t.Fatal(err)
	}
	rm, err := b.AllocMsg()
	if err != nil {
		t.Fatal(err)
	}

	tr := &seqTracer{seq: map[mem.Actor][]string{}}
	b.Arena().SetTracer(tr)
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	// engineRun opens a run of one buffer as the engine does: process
	// and release loaded once, the slot read between them; the run's
	// one store of process hands the buffer back.
	engineRun := func(info *Endpoint) (*Msg, func()) {
		t.Helper()
		process, release := info.Queue().ProcessWords()
		proc, rel := eng.Load(process), eng.Load(release)
		if rel-proc != 1 {
			t.Fatalf("backlog %d, want 1", rel-proc)
		}
		id := info.Queue().Slot(eng, proc)
		m, err := b.MsgByID(id)
		must(err)
		if _, _, _, st := m.EngineMeta(eng); st != StateQueued {
			t.Fatalf("buffer %d state %v", id, st)
		}
		return m, func() { eng.Store(process, rel) }
	}
	idle := func(info *Endpoint) bool {
		process, release := info.Queue().ProcessWords()
		return eng.Load(process) == eng.Load(release)
	}

	// Step 1: the receiver posts a buffer.
	must(rm.StageRecv(app))
	if !rep.Queue().Release(app, uint64(rm.ID())) {
		t.Fatal("post refused")
	}
	// Step 2: the sender queues a message.
	must(sm.StageSend(app, rep.Addr(), 24, 1))
	if !sep.Queue().Release(app, uint64(sm.ID())) {
		t.Fatal("send refused")
	}
	// Step 3: the sending engine transmits it, then finds the queue idle.
	m, done := engineRun(&sInfo)
	m.EngineCompleteSend(eng)
	done()
	if !idle(&sInfo) {
		t.Fatal("send queue not idle")
	}
	// Step 4: the receiving engine delivers it; a second arrival finds
	// no buffer and is counted.
	m, done = engineRun(&rInfo)
	m.EngineFillRecv(eng, 24, 1)
	done()
	if rInfo.WakeupRequested(eng) {
		t.Fatal("wakeup flag set")
	}
	if !idle(&rInfo) {
		t.Fatal("recv queue not idle")
	}
	rInfo.Drops().Incr(eng)
	// Step 5: both applications take their buffers back.
	if id, ok := rep.Queue().Acquire(app); !ok || id != uint64(rm.ID()) {
		t.Fatalf("receive = %d, %v", id, ok)
	}
	if rm.Size(app) != 24 || rm.Flags(app) != 1 {
		t.Fatal("received meta wrong")
	}
	if st, err := rm.Reclaim(app); err != nil || st != StateDone {
		t.Fatalf("reclaim received buffer = %v, %v", st, err)
	}
	if id, ok := sep.Queue().Acquire(app); !ok || id != uint64(sm.ID()) {
		t.Fatalf("acquire = %d, %v", id, ok)
	}
	if st := sm.State(app); st != StateDone {
		t.Fatalf("send buffer %v, want done", st)
	}
	if _, err := sm.Reclaim(app); err != nil {
		t.Fatal(err)
	}
	if rep.Drops().ReadAndReset(app) != 1 {
		t.Fatal("drop not counted")
	}
	must(b.FreeMsg(sm))

	b.Arena().SetTracer(nil)
	want := map[mem.Actor]string{
		mem.ActorApp:    figure4AppSeq,
		mem.ActorEngine: figure4EngineSeq,
	}
	for actor, w := range want {
		if got := strings.Join(tr.seq[actor], " "); got != w {
			t.Errorf("%v sequence changed:\n got %s\nwant %s", actor, got, w)
		}
	}
	if len(tr.seq) != len(want) {
		t.Errorf("accesses attributed to unexpected actors: %v", tr.seq)
	}
}

const (
	figure4AppSeq    = "L4 S4 L144 L152 S156 S144 L0 S0 L116 L124 S128 S116 L152 L148 L156 S152 L4 L4 L4 L4 S4 L124 L120 L128 S124 L0 L0 L0 S0 L160 L164 S164 L0 S0"
	figure4EngineSeq = "L120 L116 L128 L0 L0 S0 S120 L120 L116 L148 L144 L156 L4 S4 S148 L168 L148 L144 L160 S160"
)
