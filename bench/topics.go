package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"flipc/internal/core"
	"flipc/internal/duralog"
	"flipc/internal/engine"
	"flipc/internal/interconnect"
	"flipc/internal/nameservice"
	"flipc/internal/topic"
	"flipc/internal/wire"
)

const (
	topicName        = "bench.fanout"
	topicSubs        = 8
	topicSubDomains  = 2
	topicPayload     = 64
	topicMessageSize = 128
	topicDepth       = 64 // endpoint queue depth, publisher window, subscriber buffers
	// backlogRecords is the journaled backlog one replay round drains.
	backlogRecords = 5000
	// pollsPerPump is how many engine passes follow one PumpReplay in a
	// replay round: a pump stages up to 32 frames and a pass moves 8.
	pollsPerPump = 4
)

// topicRig is one publisher fanning out to eight subscribers spread
// over two subscriber domains on the fabric. With durable set the
// publisher journals to a duralog and the subscribers run the replay
// seam; the stream phase then becomes replay rounds against a second
// log that holds a fixed backlog.
type topicRig struct {
	g       *gen
	durable bool
	domains []*core.Domain // publisher first
	pub     *topic.Publisher
	subs    []*topic.Subscriber
	chks    []*checker
	payload []byte

	dir     string       // temp dir holding both logs
	live    *duralog.Log // journals the pingpong phase
	backlog *duralog.Log // holds backlogRecords, reopened read-mostly
	round   int
	lost    map[string]uint64 // ledgers of finished replay rounds
	replays uint64            // records replayed in finished rounds
	// firstNs and pumpNs/pumpFrames feed the topic replay rows.
	firstNs    []float64
	pumpNs     int64
	pumpFrames int64
}

// durableRig is the durable topicRig; only it has a replay-round stream.
type durableRig struct{ *topicRig }

func topicDomain(fabric *interconnect.Fabric, node wire.NodeID) (*core.Domain, error) {
	tr, err := fabric.Attach(node)
	if err != nil {
		return nil, err
	}
	return core.NewDomain(core.Config{
		Node: node, MessageSize: topicMessageSize,
		NumBuffers: 1024, MaxEndpoints: 32, DefaultQueueDepth: topicDepth,
		Engine: engine.Config{},
	}, tr)
}

func newTopicRig(c *config, durable bool) (*topicRig, error) {
	r := &topicRig{g: newGen(c.seed, topicPayload), durable: durable,
		payload: make([]byte, topicPayload), lost: make(map[string]uint64)}
	fail := func(err error) (*topicRig, error) {
		r.close()
		return nil, err
	}
	fabric := interconnect.NewFabric(4 * topicDepth)
	for node := wire.NodeID(0); node <= topicSubDomains; node++ {
		d, err := topicDomain(fabric, node)
		if err != nil {
			return fail(err)
		}
		r.domains = append(r.domains, d)
	}
	dir := topic.LocalDirectory{R: nameservice.NewTopicRegistry()}
	cfg := topic.PublisherConfig{Topic: topicName, Class: topic.Normal, Depth: topicDepth, Window: topicDepth}
	if durable {
		var err error
		if r.dir, err = c.tempDir(); err != nil {
			return fail(err)
		}
		if r.live, err = duralog.Open(filepath.Join(r.dir, "live"), duralog.Options{NoSync: true}); err != nil {
			return fail(err)
		}
		if err := r.journalBacklog(); err != nil {
			return fail(err)
		}
		cfg.Log = r.live
	}
	for i := 0; i < topicSubs; i++ {
		d := r.domains[1+i%topicSubDomains]
		var s *topic.Subscriber
		var err error
		if durable {
			s, err = topic.NewSubscriberDurable(d, dir, topicName, topic.Normal, topicDepth, topicDepth/2, fmt.Sprintf("s%d", i))
		} else {
			s, err = topic.NewSubscriber(d, dir, topicName, topic.Normal, topicDepth, topicDepth/2)
		}
		if err != nil {
			return fail(err)
		}
		r.subs = append(r.subs, s)
		r.chks = append(r.chks, newChecker(r.g, 1, 0))
	}
	var err error
	if r.pub, err = topic.NewPublisher(r.domains[0], dir, cfg); err != nil {
		return fail(err)
	}
	if r.pub.Subscribers() != topicSubs {
		return fail(fmt.Errorf("fanout plan holds %d subscribers, want %d", r.pub.Subscribers(), topicSubs))
	}
	if durable {
		if err := r.handshake(); err != nil {
			return fail(err)
		}
	}
	return r, nil
}

// journalBacklog writes the fixed backlog with nobody attached, then
// reopens the log so that replay rounds read a sealed segment: a log
// with no active segment journals no cursor records, so every round
// reads exactly the same bytes.
func (r *topicRig) journalBacklog() error {
	path := filepath.Join(r.dir, "backlog")
	l, err := duralog.Open(path, duralog.Options{NoSync: true})
	if err != nil {
		return err
	}
	for seq := uint64(0); seq < backlogRecords; seq++ {
		r.g.fill(r.payload, seq)
		if _, err := l.Append(topic.Normal.Flags(), r.payload); err != nil {
			l.Close()
			return err
		}
	}
	if err := l.Close(); err != nil {
		return err
	}
	r.backlog, err = duralog.Open(path, duralog.Options{NoSync: true})
	return err
}

// handshake drives hello → resume → grant → done until every durable
// subscriber's seam is locked, so the timed phases see only live frames.
// It then keeps pumping for a few passes: each seam's last cursor ack is
// still in flight, and the publisher reads an ack that repeats a
// position behind the head as a lost tail and replays it.
func (r *topicRig) handshake() error {
	deadline := time.Now().Add(stallAfter)
	for settle := 0; settle < 8; {
		r.pub.PumpReplay(0)
		if _, err := r.pump(nil); err != nil {
			return err
		}
		locked := 0
		for _, s := range r.subs {
			if s.DurableLocked() {
				locked++
			}
		}
		if locked == len(r.subs) && r.pub.CatchingUp() == 0 {
			settle++
		} else if time.Now().After(deadline) {
			return fmt.Errorf("durable handshake stuck: %d of %d seams locked", locked, len(r.subs))
		}
	}
	return nil
}

func (r *topicRig) send(seq uint64, tr *tracer) error {
	r.g.fill(r.payload, seq)
	tr.begin("topic.publish", seq)
	_, err := r.pub.Publish(r.payload)
	tr.end()
	return err
}

func (r *topicRig) pump(tr *tracer) (int, error) {
	for i, d := range r.domains {
		name := "engine.poll.dst"
		if i == 0 {
			name = "engine.poll.src"
		}
		tr.begin(name, 0)
		if d.Poll() {
			tr.end()
		} else {
			tr.cancel()
		}
	}
	got := 0
	for i, s := range r.subs {
		for {
			tr.begin("topic.receive", 0)
			p, _, ok := s.Receive()
			if !ok {
				tr.cancel()
				break
			}
			tr.end()
			if err := r.chks[i].check(p); err != nil {
				return got, fmt.Errorf("subscriber %d: %w", i, err)
			}
			got++
		}
	}
	return got, nil
}

// streamRound is the read use of the log: a durable subscriber whose
// cursor is registered at zero joins a fresh publisher on the backlog
// log and is driven until it holds every record. Everything but the log
// is rebuilt per round so that rounds are identical; only the join and
// the drain are timed.
func (r *durableRig) streamRound(tr *tracer) (roundSample, error) {
	var none roundSample
	r.round++
	name := fmt.Sprintf("round%d", r.round)
	if err := r.backlog.Ack(name, 0); err != nil {
		return none, err
	}
	fabric := interconnect.NewFabric(4 * topicDepth)
	pubD, err := topicDomain(fabric, 0)
	if err != nil {
		return none, err
	}
	defer pubD.Close()
	subD, err := topicDomain(fabric, 1)
	if err != nil {
		return none, err
	}
	defer subD.Close()
	dir := topic.LocalDirectory{R: nameservice.NewTopicRegistry()}
	pub, err := topic.NewPublisher(pubD, dir, topic.PublisherConfig{
		Topic: topicName, Class: topic.Normal, Depth: topicDepth, Window: topicDepth, Log: r.backlog})
	if err != nil {
		return none, err
	}
	chk := newChecker(r.g, 1, 0)

	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0, c0 := time.Now(), cpuNanos()
	sub, err := topic.NewSubscriberDurable(subD, dir, topicName, topic.Normal, topicDepth, topicDepth, name)
	if err != nil {
		return none, err
	}
	if err := pub.Refresh(); err != nil {
		return none, err
	}
	got, idle := 0, 0
	for got < backlogRecords {
		p0 := time.Now()
		tr.begin("topic.pump_replay", uint64(r.round))
		n := pub.PumpReplay(0)
		tr.end()
		r.pumpNs += int64(time.Since(p0))
		r.pumpFrames += int64(n)
		before := got
		for k := 0; k < pollsPerPump; k++ {
			pubD.Poll()
			subD.Poll()
			for {
				p, _, ok := sub.Receive()
				if !ok {
					break
				}
				if err := chk.check(p); err != nil {
					return none, fmt.Errorf("replay round %d: %w", r.round, err)
				}
				if got == 0 {
					r.firstNs = append(r.firstNs, float64(time.Since(t0)))
				}
				got++
			}
		}
		if got != before {
			idle = 0
		} else if idle++; idle&0xfff == 0 && time.Since(t0) > stallAfter {
			return none, fmt.Errorf("replay round %d stuck at %d of %d records", r.round, got, backlogRecords)
		}
	}
	s := roundSample{deliveries: got, wallNs: int64(time.Since(t0)), cpuNs: cpuNanos() - c0}
	runtime.ReadMemStats(&m1)
	s.mallocs, s.allocBytes = m1.Mallocs-m0.Mallocs, m1.TotalAlloc-m0.TotalAlloc

	r.replays += uint64(got)
	r.lost["publisher.dropped"] += pub.Dropped()
	r.lost["publisher.throttled"] += pub.Throttled()
	r.lost["publisher.replay_stranded"] += pub.ReplayStranded()
	r.lost["subscriber.app_drops"] += sub.AppDrops()
	return s, nil
}

func (r *topicRig) ledger() map[string]uint64 {
	l := map[string]uint64{
		"publisher.dropped":         r.pub.Dropped(),
		"publisher.throttled":       r.pub.Throttled(),
		"publisher.replay_stranded": r.pub.ReplayStranded(),
	}
	for _, s := range r.subs {
		l["subscriber.app_drops"] += s.AppDrops()
	}
	for k, v := range r.lost {
		l[k] += v
	}
	return l
}

func (r *topicRig) counters() map[string]float64 {
	c := map[string]float64{
		"topic.fanout_dropped":   float64(r.pub.Dropped()),
		"topic.fanout_throttled": float64(r.pub.Throttled()),
	}
	for _, d := range r.domains {
		s := d.Engine().Stats()
		c["engine.polls"] += float64(s.Polls)
		c["engine.recv_drops"] += float64(s.RecvDrops)
		c["engine.wire_busy"] += float64(s.WireBusy)
	}
	if r.durable {
		c["duralog.calls"] = float64(r.live.Health().Head + r.replays)
	}
	return c
}

func (r *topicRig) close() {
	for _, d := range r.domains {
		d.Close()
	}
	for _, l := range []*duralog.Log{r.live, r.backlog} {
		if l != nil {
			l.Close()
		}
	}
	if r.dir != "" {
		os.RemoveAll(r.dir)
	}
}
