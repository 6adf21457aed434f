package main

import (
	"fmt"
	"os"
	"strings"
	"time"

	"flipc/internal/duralog"
	"flipc/internal/nameservice"
	"flipc/internal/registrystore"
	"flipc/internal/shardmap"
	"flipc/internal/sim"
	"flipc/internal/simcluster"
	"flipc/internal/stats"
	"flipc/internal/topic"
)

// The scenario kit: what every flipcsim scenario repeats, written
// once. A scenario (virtual-time cluster, phase scheduling, settle
// loops), a stream (tagged publish → drain → latency window; the
// topic-level twin of simcluster.Probe), a durable exactly-once
// ledger, and a registry plane (n failover domains of primary +
// standby behind one sharded directory). The scenario files hold only
// what is particular to each: who is killed when, and what must hold
// afterwards. Conservation is never summed here — every balance goes
// through the law function of the layer that owns the counters
// (topic.FanoutLaw, topic.DurableLaw, gateway.FramingLaw).

// opts carries the command-line parameters to whichever scenario runs.
type opts struct {
	nodes   int
	msgSize int
	msgs    int           // publishes per phase (per stream)
	gap     time.Duration // publish period (virtual)
	poll    time.Duration // engine and drain cadence (virtual)
	window  int           // inbox buffers / publisher window

	bulkGap    time.Duration // -topics: bulk publish period, contended phase
	batch      int           // -topics: mesh pending-buffer batch (0 = frame-at-a-time)
	flushDl    time.Duration // -topics: mesh flush deadline for corked runs
	clients    int           // -gateway: clients per gateway
	slowFactor int           // -slowsub: slow subscriber drains one message per slowFactor*gap
}

// scenario is a virtual-time cluster plus the clock idioms every
// scenario uses: cadences derived from the options, phase scheduling,
// and bounded settle loops.
type scenario struct {
	o       opts
	c       *simcluster.Cluster
	poll    sim.Time
	gap     sim.Time
	settle  sim.Time // one settle step: long enough for any backlog to move
	cleanup []func()
}

// newScenario builds the cluster; cfg supplies what differs between
// scenarios (buffer pool, mesh, engine), the options the rest.
func newScenario(o opts, cfg simcluster.Config) (*scenario, error) {
	cfg.Nodes = o.nodes
	cfg.MessageSize = o.msgSize
	cfg.PollInterval = sim.Time(o.poll.Nanoseconds())
	c, err := simcluster.New(cfg)
	if err != nil {
		return nil, err
	}
	return &scenario{
		o: o, c: c,
		poll:   cfg.PollInterval,
		gap:    sim.Time(o.gap.Nanoseconds()),
		settle: 1000 * cfg.PollInterval,
	}, nil
}

// close releases what the scenario opened, newest first, then the
// cluster.
func (sc *scenario) close() {
	for i := len(sc.cleanup) - 1; i >= 0; i-- {
		sc.cleanup[i]()
	}
	sc.c.Close()
}

// tempDir creates a scratch directory removed at close.
func (sc *scenario) tempDir(tag string) (string, error) {
	dir, err := os.MkdirTemp("", "flipcsim-"+tag+"-")
	if err == nil {
		sc.cleanup = append(sc.cleanup, func() { os.RemoveAll(dir) })
	}
	return dir, err
}

// schedule queues n calls of fn, the first one gap from now, then one
// per period, and returns the instant of the first.
func (sc *scenario) schedule(n int, period sim.Time, fn func()) sim.Time {
	start := sc.c.Clock.Now() + sc.gap
	for i := 0; i < n; i++ {
		sc.c.Clock.At(start+sim.Time(i)*period, fn)
	}
	return start
}

// phase schedules one traffic phase — o.msgs calls of fn on the
// publish cadence — and returns the instant one settle step past the
// last of them.
func (sc *scenario) phase(fn func()) sim.Time {
	start := sc.schedule(sc.o.msgs, sc.gap, fn)
	return start + sim.Time(sc.o.msgs)*sc.gap + sc.settle
}

// midPhase is the kill instant for the phase about to be scheduled:
// half-way through, between two publishes.
func (sc *scenario) midPhase() sim.Time {
	return sc.c.Clock.Now() + sc.gap + sim.Time(sc.o.msgs/2)*sc.gap + sc.gap/2
}

// await advances the clock in settle steps (at most 500) until done
// reports true, and returns whether it did.
func (sc *scenario) await(done func() bool) bool {
	for i := 0; i < 500 && !done(); i++ {
		sc.c.Clock.RunFor(sc.settle)
	}
	return done()
}

// settleUntil runs the clock to deadline, then awaits done: in-flight
// backlogs drain at engine pace, not by the phase's nominal end.
func (sc *scenario) settleUntil(deadline sim.Time, done func() bool) {
	sc.c.Clock.RunUntil(deadline)
	sc.await(done)
}

// samples is one consumer's latency samples since the last summarize.
type samples []sim.Time

// summarize closes the consumers' windows into one summary (µs), in
// consumer order, and resets them for the next phase.
func summarize(ws ...*samples) (stats.Summary, error) {
	var micros []float64
	for _, w := range ws {
		for _, l := range *w {
			micros = append(micros, l.Micros())
		}
		*w = nil
	}
	return stats.Summarize(micros)
}

// summarizeEach closes one set of windows per failure domain.
func summarizeEach(names []string, phase string, windows [][]*samples) ([]stats.Summary, error) {
	out := make([]stats.Summary, len(names))
	for i, name := range names {
		var err error
		if out[i], err = summarize(windows[i]...); err != nil {
			return nil, fmt.Errorf("%s %s: %w", name, phase, err)
		}
	}
	return out, nil
}

// tagBytes and tagOf are the 2-byte payload every scenario publishes:
// a sequence tag, which a stream resolves to a send instant and the
// durable ledger counts deliveries of.
func tagBytes(tag int) []byte { return []byte{byte(tag >> 8), byte(tag)} }

func tagOf(payload []byte) (int, bool) {
	if len(payload) < 2 {
		return 0, false
	}
	return int(payload[0])<<8 | int(payload[1]), true
}

// stream is one topic's tagged traffic: a publisher, the subscribers it
// fans out to, and a latency window per subscriber. Latency is
// positional: a publish stamps a 2-byte tag into its payload and
// records the virtual send instant; whoever consumes the payload
// resolves the tag back to a one-way latency. (A stream with no joined
// subscribers is just the publishing half — the gateway scenario's
// consumers sit behind the client framing boundary.)
type stream struct {
	clock *sim.Clock
	sent  []sim.Time // publish instant, by tag
	pub   *topic.Publisher
	subs  []*topic.Subscriber
	lat   []*samples
}

// newStream wraps pub and the subscribers it already fans out to. No
// ticker starts here: the scenario places pump in its own ticker
// order (event order at equal timestamps is creation order).
func (sc *scenario) newStream(pub *topic.Publisher, subs ...*topic.Subscriber) *stream {
	st := &stream{clock: sc.c.Clock, pub: pub}
	for _, s := range subs {
		st.join(s)
	}
	return st
}

func (st *stream) publish() {
	tag := len(st.sent)
	st.sent = append(st.sent, st.clock.Now())
	if _, err := st.pub.Publish(tagBytes(tag)); err != nil {
		fatal(err)
	}
}

// latency resolves a delivered payload to its one-way latency.
func (st *stream) latency(payload []byte) (sim.Time, bool) {
	tag, ok := tagOf(payload)
	if !ok || tag >= len(st.sent) {
		return 0, false
	}
	return st.clock.Now() - st.sent[tag], true
}

// pump starts one drain ticker per joined subscriber on the poll
// cadence.
func (sc *scenario) pump(st *stream) {
	for i := range st.subs {
		i := i
		sc.c.Clock.NewTicker(sc.poll, func() {
			for st.receive(i) {
			}
		})
	}
}

// join adds a subscriber and returns its index; one that joins after
// pump is drained by whatever the caller schedules.
func (st *stream) join(s *topic.Subscriber) int {
	st.subs = append(st.subs, s)
	st.lat = append(st.lat, new(samples))
	return len(st.subs) - 1
}

// receive consumes one message at subscriber i, if one is waiting.
func (st *stream) receive(i int) bool {
	payload, _, ok := st.subs[i].Receive()
	if !ok {
		return false
	}
	if l, ok := st.latency(payload); ok {
		*st.lat[i] = append(*st.lat[i], l)
	}
	return true
}

func (st *stream) renew() error {
	for _, s := range st.subs {
		if err := s.Renew(); err != nil {
			return err
		}
	}
	return nil
}

// revalidate re-proves the stream against a retargeted directory:
// every subscriber renews its lease and the publisher rebuilds its
// plan.
func (st *stream) revalidate() error {
	if err := st.renew(); err != nil {
		return fmt.Errorf("post-failover renew: %w", err)
	}
	return st.pub.Refresh()
}

func (st *stream) law() topic.FanoutLedger { return topic.FanoutLaw(st.pub, st.subs...) }

// topicStream creates one topic's participants — a subscriber on every
// node past pubNode, then the publisher on pubNode — as a stream.
func (sc *scenario) topicStream(dir topic.Directory, name string, class topic.Class, pubNode int) (*stream, error) {
	var subs []*topic.Subscriber
	for n := pubNode + 1; n < sc.o.nodes; n++ {
		s, err := topic.NewSubscriber(sc.c.Domains[n], dir, name, class, sc.o.window, sc.o.window)
		if err != nil {
			return nil, err
		}
		subs = append(subs, s)
	}
	pub, err := topic.NewPublisher(sc.c.Domains[pubNode], dir, topic.PublisherConfig{
		Topic: name, Class: class, Window: sc.o.window, RefreshEvery: 8,
	})
	if err != nil {
		return nil, err
	}
	return sc.newStream(pub, subs...), nil
}

// balanced reports whether every stream's fanout law holds — the
// settle condition after a traffic phase.
func balanced(streams ...*stream) func() bool {
	return func() bool {
		for _, st := range streams {
			if st.law().Err() != nil {
				return false
			}
		}
		return true
	}
}

// checkFanout is the end-of-run verdict on one stream's ledger: every
// scheduled publish completed (no publisher ever blocks) and the law
// balances.
func checkFanout(l topic.FanoutLedger, publishes int) error {
	if l.Published != uint64(publishes) {
		return fmt.Errorf("publisher blocked: %d of %d publishes completed", l.Published, publishes)
	}
	return l.Err()
}

// reportDegradation prints a base and a loaded latency summary and the
// p99 ratio between them, and fails if the ratio exceeds bound.
func reportDegradation(base, load string, b, l stats.Summary, what string, bound float64) error {
	width := len(load) + 1
	fmt.Printf("ctl one-way latency µs, %-*s %v\n", width, base+":", b)
	fmt.Printf("ctl one-way latency µs, %-*s %v\n", width, load+":", l)
	ratio := l.P99 / b.P99
	fmt.Printf("ctl p99 %s: %.2fx %s baseline\n", what, ratio, base)
	if ratio > bound {
		return fmt.Errorf("control p99 degraded %.2fx %s (bound: %gx)", ratio, what, bound)
	}
	return nil
}

// reportIsolation prints each failure domain's before/after p99 and
// fails if a survivor moved more than 1.2x its own baseline. The
// victim is reported but unbounded: its blackout is the failover, not
// a regression.
func reportIsolation(names []string, before, after []stats.Summary, victim int) error {
	for i, name := range names {
		ratio := after[i].P99 / before[i].P99
		verdict := ""
		if i == victim {
			verdict = " (killed mid-phase; unbounded)"
		}
		fmt.Printf("%s ctl p99: %.2fµs -> %.2fµs (%.2fx)%s\n", name, before[i].P99, after[i].P99, ratio, verdict)
		if i != victim && ratio > 1.2 {
			return fmt.Errorf("surviving %s p99 degraded %.2fx across a foreign kill (bound: 1.2x)", name, ratio)
		}
	}
	return nil
}

// durable is the payload-loss ledger of one durable cursor name: a
// journaling publisher, every incarnation of the named subscriber, and
// a per-tag delivery count — the exactly-once claim the law's sums
// alone cannot make.
type durable struct {
	topic, name string
	log         *duralog.Log
	pub         *topic.Publisher
	subs        []*topic.Subscriber // incarnations; the last is current
	alive       bool                // the current incarnation is draining
	seen        map[int]int
	published   int
}

// newDurable opens a log, subscribes name on subNode, and creates the
// journaling publisher on pubNode. Like newStream it starts no ticker:
// the scenario schedules drain in its own ticker order.
func (sc *scenario) newDurable(dir topic.Directory, topicName, name string, pubNode, subNode int) (*durable, error) {
	logDir, err := sc.tempDir("duralog")
	if err != nil {
		return nil, err
	}
	log, err := duralog.Open(logDir, duralog.Options{NoSync: true})
	if err != nil {
		return nil, err
	}
	sc.cleanup = append(sc.cleanup, func() { log.Close() })
	d := &durable{topic: topicName, name: name, log: log, alive: true, seen: map[int]int{}}
	if err := d.resume(sc, dir, subNode); err != nil {
		return nil, err
	}
	d.pub, err = topic.NewPublisher(sc.c.Domains[pubNode], dir, topic.PublisherConfig{
		Topic: topicName, Class: topic.Normal, Window: sc.o.window, RefreshEvery: 8,
		Log: log, CreditBuffers: 8,
	})
	return d, err
}

// resume starts a new incarnation of the named subscriber, at a fresh
// address, from the stored cursor.
func (d *durable) resume(sc *scenario, dir topic.Directory, node int) error {
	s, err := topic.NewSubscriberDurable(sc.c.Domains[node], dir, d.topic, topic.Normal, sc.o.window, sc.o.window, d.name)
	if err != nil {
		return err
	}
	d.subs = append(d.subs, s)
	d.alive = true
	return nil
}

func (d *durable) current() *topic.Subscriber { return d.subs[len(d.subs)-1] }

func (d *durable) publish() {
	d.published++
	if _, err := d.pub.Publish(tagBytes(d.published - 1)); err != nil {
		fatal(err)
	}
}

func (d *durable) drain() {
	for d.alive {
		payload, _, ok := d.current().Receive()
		if !ok {
			return
		}
		if tag, ok := tagOf(payload); ok {
			d.seen[tag]++
		}
	}
}

func (d *durable) delivered() bool { return len(d.seen) == d.published }

// atHead reports the quiesced state a kill may strike (or a run may
// end) in: everything delivered, the log cursor at head, and the same
// cursor registered with reg.
func (d *durable) atHead(reg *nameservice.TopicRegistry) bool {
	cur, ok := d.log.Cursor(d.name)
	rc, rok := reg.CursorOf(d.topic, d.name)
	return d.delivered() && ok && cur == d.log.Head() && rok && rc == cur
}

// check is the end-of-run verdict: all publishes journaled, every
// payload delivered exactly once across incarnations, the durable law
// balanced with nothing stranded, and the cursor at head on reg.
func (d *durable) check(publishes int, reg *nameservice.TopicRegistry) (topic.DurableLedger, error) {
	l := topic.DurableLaw(d.pub, d.subs...)
	if d.published != publishes || d.log.Head() != uint64(d.published) {
		return l, fmt.Errorf("durable journal short: %d published, head %d", d.published, d.log.Head())
	}
	for tag := 0; tag < d.published; tag++ {
		if n := d.seen[tag]; n != 1 {
			return l, fmt.Errorf("durable payload %d delivered %d times (zero-loss ledger violated)", tag, n)
		}
	}
	if err := l.Err(); err != nil {
		return l, err
	}
	if l.Stranded != 0 {
		return l, fmt.Errorf("durable stranded %d frames on an unbreached log", l.Stranded)
	}
	if !d.atHead(reg) {
		cur, _ := d.log.Cursor(d.name)
		rc, _ := reg.CursorOf(d.topic, d.name)
		return l, fmt.Errorf("durable stream never quiesced: head %d, log cursor %d, registry cursor %d", d.log.Head(), cur, rc)
	}
	return l, nil
}

// replica is one registry failover domain: a primary and a standby
// registry, each with its own store and manager, joined by the
// replication stream the primary feeds and the standby applies.
type replica struct {
	regP, regS *nameservice.TopicRegistry
	stP        *registrystore.Store
	mgrP, mgrS *registrystore.Manager
	feed       *registrystore.Feed
	apply      *registrystore.Apply
	genP, genS uint64
	alive      bool                      // the primary is serving
	served     nameservice.RegistryState // the primary's last served state, captured at the kill
}

// replicate is one housekeeping beat of a live primary: heartbeat,
// pump the feed, drain it into the standby.
func (r *replica) replicate() error {
	if !r.alive {
		return nil
	}
	r.mgrP.Heartbeat()
	if _, err := r.feed.Pump(); err != nil {
		return err
	}
	r.apply.Drain()
	if r.apply.NeedResync() {
		return fmt.Errorf("standby gapped during steady state")
	}
	return nil
}

// plane is a scenario's registry tier: n failover domains partitioning
// the topic namespace by a consistent-hash shard map, behind the one
// sharded directory every workload participant resolves through. A
// single registry with a standby is the n == 1 case. Primary k runs on
// node k, its standby on node n+k.
type plane struct {
	sc   *scenario
	smap *shardmap.Map
	dir  *topic.ShardedDirectory
	reps []*replica
}

func (sc *scenario) newPlane(n int) (*plane, error) {
	entries := make([]shardmap.Entry, n)
	for k := range entries {
		entries[k].ID = uint32(k)
	}
	p := &plane{sc: sc, smap: shardmap.Restore(uint64(n), entries)}
	p.dir = topic.NewShardedDirectory(p.smap)
	for k := 0; k < n; k++ {
		// An unsharded registry streams on the plain reserved topic.
		streamTopic := registrystore.ReplicationTopic
		if n > 1 {
			streamTopic = registrystore.ShardReplicationTopic(uint32(k))
		}
		r, err := sc.newReplica(streamTopic, k, n+k)
		if err != nil {
			return nil, err
		}
		p.reps = append(p.reps, r)
	}
	for k, r := range p.reps {
		p.dir.SetShard(uint32(k), topic.LocalDirectory{R: r.regP})
	}
	return p, nil
}

// newReplica builds one domain: the primary (durable store, feed on
// the reserved control-priority stream, fenced at promotion) on node
// primary, and the standby (own store, stream apply) on node standby,
// subscribed through the primary's own registry.
func (sc *scenario) newReplica(streamTopic string, primary, standby int) (*replica, error) {
	open := func(tag string) (*nameservice.TopicRegistry, *registrystore.Store, *registrystore.Manager, error) {
		wal, err := sc.tempDir(tag)
		if err != nil {
			return nil, nil, nil, err
		}
		reg := nameservice.NewTopicRegistry()
		st, err := registrystore.Open(wal, reg, registrystore.Options{NoSync: true})
		if err != nil {
			return nil, nil, nil, err
		}
		return reg, st, registrystore.NewManager(reg, st), nil
	}
	r := &replica{alive: true}
	var err error
	if r.regP, r.stP, r.mgrP, err = open(fmt.Sprintf("reg%d-p", primary)); err != nil {
		return nil, err
	}
	dirP := topic.LocalDirectory{R: r.regP}
	repPub, err := topic.NewPublisher(sc.c.Domains[primary], dirP, topic.PublisherConfig{
		Topic: streamTopic, Class: registrystore.ReplicationClass,
		Window: sc.o.window, RefreshEvery: 1,
	})
	if err != nil {
		return nil, err
	}
	r.feed = registrystore.NewFeed(repPub, sc.c.Domains[primary].MaxPayload())
	r.mgrP.AttachFeed(r.feed)
	r.genP = r.mgrP.Promote()

	var stS *registrystore.Store
	if r.regS, stS, r.mgrS, err = open(fmt.Sprintf("reg%d-s", primary)); err != nil {
		return nil, err
	}
	repSub, err := topic.NewSubscriber(sc.c.Domains[standby], dirP, streamTopic,
		registrystore.ReplicationClass, sc.o.window, sc.o.window)
	if err != nil {
		return nil, err
	}
	r.apply = registrystore.NewApply(repSub, r.regS, stS)
	return r, nil
}

// resync bootstraps every standby with a full-state resync (records
// enqueued before it subscribed never reached it): the sequence is
// captured before the export, so the stream overlap double-applies
// idempotently instead of gapping.
func (p *plane) resync() error {
	for _, r := range p.reps {
		seq := r.stP.Seq()
		if err := r.apply.Resync(r.regP.ExportState(), seq); err != nil {
			return err
		}
	}
	return nil
}

// start starts the scenario's tickers in their fixed order: the
// plane's housekeeping — replication every 50 polls while a primary
// lives (with the durable replay pump on the same beat), lease
// renewals every 200, registry sweep epochs every 1000, slowly enough
// that a renewing subscriber can never expire — then the streams'
// drains and the durable ledger's.
func (p *plane) start(dur *durable, streams ...*stream) {
	must := func(err error) {
		if err != nil {
			fatal(err)
		}
	}
	p.sc.c.Clock.NewTicker(50*p.sc.poll, func() {
		dur.pub.PumpReplay(0)
		for k, r := range p.reps {
			if err := r.replicate(); err != nil {
				fatal(fmt.Errorf("shard %d: %w", k, err))
			}
		}
	})
	p.sc.c.Clock.NewTicker(200*p.sc.poll, func() {
		for _, st := range streams {
			must(st.renew())
		}
		if dur.alive {
			must(dur.current().Renew())
		}
		for _, r := range p.reps {
			if r.alive {
				must(r.apply.Renew())
			}
		}
	})
	p.sc.c.Clock.NewTicker(1000*p.sc.poll, func() {
		for _, r := range p.reps {
			if r.alive {
				r.regP.Advance()
			} else {
				r.regS.Advance()
			}
		}
	})
	for _, st := range streams {
		p.sc.pump(st)
	}
	p.sc.c.Clock.NewTicker(p.sc.poll, dur.drain)
}

// takeover kills domain k's primary cold — the observer detaches, the
// feed stops pumping, nobody says goodbye — promotes its standby
// fenced above everything the primary served, and retargets exactly
// that shard's directory. No other domain is touched; the streams
// riding on k revalidate against the new registry afterwards.
func (p *plane) takeover(k int) {
	r := p.reps[k]
	r.served = r.regP.ExportState()
	r.regP.Observe(nil)
	r.alive = false
	r.mgrS.ObservePeer(r.apply.PrimaryGen())
	r.genS = r.mgrS.Promote()
	p.dir.SetShard(uint32(k), topic.LocalDirectory{R: r.regS})
}

// checkTakeover is the failover contract on domain k after takeover:
// the standby's generation is strictly above the dead primary's, and
// everything the primary last served exists on the new primary under
// a strictly larger topic generation (cached plans go stale) with no
// subscriber missing. The domain's own reserved replication stream is
// excluded — its only subscriber was the standby that just promoted,
// and sweeping that stale self-subscription is teardown, not loss.
func (p *plane) checkTakeover(k int) error {
	r := p.reps[k]
	if r.genS <= r.genP {
		return fmt.Errorf("shard %d standby generation %d not above dead primary's %d", k, r.genS, r.genP)
	}
	for _, ts := range r.served.Topics {
		if strings.HasPrefix(ts.Name, "!") {
			continue
		}
		snap, ok := r.regS.Snapshot(ts.Name)
		if !ok {
			return fmt.Errorf("topic %q lost in shard-%d failover", ts.Name, k)
		}
		if snap.Gen <= ts.Gen {
			return fmt.Errorf("topic %q generation %d not above served %d — stale plans would survive",
				ts.Name, snap.Gen, ts.Gen)
		}
		have := map[uint32]bool{}
		for _, sub := range snap.Subs {
			have[uint32(sub.Addr)] = true
		}
		for _, sub := range ts.Subs {
			if !have[uint32(sub.Addr)] {
				return fmt.Errorf("topic %q lost subscriber %v in shard-%d failover", ts.Name, sub.Addr, k)
			}
		}
	}
	return nil
}
