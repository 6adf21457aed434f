// Command flipcsim runs ad-hoc FLIPC scenarios on the virtual-time
// cluster (internal/simcluster): the real library and engine on the
// simulated Paragon mesh, with engines driven by discrete-event
// tickers. Useful for exploring design points beyond the canned
// experiments — mesh size, engine cadence, send policy, traffic shape.
//
// Examples:
//
//	flipcsim                                  # default 2-node ping stream
//	flipcsim -nodes 16 -src 0 -dst 15         # across the 4x4 mesh
//	flipcsim -poll 4us -msgs 1000 -gap 5us    # slow engine, heavy load
//	flipcsim -policy priority -prio 7         # prioritized send endpoint
//	flipcsim -chaos 0.05 -checksum -msgs 2000 # 5% of every fault mode
//	flipcsim -chaos-drop 0.1 -chaos-seed 7    # drops only, reproducible
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"flipc/internal/engine"
	"flipc/internal/faultinject"
	"flipc/internal/sim"
	"flipc/internal/simcluster"
	"flipc/internal/wire"
)

func main() {
	var (
		nodes   = flag.Int("nodes", 2, "cluster size (fits the 4x4 mesh by default)")
		src     = flag.Int("src", 0, "sending node")
		dst     = flag.Int("dst", 1, "receiving node")
		msgSize = flag.Int("msgsize", 128, "fixed message size")
		msgs    = flag.Int("msgs", 200, "messages to send")
		gap     = flag.Duration("gap", 10*time.Microsecond, "virtual time between sends")
		poll    = flag.Duration("poll", time.Microsecond, "engine event-loop period (virtual)")
		window  = flag.Int("window", 8, "posted receive buffers")
		policy  = flag.String("policy", "rr", "send policy: rr or priority")
		prio    = flag.Int("prio", 0, "send endpoint transport priority (0-255)")
		payload = flag.Int("payload", 32, "payload bytes per message")

		topics   = flag.Bool("topics", false, "run the prioritized pub/sub scenario instead of the ping stream")
		bulkGap  = flag.Duration("bulkgap", time.Microsecond, "bulk publish period during -topics saturation phase")
		batch    = flag.Int("batch", 0, "-topics: mesh pending-buffer batch frames (0 = frame-at-a-time)")
		flushDl  = flag.Duration("flushdl", 0, "-topics: mesh flush deadline for corked runs (virtual time)")
		failover = flag.Bool("failover", false, "run the registry kill/failover scenario instead of the ping stream")
		shards   = flag.Bool("shards", false, "run the sharded-registry failure-domain scenario instead of the ping stream")
		gwsim    = flag.Bool("gateway", false, "run the gateway-kill edge plane scenario instead of the ping stream")
		gwcli    = flag.Int("gwclients", 4, "-gateway: clients per gateway")
		slowsub  = flag.Bool("slowsub", false, "run the slow-subscriber credit scenario instead of the ping stream")
		slowBy   = flag.Int("slowby", 10, "-slowsub: slow subscriber drains one message per this many publish periods")

		chaos        = flag.Float64("chaos", 0, "enable every fault mode at this rate (0..1)")
		chaosSeed    = flag.Int64("chaos-seed", 1, "fault injection seed (node n uses seed+n)")
		chaosDrop    = flag.Float64("chaos-drop", -1, "frame drop rate (overrides -chaos)")
		chaosDup     = flag.Float64("chaos-dup", -1, "frame duplication rate (overrides -chaos)")
		chaosCorrupt = flag.Float64("chaos-corrupt", -1, "frame bit-corruption rate (overrides -chaos)")
		chaosDelay   = flag.Float64("chaos-delay", -1, "frame delay rate (overrides -chaos)")
		chaosReorder = flag.Float64("chaos-reorder", -1, "frame reorder rate (overrides -chaos)")
		checksum     = flag.Bool("checksum", false, "CRC32C-checksum every frame (corruption becomes a counted drop)")
		checks       = flag.Bool("checks", false, "enable engine validity checks")
	)
	flag.Parse()

	o := opts{
		nodes: *nodes, msgSize: *msgSize, msgs: *msgs, gap: *gap, poll: *poll, window: *window * 4,
		bulkGap: *bulkGap, batch: *batch, flushDl: *flushDl, clients: *gwcli, slowFactor: *slowBy,
	}
	for _, s := range []struct {
		on  bool
		run func(opts) error
	}{
		{*shards, runShards}, {*gwsim, runGateway}, {*failover, runFailover},
		{*slowsub, runSlowsub}, {*topics, runTopics},
	} {
		if s.on {
			if err := s.run(o); err != nil {
				fatal(err)
			}
			return
		}
	}

	pick := func(override float64) float64 {
		if override >= 0 {
			return override
		}
		return *chaos
	}
	ccfg := faultinject.Config{
		Seed:        *chaosSeed,
		DropRate:    pick(*chaosDrop),
		DupRate:     pick(*chaosDup),
		CorruptRate: pick(*chaosCorrupt),
		DelayRate:   pick(*chaosDelay),
		ReorderRate: pick(*chaosReorder),
	}
	chaosOn := ccfg.DropRate+ccfg.DupRate+ccfg.CorruptRate+ccfg.DelayRate+ccfg.ReorderRate > 0

	ecfg := engine.Config{Checksum: *checksum, ValidityChecks: *checks}
	switch *policy {
	case "rr":
	case "priority":
		ecfg.Policy = engine.PolicyPriority
	default:
		fmt.Fprintf(os.Stderr, "flipcsim: unknown policy %q\n", *policy)
		os.Exit(2)
	}
	scfg := simcluster.Config{
		Nodes:        *nodes,
		MessageSize:  *msgSize,
		NumBuffers:   *window + 32,
		PollInterval: sim.Time(poll.Nanoseconds()),
		Engine:       ecfg,
	}
	if chaosOn {
		scfg.Chaos = &ccfg
	}
	c, err := simcluster.New(scfg)
	if err != nil {
		fatal(err)
	}
	defer c.Close()

	p, err := c.NewProbePrio(*src, *dst, *window, uint8(*prio))
	if err != nil {
		fatal(err)
	}
	for i := 0; i < *msgs; i++ {
		p.SendAt(sim.Time(i+1)*sim.Time(gap.Nanoseconds()), *payload)
	}
	deadline := sim.Time(*msgs+10) * sim.Time(gap.Nanoseconds()) * 4
	p.Run(deadline)

	from, to := wire.NodeID(*src), wire.NodeID(*dst)
	fmt.Printf("flipcsim: %d nodes, %d->%d (%d mesh hops), message size %d, poll %v\n",
		*nodes, *src, *dst, c.Mesh.Hops(from, to), *msgSize, *poll)
	fmt.Printf("sent %d, delivered %d, dropped %d, pending %d\n",
		*msgs, len(p.Latencies), p.Endpoint().Drops(), p.Pending())
	if chaosOn {
		var inj faultinject.Stats
		for _, j := range c.Injectors {
			st := j.Stats()
			inj.Sent += st.Sent
			inj.Forwarded += st.Forwarded
			inj.Dropped += st.Dropped
			inj.Duplicated += st.Duplicated
			inj.Corrupted += st.Corrupted
			inj.Delayed += st.Delayed
			inj.Reordered += st.Reordered
		}
		var est engine.Stats
		quarantined := 0
		for _, d := range c.Domains {
			st := d.Engine().Stats()
			est.RecvDrops += st.RecvDrops
			est.AddrDrops += st.AddrDrops
			est.BadFrames += st.BadFrames
			est.ChecksumDrops += st.ChecksumDrops
			est.QuarantineDrops += st.QuarantineDrops
			quarantined += len(d.Engine().Quarantined())
		}
		fmt.Printf("chaos: injected drop=%d dup=%d corrupt=%d delay=%d reorder=%d (of %d frames)\n",
			inj.Dropped, inj.Duplicated, inj.Corrupted, inj.Delayed, inj.Reordered, inj.Sent)
		fmt.Printf("chaos: receiver loss recv=%d addr=%d bad=%d checksum=%d quarantine=%d; %d endpoints quarantined\n",
			est.RecvDrops, est.AddrDrops, est.BadFrames, est.ChecksumDrops, est.QuarantineDrops, quarantined)
	}
	if len(p.Latencies) == 0 {
		fatal(fmt.Errorf("nothing delivered"))
	}
	sum, err := summarize((*samples)(&p.Latencies))
	if err != nil {
		fatal(err)
	}
	wireTime := c.Mesh.WireTime(from, to, *msgSize)
	fmt.Printf("one-way latency µs: %v\n", sum)
	fmt.Printf("wire share: %.0f%% (wire %v of mean %.3fµs)\n", 100*float64(wireTime)/(sum.Mean*1000), wireTime, sum.Mean)
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "flipcsim: %v\n", err)
	os.Exit(1)
}
