// Command flipcd runs one FLIPC node over TCP — the ethernet-cluster
// development platform of the paper, as a standalone process. It hosts
// a domain, an echo service on a named receive endpoint, and prints the
// endpoint address for flipcping (the out-of-band address exchange
// FLIPC expects a name service to provide).
//
// The transport is resilient: peers listed in -peer are kept in a
// nameservice node registry that feeds the transport's redial
// machinery, so daemons may start in any order and links that fail are
// re-established automatically with exponential backoff.
//
// Observability: -http starts the obs surface (/metrics in Prometheus
// or JSON form, /healthz, /debug/trace) and turns on the wait-free
// instrument set — including send-timestamp stamping, so peers that
// also run with metrics report true one-way delivery latency.
// SIGQUIT prints the per-peer health report without terminating; the
// same report is printed on shutdown and on any fatal exit after the
// transport is up.
//
// Usage (two terminals):
//
//	flipcd -node 0 -listen 127.0.0.1:7000 -peer 1=127.0.0.1:7001
//	flipcd -node 1 -listen 127.0.0.1:7001 -peer 0=127.0.0.1:7000
//
// then:
//
//	flipcping -node 2 -listen 127.0.0.1:7002 \
//	          -peer 0=127.0.0.1:7000 -target <addr printed by node 0>
package main

import (
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"flipc/internal/core"
	"flipc/internal/duralog"
	"flipc/internal/engine"
	"flipc/internal/metrics"
	"flipc/internal/nameservice"
	"flipc/internal/nettrans"
	"flipc/internal/obs"
	"flipc/internal/trace"
	"flipc/internal/wire"
)

func main() {
	var (
		node     = flag.Int("node", 0, "this node's ID")
		listen   = flag.String("listen", "127.0.0.1:0", "TCP listen address")
		peers    = flag.String("peer", "", "comma-separated peer list: id=host:port,...")
		msgSize  = flag.Int("msgsize", 128, "fixed message size (>=64, multiple of 32)")
		depth    = flag.Int("depth", 16, "echo endpoint queue depth")
		backoff  = flag.Duration("reconnect-backoff", 50*time.Millisecond, "initial redial backoff")
		maxBack  = flag.Duration("reconnect-max", 5*time.Second, "redial backoff cap")
		httpAddr = flag.String("http", "", "observability HTTP listen address (/metrics, /healthz, /debug/trace); empty disables")
		duraDir  = flag.String("duradir", "", "durable topic log root: health-swept read-only onto /metrics and /healthz (depth, cursor lag, retention breaches)")
		traceBuf = flag.Int("tracebuf", 4096, "trace ring capacity when -http is set")
		checksum = flag.Bool("checksum", false, "CRC32C-checksum outgoing frames and verify flagged arrivals")
		checks   = flag.Bool("checks", true, "engine validity checks (quarantine on comm-buffer corruption)")

		// Aggregation: -batch corks per-peer writes into the pending
		// buffer; control-class frames always bypass the cork.
		batch       = flag.Bool("batch", false, "coalesce per-peer writes (pending-buffer aggregation)")
		batchFrames = flag.Int("batch-frames", 64, "with -batch: frames per peer before an inline flush")
		flushDl     = flag.Duration("flush-deadline", 0, "with -batch: max age of a corked frame")

		// Registry role: -registry serves the topic registry in-band.
		// With -waldir the registry is durable (WAL + snapshots) and
		// generation-fenced across restarts; -standby follows a primary's
		// replication stream instead of promoting, and takes over on
		// SIGUSR1 or after -failover-after of stream silence.
		registryOn    = flag.Bool("registry", false, "serve the topic registry on this node")
		walDir        = flag.String("waldir", "", "registry WAL/snapshot directory; empty runs the registry volatile")
		standby       = flag.Bool("standby", false, "start the registry as a standby replica (requires -waldir and -registry-stream)")
		streamAddr    = flag.String("registry-stream", "", "primary registry server endpoint address (hex) for the standby's replication stream")
		leaseInt      = flag.Duration("lease-interval", 2*time.Second, "registry housekeeping cadence (lease sweeps, replication pump)")
		compactEvery  = flag.Int("compact-every", 1024, "compact the registry WAL once it holds this many records")
		failoverAfter = flag.Duration("failover-after", 0, "standby self-promotes after this much stream silence (0 = only on SIGUSR1)")

		// Sharded registry: -shardmap partitions the topic namespace
		// across N registry shards (consistent hash); this node serves
		// shard -shard, replicates over its own !registry/<shard>
		// stream, and redirects topic ops it does not own.
		shardID  = flag.Uint("shard", 0, "this registry node's shard id (with -shardmap)")
		shardMap = flag.String("shardmap", "", "shard map: inline spec id[@hexaddr][*weight],... or a journal file path; empty runs unsharded")
	)
	flag.Parse()

	// Observability is wired only when the HTTP surface is requested:
	// the registry makes the engine stamp outgoing frames and mirror
	// its stats each pass, which a bare daemon need not pay for.
	var (
		reg  *metrics.Registry
		ring *trace.Ring
	)
	if *httpAddr != "" {
		reg = metrics.NewRegistry()
		ring = trace.New(*traceBuf)
	}

	registry, err := nameservice.ParsePeerList(*peers)
	if err != nil {
		fatal(err)
	}
	tr, err := nettrans.ListenConfig(nettrans.Config{
		Node:        wire.NodeID(*node),
		Addr:        *listen,
		MessageSize: *msgSize,
		Resolver:    registry.Resolve,
		Reconnect: nettrans.ReconnectConfig{
			InitialBackoff: *backoff,
			MaxBackoff:     *maxBack,
		},
		BatchWrites:    *batch,
		MaxBatchFrames: *batchFrames,
		FlushDeadline:  *flushDl,
		Trace:          ring,
		Metrics:        reg,
	})
	if err != nil {
		fatal(err)
	}
	defer tr.Close()
	reportOnFatal = tr // fatal exits from here on include the health report
	fmt.Printf("flipcd: node %d listening on %s (message size %d)\n", *node, tr.Addr(), *msgSize)
	if *batch {
		fmt.Printf("flipcd: aggregation on: %d frames/peer, flush deadline %v\n", *batchFrames, *flushDl)
	}

	var srv *obs.Server
	if *httpAddr != "" {
		srv = &obs.Server{Registry: reg, Health: tr.Health, Trace: ring}
		if *duraDir != "" {
			// Read-only sweep per scrape: ScanDir never opens (so never
			// truncates) the logs, making it safe against live writers.
			root := *duraDir
			srv.DurableHealth = func() []duralog.TopicHealth {
				ths, _ := duralog.ScanDir(root)
				return ths
			}
		}
		ln, err := net.Listen("tcp", *httpAddr)
		if err != nil {
			fatal(fmt.Errorf("http listen %s: %w", *httpAddr, err))
		}
		go http.Serve(ln, srv.Handler())
		fmt.Printf("flipcd: metrics on http://%s/metrics (healthz, debug/trace)\n", ln.Addr())
	}

	// Background connects through the redial state machine: unreachable
	// peers keep being retried, so daemon start order is irrelevant.
	for _, id := range registry.Nodes() {
		addr, _ := registry.Resolve(id)
		tr.Register(id, addr)
		fmt.Printf("flipcd: peer node %d at %s (connecting in background)\n", id, addr)
	}

	// A registry node needs headroom beyond the echo service: server
	// window, replication feed or stream subscriber, resync client.
	numBuffers := 64
	if *registryOn {
		numBuffers = 512
	}
	d, err := core.NewDomain(core.Config{
		Node:        wire.NodeID(*node),
		MessageSize: *msgSize,
		NumBuffers:  numBuffers,
		Engine: engine.Config{
			Trace:          ring,
			Metrics:        reg,
			Checksum:       *checksum,
			ValidityChecks: *checks,
		},
	}, tr)
	if err != nil {
		fatal(err)
	}
	defer d.Close()
	reportEngine = d.Engine() // reports from here on include fault containment
	if srv != nil {
		srv.Quarantined = d.Engine().Quarantined
	}
	d.Start()

	// Registry role: an in-band nameservice server, durable when
	// -waldir is set, replicating to (or following) a peer when
	// configured. Housekeeping runs on its own goroutine; /healthz and
	// /metrics surface the role, generation, and store state.
	var rn *registryNode
	if *registryOn {
		rn, err = startRegistry(d, nameservice.New(), registryOpts{
			WALDir:        *walDir,
			Standby:       *standby,
			StreamAddr:    *streamAddr,
			LeaseInterval: *leaseInt,
			CompactEvery:  *compactEvery,
			FailoverAfter: *failoverAfter,
			Shard:         uint32(*shardID),
			ShardMap:      *shardMap,
		})
		if err != nil {
			fatal(err)
		}
		if srv != nil && rn.mgr != nil {
			srv.RegistryHealth = rn.mgr.Health
		}
		if srv != nil && rn.sharded() {
			srv.ShardHealth = rn.shardHealth
		}
		role := "primary"
		if rn.mgr != nil {
			role = rn.mgr.Role().String()
		}
		fmt.Printf("flipcd: registry server address %#x (%v), role %s\n",
			uint32(rn.srv.Addr()), rn.srv.Addr(), role)
		if rn.sharded() {
			m := rn.shardMap()
			fmt.Printf("flipcd: registry shard %d of %d (map epoch %d), stream %s\n",
				*shardID, m.Len(), m.Epoch(), rn.replicationTopic())
		}
		hkStop := make(chan struct{})
		defer close(hkStop)
		go rn.housekeeping(hkStop)
		// SIGUSR1 promotes a standby registry to primary (manual
		// failover); harmless on a node that is already primary.
		promote := make(chan os.Signal, 1)
		signal.Notify(promote, syscall.SIGUSR1)
		go func() {
			for range promote {
				rn.requestPromote()
			}
		}()
	}

	// Echo service: reply to each message's embedded reply address.
	// FLIPC does not deliver sender identity, so pingers put their
	// reply address in the first four payload bytes.
	rep, err := d.NewRecvEndpoint(*depth)
	if err != nil {
		fatal(err)
	}
	sep, err := d.NewSendEndpoint(*depth)
	if err != nil {
		fatal(err)
	}
	for i := 0; i < *depth-1; i++ {
		m, err := d.AllocBuffer()
		if err != nil {
			fatal(err)
		}
		if err := rep.Post(m); err != nil {
			fatal(err)
		}
	}
	fmt.Printf("flipcd: echo endpoint address %#x (%v)\n", uint32(rep.Addr()), rep.Addr())

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	// SIGQUIT prints the health report without terminating — the
	// operator's live look at a daemon with no -http surface.
	quit := make(chan os.Signal, 1)
	signal.Notify(quit, syscall.SIGQUIT)
	echoed := 0
	for {
		select {
		case <-stop:
			fmt.Printf("flipcd: %d messages echoed; drops=%d\n", echoed, rep.Drops())
			report(tr)
			return
		case <-quit:
			fmt.Printf("flipcd: %d messages echoed; drops=%d\n", echoed, rep.Drops())
			report(tr)
		default:
		}
		m, ok := rep.Receive()
		if !ok {
			time.Sleep(200 * time.Microsecond)
			continue
		}
		if m.Len() >= 4 {
			replyTo := wire.Addr(uint32(m.Payload()[0])<<24 | uint32(m.Payload()[1])<<16 |
				uint32(m.Payload()[2])<<8 | uint32(m.Payload()[3]))
			if replyTo.Valid() {
				out, err := d.AllocBuffer()
				if err == nil {
					n := copy(out.Payload(), m.Payload()[:m.Len()])
					if sep.Send(out, replyTo, n) != nil {
						d.FreeBuffer(out)
					}
					// Reclaim completed sends opportunistically.
					for {
						done, ok := sep.Acquire()
						if !ok {
							break
						}
						d.FreeBuffer(done)
					}
				}
			}
		}
		echoed++
		if rep.Post(m) != nil {
			d.FreeBuffer(m)
		}
	}
}

// report prints the transport's loss accounting, per-peer health, and
// — once the domain is up — the engine's fault containment state.
func report(tr *nettrans.Transport) {
	st := tr.Stats()
	fmt.Printf("flipcd: transport sent=%d delivered=%d peerDowns=%d rxDrops=%d reconnects=%d\n",
		st.Sent, st.Delivered, st.PeerDowns, st.RxDrops, st.Reconnects)
	for _, h := range tr.Health() {
		fmt.Printf("flipcd: peer %d %-12s sent=%d refused=%d reconnects=%d meanOutage=%.1fms\n",
			h.Node, h.State, h.Sent, h.SendFailures, h.Reconnects, h.MeanOutageMs)
	}
	if reportEngine == nil {
		return
	}
	es := reportEngine.Stats()
	fmt.Printf("flipcd: engine drops recv=%d addr=%d bad=%d checksum=%d quarantine=%d; quarantines=%d recoveries=%d\n",
		es.RecvDrops, es.AddrDrops, es.BadFrames, es.ChecksumDrops, es.QuarantineDrops,
		es.Quarantines, es.QuarantineRecoveries)
	for _, q := range reportEngine.Quarantined() {
		fmt.Printf("flipcd: QUARANTINED endpoint slot %d (%s, since pass %d) — free and re-allocate to recover\n",
			q.Slot, q.Kind, q.Pass)
	}
}

// reportOnFatal, once the transport is up, makes fatal exits emit the
// health report: a daemon dying mid-flight must not take its loss
// accounting with it.
var reportOnFatal *nettrans.Transport

// reportEngine, once the domain is up, adds the engine's fault
// containment state (loss categories, quarantined endpoints) to every
// report. Reads are safe: Quarantined is a published snapshot, and the
// stats race in a crashing daemon is an accepted tradeoff for having
// the numbers at all.
var reportEngine *engine.Engine

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "flipcd: %v\n", err)
	if reportOnFatal != nil {
		report(reportOnFatal)
	}
	os.Exit(1)
}
