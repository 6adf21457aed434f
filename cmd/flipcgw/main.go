// Command flipcgw runs the FLIPC client edge plane: a gateway daemon
// that terminates TCP client connections and multiplexes them onto the
// fabric through one commbuf endpoint per priority class — fabric
// resources scale with gateways, never with the client population.
//
// The gateway joins the cluster like any node (nettrans, -peer list),
// bootstraps its directory from a registry server (-registry, the
// server endpoint address flipcd prints), and — when that registry is
// sharded — fetches the shard map in-band and opens one registry
// client per shard, so topic routing, presence spreading, and NotOwner
// redirects all work against the sharded registry. Client
// subscriptions ride the registry's wildcard pattern plane; every
// client is recorded as a leased presence entry, so a gateway that
// dies cold has its whole client population swept by lease expiry
// within one TTL — no distributed cleanup protocol.
//
// Usage (alongside a flipcd -registry node):
//
//	flipcd -node 0 -listen 127.0.0.1:7000 -registry -http 127.0.0.1:8080
//	flipcgw -node 1 -listen 127.0.0.1:7001 -peer 0=127.0.0.1:7000 \
//	        -registry <addr printed by flipcd> -clients 127.0.0.1:7400
//
// then clients connect to 127.0.0.1:7400 speaking the gateway framing
// protocol (see internal/gateway and examples/gateway).
package main

import (
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"syscall"
	"time"

	"flipc/internal/core"
	"flipc/internal/engine"
	"flipc/internal/gateway"
	"flipc/internal/metrics"
	"flipc/internal/nameservice"
	"flipc/internal/nettrans"
	"flipc/internal/obs"
	"flipc/internal/topic"
	"flipc/internal/trace"
	"flipc/internal/wire"
)

func main() {
	var (
		node     = flag.Int("node", 1, "this node's ID")
		name     = flag.String("name", "", "gateway name (presence key prefix; default gw-<node>)")
		listen   = flag.String("listen", "127.0.0.1:0", "fabric TCP listen address")
		peers    = flag.String("peer", "", "comma-separated peer list: id=host:port,...")
		msgSize  = flag.Int("msgsize", 128, "fixed message size (>=64, multiple of 32; must match the cluster's)")
		regAddr  = flag.String("registry", "", "registry server endpoint address (hex, as printed by flipcd) — required")
		clients  = flag.String("clients", "127.0.0.1:7400", "client-facing TCP listen address")
		queue    = flag.Int("queue", 64, "per-client per-class outbound queue bound")
		inboxBuf = flag.Int("inboxbufs", 128, "posted buffers per class inbox")
		throttle = flag.Int("throttle-at", 16, "consecutive overflow drops before a client is marked throttled")
		maxPubs  = flag.Int("max-publishers", 64, "cached per-topic publisher bound")
		lease    = flag.Duration("lease-interval", 2*time.Second, "housekeeping cadence (presence renewal, pattern renewal, saturation probe)")
		rpcTime  = flag.Duration("rpc-timeout", 2*time.Second, "registry round-trip timeout")
		httpAddr = flag.String("http", "", "observability HTTP listen address (/metrics, /healthz); empty disables")
		traceBuf = flag.Int("tracebuf", 4096, "trace ring capacity when -http is set")
	)
	flag.Parse()
	if *regAddr == "" {
		fatal(fmt.Errorf("-registry is required (the registry server endpoint address flipcd prints)"))
	}
	gwName := *name
	if gwName == "" {
		gwName = "gw-" + strconv.Itoa(*node)
	}

	var (
		mreg *metrics.Registry
		ring *trace.Ring
	)
	if *httpAddr != "" {
		mreg = metrics.NewRegistry()
		ring = trace.New(*traceBuf)
	}

	peerReg, err := nameservice.ParsePeerList(*peers)
	if err != nil {
		fatal(err)
	}
	tr, err := nettrans.ListenConfig(nettrans.Config{
		Node:        wire.NodeID(*node),
		Addr:        *listen,
		MessageSize: *msgSize,
		Resolver:    peerReg.Resolve,
		Trace:       ring,
		Metrics:     mreg,
	})
	if err != nil {
		fatal(err)
	}
	defer tr.Close()
	fmt.Printf("flipcgw: node %d (%s) on fabric %s\n", *node, gwName, tr.Addr())
	for _, id := range peerReg.Nodes() {
		addr, _ := peerReg.Resolve(id)
		tr.Register(id, addr)
	}

	dcfg := domainConfig(*node, *msgSize, *inboxBuf, *maxPubs)
	dcfg.Engine = engine.Config{Trace: ring, Metrics: mreg}
	d, err := core.NewDomain(dcfg, tr)
	if err != nil {
		fatal(err)
	}
	defer d.Close()
	d.Start()

	server, err := wire.ParseAddr(*regAddr)
	if err != nil {
		fatal(err)
	}
	dir, err := buildDirectory(d, server, *rpcTime)
	if err != nil {
		fatal(err)
	}

	mux, err := gateway.NewMux(d, gateway.Config{
		Name:          gwName,
		Dir:           dir,
		InboxBuffers:  *inboxBuf,
		ClientQueue:   *queue,
		ThrottleAt:    *throttle,
		MaxPublishers: *maxPubs,
		Registry:      mreg,
	})
	if err != nil {
		fatal(err)
	}

	if *httpAddr != "" {
		ln, err := net.Listen("tcp", *httpAddr)
		if err != nil {
			fatal(fmt.Errorf("http listen %s: %w", *httpAddr, err))
		}
		go http.Serve(ln, (&obs.Server{Registry: mreg, Trace: ring}).Handler())
		fmt.Printf("flipcgw: metrics on http://%s/metrics (healthz)\n", ln.Addr())
	}

	// Housekeeping: presence/pattern lease renewal and the saturation
	// probe, on the registry's lease cadence.
	hkStop := make(chan struct{})
	defer close(hkStop)
	go func() {
		tick := time.NewTicker(*lease)
		defer tick.Stop()
		for {
			select {
			case <-hkStop:
				return
			case <-tick.C:
				mux.Housekeeping()
			}
		}
	}()

	cln, err := net.Listen("tcp", *clients)
	if err != nil {
		fatal(fmt.Errorf("client listen %s: %w", *clients, err))
	}
	gs := gateway.NewServer(mux)
	fmt.Printf("flipcgw: serving clients on %s\n", cln.Addr())

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-stop
		_ = gs.Close()
	}()
	if err := gs.Serve(cln); err != nil {
		fatal(err)
	}
	h := mux.Health()
	st := mux.Stats()
	fmt.Printf("flipcgw: shutdown: conns=%d received=%d matched=%d unmatched=%d pub=%d puberr=%d renewErrs=%d\n",
		h.Conns, st.Received, st.Matched, st.Unmatched, st.PubOK, st.PubErrs, h.RenewErrs)
}

// domainConfig sizes the gateway's domain for its class inboxes, a full
// publisher cache and the registry clients: their message buffers, and
// a descriptor slot for each of their endpoints. The arena's queue
// storage is sized at the default depth per slot, so each class inbox,
// whose queue is inboxBufs deep, takes one more slot per default depth.
func domainConfig(node, msgSize, inboxBufs, maxPubs int) core.Config {
	const depth = 8                   // the default endpoint queue depth
	const regBufs, regSlots = 512, 16 // registry clients: 8 buffers and 2 endpoints each
	return core.Config{
		Node:              wire.NodeID(node),
		MessageSize:       msgSize,
		NumBuffers:        gateway.NumClasses*inboxBufs + maxPubs*gateway.PublisherWindow + regBufs,
		MaxEndpoints:      gateway.NumClasses*(1+inboxBufs/depth) + maxPubs + regSlots,
		DefaultQueueDepth: depth,
	}
}

// buildDirectory bootstraps the gateway's Directory from one
// registry server: fetch the shard map in-band; when the registry is
// sharded, open one client per shard (at each shard's address hint)
// behind a ShardedDirectory so topic routing, pattern broadcast, and
// presence spreading work shard-aware; otherwise a single
// RemoteDirectory against the bootstrap server.
func buildDirectory(d *core.Domain, server wire.Addr, timeout time.Duration) (topic.Directory, error) {
	boot, err := nameservice.NewClient(d, server)
	if err != nil {
		return nil, fmt.Errorf("registry client: %w", err)
	}
	m, self, err := boot.ShardMap(timeout)
	if err != nil {
		// No shard map: the registry runs unsharded.
		fmt.Printf("flipcgw: unsharded registry at %v (%v)\n", server, err)
		return topic.RemoteDirectory{C: boot, Timeout: timeout}, nil
	}
	sdir := topic.NewShardedDirectory(m)
	installed := 0
	for _, e := range m.Entries() {
		var dir topic.Directory
		switch {
		case e.ID == self:
			dir = topic.RemoteDirectory{C: boot, Timeout: timeout}
		case e.Addr != 0:
			cl, err := nameservice.NewClient(d, wire.Addr(e.Addr))
			if err != nil {
				return nil, fmt.Errorf("registry client for shard %d: %w", e.ID, err)
			}
			dir = topic.RemoteDirectory{C: cl, Timeout: timeout}
		default:
			fmt.Printf("flipcgw: shard %d has no address hint; ops routed to it will fail until the map carries one\n", e.ID)
			continue
		}
		sdir.SetShard(e.ID, dir)
		installed++
	}
	if installed == 0 {
		return nil, fmt.Errorf("shard map (epoch %d) carries no reachable shard", m.Epoch())
	}
	fmt.Printf("flipcgw: sharded registry: %d/%d shards installed (map epoch %d)\n",
		installed, m.Len(), m.Epoch())
	return sdir, nil
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "flipcgw: %v\n", err)
	os.Exit(1)
}
