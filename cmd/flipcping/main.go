// Command flipcping measures round-trip latency against a flipcd echo
// endpoint over TCP — the paper's two-way-exchange methodology on the
// ethernet development platform. Wall-clock numbers here characterize
// the Go/TCP substrate, not the Paragon (use flipcbench for the
// paper-model figures).
//
// Usage:
//
//	flipcping -node 2 -listen 127.0.0.1:0 \
//	          -peer 0=127.0.0.1:7000 -target 0x<echo addr> -count 100
package main

import (
	"bytes"
	"encoding/binary"
	"errors"
	"flag"
	"fmt"
	"os"
	"time"

	"flipc/internal/core"
	"flipc/internal/engine"
	"flipc/internal/metrics"
	"flipc/internal/msglib"
	"flipc/internal/nameservice"
	"flipc/internal/nettrans"
	"flipc/internal/stats"
	"flipc/internal/wire"
)

func main() {
	var (
		node    = flag.Int("node", 2, "this node's ID")
		listen  = flag.String("listen", "127.0.0.1:0", "TCP listen address")
		peers   = flag.String("peer", "", "comma-separated peer list: id=host:port,...")
		target  = flag.String("target", "", "echo endpoint address (hex, from flipcd)")
		count   = flag.Int("count", 100, "number of two-way exchanges")
		msgSize = flag.Int("msgsize", 128, "fixed message size (must match flipcd)")
	)
	flag.Parse()
	if *target == "" {
		fatal(fmt.Errorf("missing -target (the address flipcd printed)"))
	}
	dst, err := wire.ParseAddr(*target)
	if err != nil {
		fatal(fmt.Errorf("-target: %w", err))
	}

	tr, err := nettrans.Listen(wire.NodeID(*node), *listen, *msgSize)
	if err != nil {
		fatal(err)
	}
	defer tr.Close()
	peerList, err := nameservice.ParsePeerList(*peers)
	if err != nil {
		fatal(err)
	}
	for _, id := range peerList.Nodes() {
		addr, _ := peerList.Resolve(id)
		if err := tr.Dial(id, addr); err != nil {
			fatal(err)
		}
	}

	// A registry makes the engine stamp outgoing pings (flipcd records
	// true one-way delivery latency when run with -http) and record the
	// one-way latency of stamped replies here.
	reg := metrics.NewRegistry()
	d, err := core.NewDomain(core.Config{
		Node: wire.NodeID(*node), MessageSize: *msgSize, NumBuffers: 32,
		Engine: engine.Config{Metrics: reg},
	}, tr)
	if err != nil {
		fatal(err)
	}
	defer d.Close()
	d.Start()

	// The outbox reclaims completed sends; the inbox keeps buffers posted.
	in, err := msglib.NewInbox(d, 8, 4)
	if err != nil {
		fatal(err)
	}
	out, err := msglib.NewOutbox(d, 8, 4)
	if err != nil {
		fatal(err)
	}

	var rtts []float64
	lost, late := 0, 0
	for i := 0; i < *count; i++ {
		want := fmt.Appendf(nil, "ping %d", i)
		start := time.Now()
		deadline := start.Add(2 * time.Second)
		ping := append(binary.BigEndian.AppendUint32(nil, uint32(in.Addr())), want...)
		if err := out.SendBlock(dst, ping, 1, deadline); err != nil {
			fatal(err)
		}
		// Wait for this ping's echo: a reply to an earlier ping that outlived
		// its deadline is discarded and counted late, never timed as this one.
		for {
			reply, _, err := in.ReceiveBlock(1, deadline)
			if errors.Is(err, core.ErrTimeout) {
				lost++
				break
			}
			if err != nil {
				fatal(err)
			}
			if len(reply) >= 4 && bytes.Equal(reply[4:], want) {
				rtts = append(rtts, float64(time.Since(start).Microseconds()))
				break
			}
			late++
		}
	}
	if len(rtts) == 0 {
		fatal(fmt.Errorf("no replies (%d lost)", lost))
	}
	sum, err := stats.Summarize(rtts)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("flipcping: %d exchanges, %d lost, %d late replies discarded\n", len(rtts), lost, late)
	fmt.Printf("rtt µs: %v\n", sum)
	fmt.Printf("one-way estimate: %.1f µs (rtt/2; TCP substrate, not Paragon)\n", sum.Mean/2)
	// If the echo daemon stamps its replies (flipcd -http), the engine
	// recorded their true one-way latency — report the measured figure
	// next to the rtt/2 estimate.
	if lat, ok := reg.Snapshot().Histograms["flipc_recv_latency_ns"]; ok && lat.Count > 0 {
		fmt.Printf("one-way measured: p50=%.1f µs p99=%.1f µs (%d stamped replies)\n",
			lat.Quantile(0.5)/1e3, lat.Quantile(0.99)/1e3, lat.Count)
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "flipcping: %v\n", err)
	os.Exit(1)
}
