// Gateway: the client edge plane (internal/gateway, cmd/flipcgw). A
// process that is not a fabric node — no commbuf endpoints, no fixed
// buffer budget, maybe not even on the mesh — talks FLIPC through a
// gateway over plain TCP: a length-prefixed framing protocol with
// hello/subscribe/publish/deliver ops, wildcard topic patterns
// ("metrics.*"), and per-client presence leases. The gateway
// multiplexes every client onto one commbuf endpoint per priority
// class, so fabric resources scale with gateways, not clients, and a
// dead gateway's whole client population is swept by lease expiry.
//
// This example runs the full stack in one process: an in-process
// fabric, a gateway Mux served on a loopback TCP listener, and two
// clients — a sensor publishing readings through the gateway, and a
// monitor subscribed to the wildcard — plus a fabric-side subscriber
// proving gateway clients and native nodes share one topic plane.
//
//	go run ./examples/gateway
//
// Against a live cluster, run `flipcd -registry` and `flipcgw`
// (see the README gateway quickstart), then point gateway.Dial at the
// flipcgw -clients address instead.
package main

import (
	"fmt"
	"log"
	"net"
	"time"

	"flipc/internal/core"
	"flipc/internal/gateway"
	"flipc/internal/interconnect"
	"flipc/internal/nameservice"
	"flipc/internal/topic"
	"flipc/internal/wire"
)

func main() {
	// The fabric: a gateway node and a native node, one registry.
	fabric := interconnect.NewFabric(1024)
	newNode := func(id wire.NodeID) *core.Domain {
		tr, err := fabric.Attach(id)
		if err != nil {
			log.Fatal(err)
		}
		d, err := core.NewDomain(core.Config{
			Node: id, MessageSize: 128, NumBuffers: 512,
		}, tr)
		if err != nil {
			log.Fatal(err)
		}
		d.Start()
		return d
	}
	gwNode, native := newNode(0), newNode(1)
	defer gwNode.Close()
	defer native.Close()
	dir := topic.LocalDirectory{R: nameservice.NewTopicRegistry()}

	// The gateway: a Mux on the gateway node, served over loopback TCP
	// exactly as cmd/flipcgw does it.
	mux, err := gateway.NewMux(gwNode, gateway.Config{Name: "gw-demo", Dir: dir})
	if err != nil {
		log.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	srv := gateway.NewServer(mux)
	go srv.Serve(ln)
	defer srv.Close()
	fmt.Printf("gateway %q serving on %s\n", "gw-demo", ln.Addr())

	// A native subscriber on the fabric node: exact subscription to one
	// of the topics the sensor will publish — gateway clients and
	// native nodes meet on the same topic plane.
	nativeSub, err := topic.NewSubscriber(native, dir, "metrics.gps", topic.Normal, 16, 16)
	if err != nil {
		log.Fatal(err)
	}

	// The monitor client: wildcard subscription over TCP. One segment
	// ("metrics.*") — gps, cpu, whatever appears under metrics.
	monitor, err := gateway.Dial(ln.Addr().String(), "monitor-1")
	if err != nil {
		log.Fatal(err)
	}
	defer monitor.Close()
	if err := monitor.Subscribe("metrics.*", topic.Normal); err != nil {
		log.Fatal(err)
	}
	// A ping round-trip doubles as a subscribe barrier: the gateway
	// processes each connection's frames in order.
	if err := monitor.Ping(nil); err != nil {
		log.Fatal(err)
	}
	if fr, err := monitor.Recv(); err != nil || fr.Op != gateway.OpPong {
		log.Fatalf("ping barrier: %+v %v", fr, err)
	}

	// The sensor client: plain publishes through the gateway.
	sensor, err := gateway.Dial(ln.Addr().String(), "sensor-7")
	if err != nil {
		log.Fatal(err)
	}
	defer sensor.Close()
	for i := 0; i < 3; i++ {
		gps := fmt.Sprintf("fix %d: 40.71,-74.00", i)
		if err := sensor.Publish("metrics.gps", topic.Normal, []byte(gps)); err != nil {
			log.Fatal(err)
		}
		if err := sensor.Publish("metrics.cpu", topic.Normal, []byte("load 0.42")); err != nil {
			log.Fatal(err)
		}
	}

	// The monitor sees both topics through one wildcard...
	monitor.SetReadDeadline(time.Now().Add(2 * time.Second))
	for got := 0; got < 6; got++ {
		fr, err := monitor.RecvDeliver()
		if err != nil {
			log.Fatalf("monitor: %v after %d deliveries", err, got)
		}
		fmt.Printf("monitor  <- %-11s [%s] %q\n", fr.Name, topic.Class(fr.Class), fr.Payload)
	}

	// ...and the native subscriber sees the gps stream without knowing
	// gateways exist.
	deadline := time.Now().Add(2 * time.Second)
	for got := 0; got < 3; got++ {
		payload, _, err := nativeSub.ReceiveBlock(deadline)
		if err != nil {
			log.Fatalf("native subscriber: %d of 3 deliveries: %v", got, err)
		}
		fmt.Printf("native   <- metrics.gps %q\n", payload)
	}

	// The presence ledger: every connected client is a leased entry.
	fmt.Printf("presence: %v\n", dir.R.PresenceByGateway())
	h := mux.Health()
	fmt.Printf("gateway health: conns=%d leases=%d patterns=%d\n", h.Conns, h.Presence, h.Patterns)
}
