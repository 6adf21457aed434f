// Pub/sub: topic-based fanout with prioritized classes
// (internal/topic) on an in-process interconnect.
//
// One publisher node fans telemetry out to three subscriber endpoints
// spread over two nodes; a control-class topic shares the cluster and
// keeps its latency edge through the engine's priority policy. Slow
// subscribers lose messages — counted, never silently — which is
// FLIPC's optimistic discard rule applied one-to-many.
//
//	go run ./examples/pubsub
package main

import (
	"fmt"
	"log"
	"time"

	"flipc/internal/core"
	"flipc/internal/engine"
	"flipc/internal/interconnect"
	"flipc/internal/nameservice"
	"flipc/internal/topic"
	"flipc/internal/wire"
)

func main() {
	fabric := interconnect.NewFabric(1024)
	newNode := func(id wire.NodeID) *core.Domain {
		tr, err := fabric.Attach(id)
		if err != nil {
			log.Fatal(err)
		}
		d, err := core.NewDomain(core.Config{
			Node:        id,
			MessageSize: 128,
			NumBuffers:  256,
			// PolicyPriority lets the control class overtake bulk
			// traffic inside the engine's send pass.
			Engine: engine.Config{Policy: engine.PolicyPriority},
		}, tr)
		if err != nil {
			log.Fatal(err)
		}
		d.Start()
		return d
	}
	pubNode := newNode(0)
	defer pubNode.Close()
	subA := newNode(1)
	defer subA.Close()
	subB := newNode(2)
	defer subB.Close()

	// The topic registry is the directory's pub/sub half: topic name →
	// subscriber set, lease-based, generation-stamped. In a real
	// cluster it lives on the registry node behind nameservice.Server
	// (use topic.RemoteDirectory); in-process the local adapter is
	// enough.
	dir := topic.LocalDirectory{R: nameservice.NewTopicRegistry()}

	// Subscribers join with a class and a private buffer pool — the
	// topic's receive-side credit (size it with SubscriberBuffers).
	mkSub := func(d *core.Domain, topicName string, class topic.Class) *topic.Subscriber {
		s, err := topic.NewSubscriber(d, dir, topicName, class, 32, 32)
		if err != nil {
			log.Fatal(err)
		}
		return s
	}
	telemetrySubs := []*topic.Subscriber{
		mkSub(subA, "telemetry", topic.Normal),
		mkSub(subA, "telemetry", topic.Normal),
		mkSub(subB, "telemetry", topic.Normal),
	}
	alarmSub := mkSub(subB, "alarms", topic.Control)

	// Publishers fan one Publish out to every subscriber; the fanout
	// plan is cached and rebuilt only when the membership generation
	// moves.
	telemetryPub, err := topic.NewPublisher(pubNode, dir, topic.PublisherConfig{
		Topic: "telemetry", Class: topic.Normal})
	if err != nil {
		log.Fatal(err)
	}
	alarmPub, err := topic.NewPublisher(pubNode, dir, topic.PublisherConfig{
		Topic: "alarms", Class: topic.Control})
	if err != nil {
		log.Fatal(err)
	}

	const rounds = 50
	for i := 0; i < rounds; i++ {
		if _, err := telemetryPub.Publish([]byte(fmt.Sprintf("sample %d", i))); err != nil {
			log.Fatal(err)
		}
		// A periodic producer: the pacing is the static flow control —
		// burst past the window and the excess becomes counted drops.
		time.Sleep(200 * time.Microsecond)
	}
	if _, err := alarmPub.Publish([]byte("overtemp on node 2")); err != nil {
		log.Fatal(err)
	}

	// The control-class receive blocks at a higher scheduler priority
	// than any bulk consumer would.
	alarm, flags, err := alarmSub.ReceiveBlock(time.Now().Add(2 * time.Second))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("alarm (class %v): %q\n", topic.ClassFromFlags(flags), alarm)

	// Drain the telemetry subscribers and show the conservation law:
	// every fanned-out message is delivered or counted at one ledger.
	deadline := time.Now().Add(2 * time.Second)
	var law topic.FanoutLedger
	for {
		for _, s := range telemetrySubs {
			for {
				if _, _, ok := s.Receive(); !ok {
					break
				}
			}
		}
		law = topic.FanoutLaw(telemetryPub, telemetrySubs...)
		if law.Err() == nil || time.Now().After(deadline) {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if err := law.Err(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("telemetry: published %d x %d subscribers = %d fanned out\n",
		law.Published, len(telemetrySubs), law.Owed)
	fmt.Printf("delivered %d, receiver-dropped %d, publisher-dropped %d — all accounted\n",
		law.Delivered, law.RecvDropped, law.PubDropped)
}
