// Quickstart: the five-step FLIPC message cycle (paper Figure 2)
// between two nodes on an in-process interconnect.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"time"

	"flipc/internal/core"
	"flipc/internal/interconnect"
	"flipc/internal/nameservice"
	"flipc/internal/wire"
)

func main() {
	// One fabric, two nodes, one domain each. On the Paragon the
	// messaging engine runs on the message coprocessor; Start() gives
	// it a goroutine here.
	fabric := interconnect.NewFabric(64)
	newNode := func(id wire.NodeID) *core.Domain {
		tr, err := fabric.Attach(id)
		if err != nil {
			log.Fatal(err)
		}
		d, err := core.NewDomain(core.Config{
			Node:        id,
			MessageSize: 128, // fixed at boot; applications get 120 payload bytes
			NumBuffers:  32,
		}, tr)
		if err != nil {
			log.Fatal(err)
		}
		d.Start()
		return d
	}
	sender := newNode(0)
	defer sender.Close()
	receiver := newNode(1)
	defer receiver.Close()

	// FLIPC addresses are opaque; a name service conveys them.
	names := nameservice.New()

	// Receiver: allocate a receive endpoint, register it, post a buffer
	// (step 1 — resource control is explicit and application-owned).
	rep, err := receiver.NewRecvEndpoint(8)
	if err != nil {
		log.Fatal(err)
	}
	if err := names.Register("quickstart.inbox", rep.Addr()); err != nil {
		log.Fatal(err)
	}
	rbuf, err := receiver.AllocBuffer()
	if err != nil {
		log.Fatal(err)
	}
	if err := rep.Post(rbuf); err != nil {
		log.Fatal(err)
	}

	// Sender: look up the destination, fill a buffer, send (step 2).
	sep, err := sender.NewSendEndpoint(8)
	if err != nil {
		log.Fatal(err)
	}
	dst, err := names.Lookup("quickstart.inbox")
	if err != nil {
		log.Fatal(err)
	}
	sbuf, err := sender.AllocBuffer()
	if err != nil {
		log.Fatal(err)
	}
	n := copy(sbuf.Payload(), "hello from the medium-message class")
	if err := sep.Send(sbuf, dst, n); err != nil {
		log.Fatal(err)
	}

	// Step 3 happens on the engines. Step 4: blocking receive through
	// the real-time semaphore path (no interrupting upcalls).
	msg, err := rep.ReceiveBlock(1, time.Now().Add(2*time.Second))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("received %d bytes: %q\n", msg.Len(), msg.Payload()[:msg.Len()])

	// Step 5: the sender reclaims its buffer once the engine is done with it.
	done, err := sep.AcquireBlock(1, time.Now().Add(2*time.Second))
	if err != nil {
		log.Fatal(err)
	}
	if err := sender.FreeBuffer(done); err != nil {
		log.Fatal(err)
	}
	if err := receiver.FreeBuffer(msg); err != nil {
		log.Fatal(err)
	}
	fmt.Println("five-step cycle complete; drops:", rep.Drops())
}
