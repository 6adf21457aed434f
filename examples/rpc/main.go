// RPC: the paper's first static flow-control example — "an RPC
// interaction structure with a fixed set of clients can statically
// determine the number of buffers needed based on the maximum number of
// clients" (§Message Transfer). No runtime flow control, no drops, by
// construction.
//
// Three clients issue requests to one server; the server sizes its
// receive window with flowctl.RPCBuffers and never discards a request.
//
//	go run ./examples/rpc
package main

import (
	"encoding/binary"
	"fmt"
	"log"
	"sync"
	"time"

	"flipc/internal/core"
	"flipc/internal/flowctl"
	"flipc/internal/interconnect"
	"flipc/internal/msglib"
	"flipc/internal/nameservice"
	"flipc/internal/wire"
)

const (
	numClients        = 3
	outstandingPerCli = 2 // each client limits itself to 2 in-flight RPCs
	requestsPerClient = 20
)

func main() {
	fabric := interconnect.NewFabric(256)
	newNode := func(id wire.NodeID) *core.Domain {
		tr, err := fabric.Attach(id)
		if err != nil {
			log.Fatal(err)
		}
		d, err := core.NewDomain(core.Config{Node: id, MessageSize: 128, NumBuffers: 64}, tr)
		if err != nil {
			log.Fatal(err)
		}
		d.Start()
		return d
	}
	server := newNode(0)
	defer server.Close()
	clients := make([]*core.Domain, numClients)
	for i := range clients {
		clients[i] = newNode(wire.NodeID(i + 1))
		defer clients[i].Close()
	}
	names := nameservice.New()

	// Server: the static sizing rule makes the window exact.
	window := flowctl.RPCBuffers(numClients, outstandingPerCli) // 6 buffers
	inbox, err := msglib.NewInbox(server, 16, window)
	if err != nil {
		log.Fatal(err)
	}
	out, err := msglib.NewOutbox(server, 16, window)
	if err != nil {
		log.Fatal(err)
	}
	names.Register("rpc.server", inbox.Addr())

	// Server loop: request payload = reply addr (4B) | request id (4B).
	go func() {
		for {
			payload, _, err := inbox.ReceiveBlock(5, time.Time{})
			if err != nil {
				return // domain closed
			}
			if len(payload) < 8 {
				continue
			}
			replyTo := wire.Addr(binary.BigEndian.Uint32(payload[:4]))
			id := binary.BigEndian.Uint32(payload[4:8])
			reply := make([]byte, 8)
			binary.BigEndian.PutUint32(reply[:4], id)
			binary.BigEndian.PutUint32(reply[4:], id*id) // the "computation"
			if out.SendBlock(replyTo, reply, 5, time.Time{}) != nil {
				return // domain closed
			}
		}
	}()

	serverAddr, _ := names.WaitFor("rpc.server", time.Second)
	var wg sync.WaitGroup
	for c := 0; c < numClients; c++ {
		c := c
		wg.Add(1)
		go func() {
			defer wg.Done()
			d := clients[c]
			// Each client bounds itself to outstandingPerCli in-flight
			// requests — that self-limit is what the server's static
			// window depends on.
			replies, err := msglib.NewInbox(d, 8, outstandingPerCli)
			if err != nil {
				log.Fatal(err)
			}
			reqs, err := msglib.NewOutbox(d, 8, outstandingPerCli)
			if err != nil {
				log.Fatal(err)
			}
			inFlight := 0
			next := uint32(0)
			got := 0
			for got < requestsPerClient {
				for inFlight < outstandingPerCli && int(next) < requestsPerClient {
					req := make([]byte, 8)
					binary.BigEndian.PutUint32(req[:4], uint32(replies.Addr()))
					binary.BigEndian.PutUint32(req[4:], next)
					if err := reqs.SendBlock(serverAddr, req, 1, time.Time{}); err != nil {
						log.Fatalf("client %d: %v", c, err)
					}
					next++
					inFlight++
				}
				payload, _, err := replies.ReceiveBlock(1, time.Now().Add(time.Second))
				if err != nil {
					log.Fatalf("client %d: reply %d: %v", c, got, err)
				}
				id := binary.BigEndian.Uint32(payload[:4])
				sq := binary.BigEndian.Uint32(payload[4:])
				if sq != id*id {
					log.Fatalf("client %d: bad reply %d for request %d", c, sq, id)
				}
				inFlight--
				got++
			}
			if replies.Drops() != 0 {
				log.Fatalf("client %d: reply drops = %d", c, replies.Drops())
			}
		}()
	}
	wg.Wait()
	fmt.Printf("all %d clients completed %d RPCs each\n", numClients, requestsPerClient)
	fmt.Printf("server window: %d buffers (RPCBuffers(%d clients, %d outstanding)); request drops: %d\n",
		window, numClients, outstandingPerCli, inbox.Drops())
	if inbox.Drops() != 0 {
		log.Fatal("static sizing failed: the server dropped requests")
	}
	fmt.Println("static flow control held: no runtime flow control, zero drops")
}
