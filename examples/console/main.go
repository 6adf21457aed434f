// Console: endpoint groups (paper §Architecture and Design). An
// operator console consumes three sensor streams — radar, IFF, ESM —
// each on its own endpoint with its own buffer budget, through a single
// endpoint group: "FLIPC supports a receive operation that retrieves a
// message from an endpoint if there is an available message on any
// endpoint in the group", implemented entirely in the library because
// the resource-control model ties buffers to endpoints and the queues
// cannot be merged. The blocking form wakes through the real-time
// semaphore path.
//
//	go run ./examples/console
package main

import (
	"fmt"
	"log"
	"time"

	"flipc/internal/core"
	"flipc/internal/interconnect"
	"flipc/internal/msglib"
	"flipc/internal/nameservice"
	"flipc/internal/wire"
)

var streams = []struct {
	name string
	msgs int
}{
	{"radar", 6},
	{"iff", 4},
	{"esm", 5},
}

func main() {
	fabric := interconnect.NewFabric(256)
	newNode := func(id wire.NodeID) *core.Domain {
		tr, err := fabric.Attach(id)
		if err != nil {
			log.Fatal(err)
		}
		d, err := core.NewDomain(core.Config{Node: id, MessageSize: 96, NumBuffers: 48}, tr)
		if err != nil {
			log.Fatal(err)
		}
		d.Start()
		return d
	}
	console := newNode(0)
	defer console.Close()
	names := nameservice.New()

	// One endpoint per stream, each with its own buffers (a flood on
	// one stream cannot starve the others), combined into a group.
	eps := make([]*core.Endpoint, len(streams))
	for i, s := range streams {
		ep, err := console.NewRecvEndpoint(8)
		if err != nil {
			log.Fatal(err)
		}
		for b := 0; b < 6; b++ {
			m, err := console.AllocBuffer()
			if err != nil {
				log.Fatal(err)
			}
			if err := ep.Post(m); err != nil {
				log.Fatal(err)
			}
		}
		names.Register("console."+s.name, ep.Addr())
		eps[i] = ep
	}
	group, err := console.NewGroup(eps...)
	if err != nil {
		log.Fatal(err)
	}

	// Each sensor is its own node with its own outbox.
	total := 0
	for i, s := range streams {
		s := s
		d := newNode(wire.NodeID(i + 1))
		defer d.Close()
		out, err := msglib.NewOutbox(d, 8, 8)
		if err != nil {
			log.Fatal(err)
		}
		dst, err := names.Lookup("console." + s.name)
		if err != nil {
			log.Fatal(err)
		}
		total += s.msgs
		go func() {
			for m := 0; m < s.msgs; m++ {
				payload := fmt.Sprintf("%s report %d", s.name, m)
				if err := out.SendBlock(dst, []byte(payload), 1, time.Time{}); err != nil {
					log.Fatal(err)
				}
				// Pacing, not polling: each stream reports on its own cadence.
				time.Sleep(time.Duration(1+m%3) * time.Millisecond)
			}
		}()
	}

	// The console thread blocks on the whole group and attributes each
	// message to its stream — one thread, many prioritized sources.
	perStream := map[*core.Endpoint]int{}
	for got := 0; got < total; got++ {
		msg, from, err := group.ReceiveBlock(5, time.Now().Add(5*time.Second))
		if err != nil {
			log.Fatal(err)
		}
		perStream[from]++
		if from.Post(msg) != nil {
			console.FreeBuffer(msg)
		}
	}
	for i, s := range streams {
		n := perStream[eps[i]]
		fmt.Printf("%-6s %d/%d messages via group (drops %d)\n", s.name, n, s.msgs, eps[i].Drops())
		if n != s.msgs {
			log.Fatalf("%s lost messages", s.name)
		}
	}
	fmt.Printf("group receive-any delivered all %d messages across %d endpoints; total drops %d\n",
		total, len(eps), group.Drops())
}
