// Periodic: the paper's second static flow-control example — "an
// application made up of strictly periodic components can often
// determine its worst case buffering needs in advance based on the
// maximum number of messages sent per time period" (§Message Transfer).
//
// Three periodic producers (a process-control flavor: flow, pressure,
// temperature loops) send fixed-rate samples to one historian. The
// historian drains once per period, so its worst case is exactly one
// period's production — flowctl.PeriodicBuffers(msgsPerPeriod, 1).
//
//	go run ./examples/periodic
package main

import (
	"fmt"
	"log"
	"time"

	"flipc/internal/core"
	"flipc/internal/flowctl"
	"flipc/internal/interconnect"
	"flipc/internal/msglib"
	"flipc/internal/nameservice"
	"flipc/internal/wire"
)

// Each producer's messages per period.
var producers = []struct {
	name string
	rate int
}{
	{"flow-loop", 4},
	{"pressure-loop", 3},
	{"temp-loop", 2},
}

const periods = 25

func main() {
	fabric := interconnect.NewFabric(256)
	newNode := func(id wire.NodeID) *core.Domain {
		tr, err := fabric.Attach(id)
		if err != nil {
			log.Fatal(err)
		}
		d, err := core.NewDomain(core.Config{Node: id, MessageSize: 96, NumBuffers: 64}, tr)
		if err != nil {
			log.Fatal(err)
		}
		d.Start()
		return d
	}
	historian := newNode(0)
	defer historian.Close()

	perPeriod := 0
	for _, p := range producers {
		perPeriod += p.rate
	}
	// Worst case: producers emit a full period's batch before the
	// historian's once-per-period drain runs.
	window := flowctl.PeriodicBuffers(perPeriod, 1)
	inbox, err := msglib.NewInbox(historian, 16, window)
	if err != nil {
		log.Fatal(err)
	}
	names := nameservice.New()
	names.Register("plant.historian", inbox.Addr())
	dst, _ := names.Lookup("plant.historian")

	// Producers on their own nodes.
	type prod struct {
		out  *msglib.Outbox
		rate int
		name string
	}
	var ps []prod
	for i, p := range producers {
		d := newNode(wire.NodeID(i + 1))
		defer d.Close()
		out, err := msglib.NewOutbox(d, 8, p.rate)
		if err != nil {
			log.Fatal(err)
		}
		ps = append(ps, prod{out: out, rate: p.rate, name: p.name})
	}

	received := 0
	for period := 0; period < periods; period++ {
		// Every producer emits its per-period quota.
		for _, p := range ps {
			for s := 0; s < p.rate; s++ {
				payload := fmt.Sprintf("%s p%d s%d", p.name, period, s)
				if err := p.out.SendBlock(dst, []byte(payload), 1, time.Time{}); err != nil {
					log.Fatal(err)
				}
			}
		}
		// Historian drains once per period (a strictly periodic
		// consumer). Worst case bound guarantees nothing was dropped.
		deadline := time.Now().Add(time.Second)
		for drained := 0; drained < perPeriod; drained++ {
			if _, _, err := inbox.ReceiveBlock(1, deadline); err != nil {
				log.Fatalf("period %d: drained %d/%d: %v", period, drained, perPeriod, err)
			}
			received++
		}
	}

	want := perPeriod * periods
	fmt.Printf("historian window: %d buffers (PeriodicBuffers(%d msgs/period, 1 period))\n", window, perPeriod)
	fmt.Printf("samples received: %d/%d, drops: %d\n", received, want, inbox.Drops())
	if received != want || inbox.Drops() != 0 {
		log.Fatal("worst-case sizing failed")
	}
	fmt.Println("strictly periodic structure held: worst-case buffering, no runtime flow control, zero drops")
}
