// Radar: the event-driven distributed real-time scenario that motivates
// FLIPC (think shipboard combat systems: "the system must not only
// process a message announcing detection of an incoming missile in
// preference to a message indicating that it is time for preventative
// maintenance, but must also ensure that the latter message does not
// consume resources required to handle the former").
//
// A sensor node produces two traffic classes toward a command node:
//
//   - track updates: urgent, on their own endpoint with its own buffers
//     and a high-priority blocked receiver;
//   - maintenance telemetry: bulk chatter, on a separate endpoint with a
//     deliberately small buffer allotment and a low-priority receiver.
//
// The maintenance flood overruns its own endpoint (counted drops) but
// cannot take buffers from the track class, and the scheduler wakes the
// track thread first — resource isolation and priority, per the paper.
//
//	go run ./examples/radar
package main

import (
	"fmt"
	"log"
	"sync"
	"time"

	"flipc/internal/core"
	"flipc/internal/interconnect"
	"flipc/internal/msglib"
	"flipc/internal/nameservice"
	"flipc/internal/wire"
)

const (
	trackCount = 12
	maintFlood = 64 // far more than the maintenance endpoint's buffers
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
	sensor := newNode(0)
	defer sensor.Close()
	command := newNode(1)
	defer command.Close()
	names := nameservice.New()

	// Command node: two endpoints, two traffic classes, separate
	// resources. Track gets a deep buffer allotment; maintenance a
	// shallow one — the explicit resource-control model.
	tracks, err := command.NewRecvEndpoint(16)
	if err != nil {
		log.Fatal(err)
	}
	maint, err := command.NewRecvEndpoint(8)
	if err != nil {
		log.Fatal(err)
	}
	post := func(ep *core.Endpoint, n int) {
		for i := 0; i < n; i++ {
			m, err := command.AllocBuffer()
			if err != nil {
				log.Fatal(err)
			}
			if err := ep.Post(m); err != nil {
				log.Fatal(err)
			}
		}
	}
	post(tracks, 15)
	post(maint, 4) // maintenance is allowed to lose data under load
	names.Register("cmd.tracks", tracks.Addr())
	names.Register("cmd.maint", maint.Addr())

	var wg sync.WaitGroup
	var order []string
	var orderMu sync.Mutex
	record := func(class string) {
		orderMu.Lock()
		order = append(order, class)
		orderMu.Unlock()
	}

	// High-priority track consumer: blocked on the real-time semaphore;
	// the kernel presents it to the scheduler ahead of the maintenance
	// thread when both have work.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for got := 0; got < trackCount; got++ {
			m, err := tracks.ReceiveBlock(9, time.Now().Add(5*time.Second)) // high priority
			if err != nil {
				log.Fatal(err)
			}
			record("track")
			if tracks.Post(m) != nil {
				command.FreeBuffer(m)
			}
		}
	}()
	// Low-priority maintenance consumer, serving a two-second window.
	maintUntil := time.Now().Add(2 * time.Second)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			m, err := maint.ReceiveBlock(1, maintUntil)
			if err != nil {
				return // core.ErrTimeout: the window closed
			}
			record("maint")
			if maint.Post(m) != nil {
				command.FreeBuffer(m)
			}
		}
	}()

	// Sensor: one outbox per class (different endpoints — multithreaded
	// applications avoid contention by splitting endpoints).
	trackOut, err := msglib.NewOutbox(sensor, 16, 16)
	if err != nil {
		log.Fatal(err)
	}
	maintOut, err := msglib.NewOutbox(sensor, 16, 16)
	if err != nil {
		log.Fatal(err)
	}
	trackAddr, _ := names.Lookup("cmd.tracks")
	maintAddr, _ := names.Lookup("cmd.maint")

	// Flood maintenance first, then emit the urgent tracks.
	for i := 0; i < maintFlood; i++ {
		payload := fmt.Sprintf("maint: pump %d vibration nominal", i)
		if err := maintOut.SendBlock(maintAddr, []byte(payload), 1, time.Time{}); err != nil {
			log.Fatal(err)
		}
	}
	for i := 0; i < trackCount; i++ {
		payload := fmt.Sprintf("track: contact %d bearing %03d range %dnm", i, (i*37)%360, 40-i)
		if err := trackOut.SendBlock(trackAddr, []byte(payload), 9, time.Time{}); err != nil {
			log.Fatal(err)
		}
	}

	// Wait for all tracks and the end of the maintenance window.
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	timeout := time.After(10 * time.Second)
	select {
	case <-done:
	case <-timeout:
		log.Fatal("radar: timed out")
	}

	orderMu.Lock()
	trackSeen, maintSeen := 0, 0
	for _, c := range order {
		if c == "track" {
			trackSeen++
		} else {
			maintSeen++
		}
	}
	orderMu.Unlock()
	fmt.Printf("tracks delivered:       %d/%d (drops on track endpoint: %d)\n",
		trackSeen, trackCount, tracks.Drops())
	fmt.Printf("maintenance delivered:  %d/%d (drops on maint endpoint: %d — its own budget, not the tracks')\n",
		maintSeen, maintFlood, maint.Drops())
	if tracks.Drops() != 0 {
		log.Fatal("resource isolation failed: track class lost messages")
	}
	fmt.Println("resource isolation held: the maintenance flood could not consume track buffers")
}
