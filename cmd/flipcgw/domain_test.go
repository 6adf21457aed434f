package main

import (
	"fmt"
	"testing"

	"flipc/internal/core"
	"flipc/internal/gateway"
	"flipc/internal/interconnect"
	"flipc/internal/nameservice"
	"flipc/internal/topic"
)

// TestDomainHoldsFullPublisherCache: a Mux on a domain sized by the
// default flags (-msgsize 128, -inboxbufs 128, -max-publishers 64)
// holds a publisher for each of 64 distinct topics at once. The
// domain's default 16 slots ran out of queue storage at the 5th.
func TestDomainHoldsFullPublisherCache(t *testing.T) {
	const inboxBufs, maxPubs = 128, 64
	tr, err := interconnect.NewFabric(64).Attach(1)
	if err != nil {
		t.Fatal(err)
	}
	d, err := core.NewDomain(domainConfig(1, 128, inboxBufs, maxPubs), tr)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	m, err := gateway.NewMux(d, gateway.Config{
		Name:          "gw-1",
		Dir:           topic.LocalDirectory{R: nameservice.NewTopicRegistry()},
		InboxBuffers:  inboxBufs,
		MaxPublishers: maxPubs,
	})
	if err != nil {
		t.Fatal(err)
	}
	c := m.Attach()
	send := func(f gateway.Frame) {
		enc, err := gateway.AppendFrame(nil, f)
		if err != nil {
			t.Fatal(err)
		}
		m.HandleFrame(c, enc[2:]) // the body behind the length prefix
	}
	send(gateway.Frame{Op: gateway.OpHello, Ver: 1, Name: "cli"})
	for i := range maxPubs {
		send(gateway.Frame{Op: gateway.OpPub, Class: uint8(topic.Normal), Name: fmt.Sprintf("t.%d", i), Payload: []byte("x")})
	}
	if st := m.Stats(); st.PubOK != maxPubs || st.PubErrs != 0 {
		t.Fatalf("published %d, %d errors; want %d, 0", st.PubOK, st.PubErrs, maxPubs)
	}
}
