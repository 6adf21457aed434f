package gateway

import (
	"io"
	"net"
	"testing"

	"flipc/internal/core"
	"flipc/internal/interconnect"
	"flipc/internal/nameservice"
	"flipc/internal/topic"
)

// BenchmarkClientPingPong times one round trip of a gateway.Dial ping
// and its pong through a loopback Server, next to a bare loopback TCP
// echo of the same bytes as the reference: the gateway.socket_rtt_us
// target is within 2x of bare loopback. Both report us/op.
func BenchmarkClientPingPong(b *testing.B) {
	echo := []byte("ping")
	ping, err := AppendFrame(nil, Frame{Op: OpPing, Payload: echo})
	if err != nil {
		b.Fatal(err)
	}
	b.Run("gateway", func(b *testing.B) {
		tr, err := interconnect.NewFabric(64).Attach(0)
		if err != nil {
			b.Fatal(err)
		}
		d, err := core.NewDomain(core.Config{Node: 0, MessageSize: 256, NumBuffers: 512}, tr)
		if err != nil {
			b.Fatal(err)
		}
		defer d.Close()
		m, err := NewMux(d, Config{Name: "gw-bench", Dir: topic.LocalDirectory{R: nameservice.NewTopicRegistry()}})
		if err != nil {
			b.Fatal(err)
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		srv := NewServer(m)
		served := make(chan error, 1)
		go func() { served <- srv.Serve(ln) }()
		defer func() {
			_ = srv.Close()
			<-served
		}()
		c, err := Dial(ln.Addr().String(), "bench")
		if err != nil {
			b.Fatal(err)
		}
		defer c.Close()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := c.Ping(echo); err != nil {
				b.Fatal(err)
			}
			if f, err := c.Recv(); err != nil || f.Op != OpPong {
				b.Fatalf("pong: op %d, %v", f.Op, err)
			}
		}
		reportMicros(b)
	})
	b.Run("loopback", func(b *testing.B) {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		defer ln.Close()
		go func() {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			defer conn.Close()
			buf := make([]byte, len(ping))
			for {
				if _, err := io.ReadFull(conn, buf); err != nil {
					return
				}
				if _, err := conn.Write(buf); err != nil {
					return
				}
			}
		}()
		nc, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			b.Fatal(err)
		}
		defer nc.Close()
		_ = nc.(*net.TCPConn).SetNoDelay(true) // as Dial sets it
		back := make([]byte, len(ping))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := nc.Write(ping); err != nil {
				b.Fatal(err)
			}
			if _, err := io.ReadFull(nc, back); err != nil {
				b.Fatal(err)
			}
		}
		reportMicros(b)
	})
}

// reportMicros stops the clock before the deferred teardown runs.
func reportMicros(b *testing.B) {
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed())/float64(b.N)/1e3, "us/op")
}
