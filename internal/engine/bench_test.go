package engine

import (
	"testing"

	"flipc/internal/commbuf"
	"flipc/internal/metrics"
)

// benchmarkPollIdle times a pass that finds no work on a buffer of the
// given shape, alternating send and receive endpoints over the slots in
// use — the engine's fixed cost, paid once per pass whether or not a
// message is anywhere near.
func benchmarkPollIdle(b *testing.B, slots, inUse int, reg *metrics.Registry) {
	buf, err := commbuf.New(commbuf.Config{Node: 0, MessageSize: 128, NumBuffers: 8, MaxEndpoints: slots, Padded: true})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < inUse; i++ {
		typ := commbuf.EndpointSend
		if i%2 == 1 {
			typ = commbuf.EndpointRecv
		}
		if _, err := buf.AllocEndpoint(typ, 0); err != nil {
			b.Fatal(err)
		}
	}
	eng, err := New(buf, &flakyTransport{node: 0}, Config{Metrics: reg})
	if err != nil {
		b.Fatal(err)
	}
	eng.Poll()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if eng.Poll() {
			b.Fatal("idle pass reported work")
		}
	}
}

func BenchmarkPollIdle4(b *testing.B)         { benchmarkPollIdle(b, 4, 1, nil) }
func BenchmarkPollIdle64(b *testing.B)        { benchmarkPollIdle(b, 64, 64, nil) }
func BenchmarkPollIdle4Metrics(b *testing.B)  { benchmarkPollIdle(b, 4, 1, metrics.NewRegistry()) }
func BenchmarkPollIdle64Metrics(b *testing.B) { benchmarkPollIdle(b, 64, 64, metrics.NewRegistry()) }
