package engine

import (
	"testing"

	"flipc/internal/commbuf"
	"flipc/internal/mem"
	"flipc/internal/metrics"
	"flipc/internal/wire"
)

// TestMetricsMirrorNeverLagsStats: with a registry attached the engine
// stores the pass count every pass and the other counters only when one
// of them moved. A pass can move a counter without doing work — a busy
// wire, a forged config word noticed by the sweep — and a scrape after
// that pass must already see it, as must the quarantine gauge and the
// "quarantined" health source.
func TestMetricsMirrorNeverLagsStats(t *testing.T) {
	buf, err := commbuf.New(commbuf.Config{Node: 0, MessageSize: 64, NumBuffers: 16})
	if err != nil {
		t.Fatal(err)
	}
	tr := &flakyTransport{node: 0}
	reg := metrics.NewRegistry()
	eng, err := New(buf, tr, Config{Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	n := &testNode{buf: buf, eng: eng, app: buf.View(mem.ActorApp)}
	counter := func(name string) uint64 { return reg.Counter(name).Value() }
	check := func(when string) {
		t.Helper()
		st := eng.Stats()
		for name, want := range map[string]uint64{
			"flipc_engine_polls_total":       st.Polls,
			"flipc_engine_sent_total":        st.Sent,
			"flipc_engine_wire_busy_total":   st.WireBusy,
			"flipc_engine_quarantines_total": st.Quarantines,
		} {
			if got := counter(name); got != want {
				t.Fatalf("%s: %s = %d, Stats has %d", when, name, got, want)
			}
		}
		if got, want := reg.Gauge("flipc_engine_quarantined").Value(), float64(len(eng.Quarantined())); got != want {
			t.Fatalf("%s: quarantined gauge = %g, %g endpoints quarantined", when, got, want)
		}
		if hs := reg.Statuses(); len(hs) != 1 || hs[0].Name != "quarantined" || hs[0].OK != (len(eng.Quarantined()) == 0) {
			t.Fatalf("%s: health sources %+v, %d endpoints quarantined", when, hs, len(eng.Quarantined()))
		}
	}

	sep, err := buf.AllocEndpoint(commbuf.EndpointSend, 4)
	if err != nil {
		t.Fatal(err)
	}
	dst, _ := wire.MakeAddr(1, 0, 1)
	eng.Poll()
	eng.Poll()
	check("idle passes")

	tr.mode = modeBusy
	send(t, n, sep, dst, "held")
	if eng.Poll() {
		t.Fatal("a refused send counted as work")
	}
	if eng.Stats().WireBusy != 1 {
		t.Fatalf("WireBusy = %d", eng.Stats().WireBusy)
	}
	check("busy pass")

	tr.mode = modeOK
	eng.Poll()
	check("working pass")

	off, _ := buf.EndpointCfgOffset(3)
	n.app.Store(off, commbuf.ForgedCfgWord())
	if eng.Poll() {
		t.Fatal("a quarantine by the sweep counted as work")
	}
	if len(eng.Quarantined()) != 1 {
		t.Fatalf("quarantined = %v", eng.Quarantined())
	}
	check("forged-word pass")
	n.app.Store(off, 0)
	eng.Poll()
	check("recovery pass")
}
