package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"sort"
	"strings"
	"time"

	"flipc/internal/duralog"
	"flipc/internal/gateway"
	"flipc/internal/nettrans"
	"flipc/internal/obs"
	"flipc/internal/registrystore"
)

// watchDoc is the /metrics?format=json document as the table reads it:
// the instruments, plus the health sources a node registers, each
// decoded into its own layer's type. A source the node does not run is
// absent, and its section is not drawn.
type watchDoc struct {
	obs.MetricsJSON
	Peers    []nettrans.PeerHealth       `json:"peers"`
	Registry *registrystore.Health       `json:"registry"`
	Shards   []registrystore.ShardHealth `json:"shards"`
	Durable  []duralog.TopicHealth       `json:"durable"`
	Gateway  *gateway.Health             `json:"gateway"`
}

// watchLoop polls a flipcd observability endpoint and renders a
// refreshing table: counter deltas per interval, latency histogram
// quantiles, and per-peer health. It is the live companion to the
// one-shot reports — point it at the -http address of any flipcd.
func watchLoop(url string, interval time.Duration, count int) {
	url = strings.TrimSuffix(url, "/")
	if !strings.HasPrefix(url, "http://") && !strings.HasPrefix(url, "https://") {
		url = "http://" + url
	}
	client := &http.Client{Timeout: interval}
	var prev *watchDoc
	prevAt := time.Now()
	for i := 0; count <= 0 || i < count; i++ {
		if i > 0 {
			time.Sleep(interval)
		}
		doc, err := fetchMetrics(client, url+"/metrics?format=json")
		if err != nil {
			fmt.Fprintf(os.Stderr, "flipcstat: %v\n", err)
			continue
		}
		now := time.Now()
		render(doc, prev, now.Sub(prevAt), url)
		prev, prevAt = doc, now
	}
}

func fetchMetrics(client *http.Client, url string) (*watchDoc, error) {
	resp, err := client.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	var doc watchDoc
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		return nil, fmt.Errorf("decode %s: %w", url, err)
	}
	return &doc, nil
}

// render clears the screen and prints one refresh of the live table.
func render(doc, prev *watchDoc, dt time.Duration, url string) {
	fmt.Print("\033[H\033[2J") // home + clear
	fmt.Printf("flipcstat -watch %s  (%s)\n", url, time.Now().Format("15:04:05"))

	// Registry durability/failover line (registry nodes only): role and
	// generation move on failover; WAL lag is records since the last
	// compaction, snapshot lag the sequence distance the snapshot is
	// behind the log. A store error means mutations are no longer
	// durable — shout it.
	if r := doc.Registry; r != nil {
		fmt.Printf("registry: role=%s gen=%d seq=%d wal-lag=%d snap-lag=%d epoch=%d promotions=%d demotions=%d",
			r.Role, r.RegistryGen, r.Seq, r.WALRecords, r.Seq-r.SnapshotSeq, r.Epoch, r.Promotions, r.Demotions)
		if r.StoreErr != "" {
			fmt.Printf("  STORE ERROR: %s", r.StoreErr)
		}
		fmt.Println()
	}

	// Per-shard registry roll-up (sharded registry nodes only): one row
	// per shard in the map — role and generation as probed from the
	// shard's address hint, with unreachable or primary-less shards
	// shouted (those also flip /healthz to 503).
	if len(doc.Shards) > 0 {
		fmt.Printf("\n%-7s %-9s %12s %12s  %s\n",
			"shard", "role", "gen", "seq", "status")
		for _, sh := range doc.Shards {
			status := "ok"
			switch {
			case sh.Err != "":
				status = "PROBE FAILED: " + sh.Err
			case !sh.Probed:
				status = "unprobed (no addr hint)"
			case !sh.Primary:
				status = "NO LIVE PRIMARY"
			}
			fmt.Printf("%-7d %-9s %12d %12d  %s\n",
				sh.Shard, sh.Role, sh.Gen, sh.Seq, status)
		}
	}

	// Durable topic logs (nodes hosting them only): depth is retained
	// payload frames, max-lag the head distance of the slowest cursor —
	// the two numbers that say whether replay debt is accumulating. A
	// breach means retention already passed the slowest cursor: its
	// resume will start late with a counted gap.
	if len(doc.Durable) > 0 {
		fmt.Printf("\n%-24s %10s %10s %9s %10s  %s\n",
			"durable topic", "head", "depth", "segments", "max-lag", "slowest cursor")
		for _, t := range doc.Durable {
			fmt.Printf("%-24s %10d %10d %9d %10d  %s",
				t.Topic, t.Head, t.Depth, t.Segments, t.MaxLag, t.LaggingSub)
			if t.Breached {
				fmt.Print("  RETENTION BREACHED")
			}
			if t.Err != "" {
				fmt.Printf("  LOG ERROR: %s", t.Err)
			}
			fmt.Println()
		}
	}
	// Gateway edge plane (flipcgw only): the connection population and
	// its leases, then one row per priority class — summed client queue
	// depth, frames lost at the shared class inbox, and the saturation
	// flag (the same condition that degrades /healthz to 503).
	if g := doc.Gateway; g != nil {
		fmt.Printf("\ngateway %s: conns=%d presence-leases=%d patterns=%d throttled-clients=%d renew-errors=%d\n",
			g.Name, g.Conns, g.Presence, g.Patterns, g.Throttled, g.RenewErrs)
		fmt.Printf("%-10s %12s %12s  %s\n", "class", "queue-depth", "inbox-drops", "status")
		for _, pc := range g.PerClass {
			status := "ok"
			if pc.Saturated {
				status = "SATURATED (inbox dropping)"
			}
			fmt.Printf("%-10s %12d %12d  %s\n", pc.Class, pc.QueueDepth, pc.InboxDrops, status)
		}
	}
	fmt.Println()

	// Counters: absolute value plus delta rate since the last sample.
	// Transport counters are exposed as funcs (gauges); fold the
	// *_total gauges in with the true counters so deltas work for both.
	type row struct {
		name  string
		value float64
	}
	var rows []row
	for name, v := range doc.Counters {
		rows = append(rows, row{name, float64(v)})
	}
	for name, v := range doc.Gauges {
		if strings.Contains(baseOf(name), "_total") {
			rows = append(rows, row{name, v})
		}
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].name < rows[j].name })
	fmt.Printf("%-52s %14s %12s\n", "counter", "value", "per-sec")
	for _, r := range rows {
		rate := ""
		if prev != nil && dt > 0 {
			p, ok := prev.Counters[r.name]
			pv := float64(p)
			if !ok {
				pv, ok = prev.Gauges[r.name]
			}
			if ok {
				rate = fmt.Sprintf("%.1f", (r.value-pv)/dt.Seconds())
			}
		}
		fmt.Printf("%-52s %14.0f %12s\n", r.name, r.value, rate)
	}

	// Histograms: quantiles in microseconds for latency/duration
	// instruments (the registry records nanoseconds).
	var hnames []string
	for name := range doc.Histograms {
		hnames = append(hnames, name)
	}
	sort.Strings(hnames)
	if len(hnames) > 0 {
		fmt.Printf("\n%-52s %10s %10s %10s %10s %10s\n",
			"histogram", "count", "p50", "p90", "p99", "max")
		for _, name := range hnames {
			h := doc.Histograms[name]
			if strings.HasSuffix(baseOf(name), "_ns") {
				fmt.Printf("%-52s %10d %9.1fµ %9.1fµ %9.1fµ %9.1fµ\n",
					name, h.Count, h.P50/1e3, h.P90/1e3, h.P99/1e3, float64(h.Max)/1e3)
			} else {
				fmt.Printf("%-52s %10d %10.1f %10.1f %10.1f %10d\n",
					name, h.Count, h.P50, h.P90, h.P99, h.Max)
			}
		}
	}

	if len(doc.Peers) > 0 {
		fmt.Printf("\n%-6s %-13s %10s %10s %10s %12s\n",
			"peer", "state", "sent", "refused", "reconnects", "meanOutage")
		for _, p := range doc.Peers {
			fmt.Printf("%-6d %-13s %10d %10d %10d %10.1fms\n",
				p.Node, p.State, p.Sent, p.SendFailures, p.Reconnects, p.MeanOutageMs)
		}
	}
}

// baseOf strips a label set from an instrument name.
func baseOf(name string) string {
	if i := strings.IndexByte(name, '{'); i >= 0 {
		return name[:i]
	}
	return name
}
