// Package simcluster runs a whole FLIPC cluster in virtual time: real
// domains (library + engine + communication buffer) on the simulated
// Paragon mesh, with each node's messaging engine driven by a
// discrete-event ticker — the closest analogue of the message
// coprocessors' free-running event loops.
//
// Where internal/experiments composes per-message latency analytically
// (for calibration-exact Figure 4 numbers), simcluster measures
// latencies *positionally*: a message's virtual latency is the
// difference between the send event's timestamp and the engine-poll
// event that delivered it. That makes it the right tool for the
// design-choice ablations — engine poll cadence, send-policy priority,
// queue depths under load — where event timing, not calibrated
// constants, is the object of study.
package simcluster

import (
	"fmt"

	"flipc/internal/core"
	"flipc/internal/engine"
	"flipc/internal/faultinject"
	"flipc/internal/interconnect"
	"flipc/internal/sim"
	"flipc/internal/wire"
)

// Config sizes a virtual-time cluster.
type Config struct {
	// Nodes is the cluster size (placed row-major on the mesh).
	Nodes int
	// Mesh is the interconnect model (zero value: defaults).
	Mesh interconnect.MeshConfig
	// MessageSize is the fixed message size for every domain.
	MessageSize int
	// NumBuffers per domain.
	NumBuffers int
	// PollInterval is the engines' event-loop period in virtual time
	// (default 1 µs). The paper's engine is a non-preemptible loop;
	// this is its cadence.
	PollInterval sim.Time
	// Engine configures every node's engine (checks, policy, quanta).
	Engine engine.Config
	// Chaos, when non-nil, wraps every node's transport in a
	// deterministic fault injector (node n is seeded Chaos.Seed+n, so a
	// cluster run is reproducible from one seed). The per-node injectors
	// are exposed as Cluster.Injectors for partition control and fault
	// accounting.
	Chaos *faultinject.Config
}

// Cluster is a virtual-time FLIPC cluster.
type Cluster struct {
	Clock   *sim.Clock
	Mesh    *interconnect.Mesh
	Domains []*core.Domain
	// Injectors holds each node's fault injector when Config.Chaos is
	// set (nil otherwise), indexed by node.
	Injectors []*faultinject.Injector

	cfg     Config
	tickers []*sim.Ticker
}

// New builds the cluster and starts each engine's poll ticker.
func New(cfg Config) (*Cluster, error) {
	if cfg.Nodes < 1 {
		return nil, fmt.Errorf("simcluster: need at least one node")
	}
	if cfg.MessageSize == 0 {
		cfg.MessageSize = wire.MinMessageSize
	}
	if cfg.NumBuffers == 0 {
		cfg.NumBuffers = 32
	}
	if cfg.PollInterval == 0 {
		cfg.PollInterval = sim.Microsecond
	}
	if cfg.Mesh.Width == 0 {
		cfg.Mesh = interconnect.DefaultMeshConfig()
	}
	if cfg.Mesh.Width*cfg.Mesh.Height < cfg.Nodes {
		return nil, fmt.Errorf("simcluster: %d nodes exceed %dx%d mesh",
			cfg.Nodes, cfg.Mesh.Width, cfg.Mesh.Height)
	}
	clock := sim.NewClock()
	mesh, err := interconnect.NewMesh(clock, cfg.Mesh)
	if err != nil {
		return nil, err
	}
	c := &Cluster{Clock: clock, Mesh: mesh, cfg: cfg}
	for n := 0; n < cfg.Nodes; n++ {
		var tr interconnect.Transport
		tr, err = mesh.Attach(wire.NodeID(n))
		if err != nil {
			return nil, err
		}
		if cfg.Chaos != nil {
			ccfg := *cfg.Chaos
			ccfg.Seed += int64(n)
			inj, err := faultinject.Wrap(tr, ccfg)
			if err != nil {
				return nil, err
			}
			c.Injectors = append(c.Injectors, inj)
			tr = inj
		}
		d, err := core.NewDomain(core.Config{
			Node:        wire.NodeID(n),
			MessageSize: cfg.MessageSize,
			NumBuffers:  cfg.NumBuffers,
			Engine:      cfg.Engine,
		}, tr)
		if err != nil {
			return nil, err
		}
		c.Domains = append(c.Domains, d)
		// Each engine polls on its own cadence. Domains are driven only
		// from clock events, so the single-threaded mesh is safe.
		c.tickers = append(c.tickers, clock.NewTicker(cfg.PollInterval, func() { d.Poll() }))
	}
	return c, nil
}

// Close stops the tickers and domains.
func (c *Cluster) Close() {
	for _, t := range c.tickers {
		t.Stop()
	}
	for _, d := range c.Domains {
		d.Close()
	}
}

// Config returns the effective configuration.
func (c *Cluster) Config() Config { return c.cfg }

// Probe is a measured unidirectional channel between two nodes: it
// posts receive buffers, sends stamped messages, and records virtual
// latencies as the clock advances.
type Probe struct {
	c        *Cluster
	src, dst int
	sep      *core.Endpoint
	rep      *core.Endpoint

	inFlight   map[int]sim.Time // message tag -> send time
	nextTag    int
	drainArmed bool
	Latencies  []sim.Time
}

// NewProbe builds a probe from src to dst with the given receive window.
func (c *Cluster) NewProbe(src, dst, window int) (*Probe, error) {
	return c.newProbe(src, dst, window, 0)
}

// NewProbePrio is NewProbe with a send-endpoint transport priority
// (meaningful under engine.PolicyPriority).
func (c *Cluster) NewProbePrio(src, dst, window int, prio uint8) (*Probe, error) {
	return c.newProbe(src, dst, window, prio)
}

func (c *Cluster) newProbe(src, dst, window int, prio uint8) (*Probe, error) {
	if src < 0 || src >= len(c.Domains) || dst < 0 || dst >= len(c.Domains) {
		return nil, fmt.Errorf("simcluster: probe nodes %d->%d out of range", src, dst)
	}
	sep, err := c.Domains[src].NewSendEndpointPrio(0, prio)
	if err != nil {
		return nil, err
	}
	depth := 2
	for depth < window+1 {
		depth *= 2
	}
	rep, err := c.Domains[dst].NewRecvEndpoint(depth)
	if err != nil {
		return nil, err
	}
	p := &Probe{c: c, src: src, dst: dst, sep: sep, rep: rep, inFlight: map[int]sim.Time{}}
	for i := 0; i < window; i++ {
		m, err := c.Domains[dst].AllocBuffer()
		if err != nil {
			return nil, err
		}
		if err := rep.Post(m); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// Endpoint returns the probe's receive endpoint (drops, address).
func (p *Probe) Endpoint() *core.Endpoint { return p.rep }

// SendAt schedules one stamped message at virtual time t.
func (p *Probe) SendAt(t sim.Time, payloadBytes int) {
	tag := p.nextTag
	p.nextTag++
	p.c.Clock.At(t, func() {
		m, err := p.c.Domains[p.src].AllocBuffer()
		if err != nil {
			return // pool exhausted: the drop shows up as a gap
		}
		pl := m.Payload()
		pl[0] = byte(tag >> 8)
		pl[1] = byte(tag)
		n := min(max(payloadBytes, 2), len(pl))
		if err := p.sep.Send(m, p.rep.Addr(), n); err != nil {
			p.c.Domains[p.src].FreeBuffer(m)
			return
		}
		p.inFlight[tag] = t
		// The receiving application polls on the engine cadence while
		// messages are in flight (self-rescheduling, so the event queue
		// drains once everything is delivered). Armed from inside the
		// send event so the poll loop cannot disarm before the message
		// exists.
		p.armDrain()
	})
}

func (p *Probe) armDrain() {
	if p.drainArmed {
		return
	}
	p.drainArmed = true
	interval := p.c.cfg.PollInterval
	var tick func()
	tick = func() {
		p.drain()
		if len(p.inFlight) > 0 {
			p.c.Clock.After(interval, tick)
		} else {
			p.drainArmed = false
		}
	}
	p.c.Clock.After(interval, tick)
}

// drain consumes delivered messages, recording latencies, reclaiming
// send buffers, and reposting receive buffers.
func (p *Probe) drain() {
	for {
		m, ok := p.rep.Receive()
		if !ok {
			break
		}
		tag := int(m.Payload()[0])<<8 | int(m.Payload()[1])
		if sent, ok := p.inFlight[tag]; ok {
			p.Latencies = append(p.Latencies, p.c.Clock.Now()-sent)
			delete(p.inFlight, tag)
		}
		if p.rep.Post(m) != nil {
			p.c.Domains[p.dst].FreeBuffer(m)
		}
	}
	for {
		m, ok := p.sep.Acquire()
		if !ok {
			break
		}
		p.c.Domains[p.src].FreeBuffer(m)
	}
}

// Run advances the cluster until the deadline, then performs a final
// drain.
func (p *Probe) Run(deadline sim.Time) {
	p.c.Clock.RunUntil(deadline)
	p.drain()
}

// MeanLatency returns the mean recorded latency.
func (p *Probe) MeanLatency() sim.Time {
	if len(p.Latencies) == 0 {
		return 0
	}
	var sum sim.Time
	for _, l := range p.Latencies {
		sum += l
	}
	return sum / sim.Time(len(p.Latencies))
}

// Pending returns the number of stamped messages not yet delivered.
func (p *Probe) Pending() int { return len(p.inFlight) }
