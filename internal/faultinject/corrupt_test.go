package faultinject

import (
	"fmt"
	"math/rand"

	"flipc/internal/commbuf"
	"flipc/internal/mem"
)

// Corruptor models a buggy or hostile application scribbling on its
// own communication buffer: every write goes through a legitimate
// application-actor view, exactly the access a real misbehaving
// process has. Each method triggers one category of the engine's
// fault taxonomy, so chaos tests can provoke — and then assert — a
// specific quarantine.
//
// Like the Injector, a Corruptor is deterministic: all randomness
// comes from the seed it was built with.
type Corruptor struct {
	buf *commbuf.Buffer
	app mem.View
	rng *rand.Rand
}

// NewCorruptor builds a corruptor for one communication buffer.
func NewCorruptor(buf *commbuf.Buffer, seed int64) *Corruptor {
	return &Corruptor{
		buf: buf,
		app: buf.View(mem.ActorApp),
		rng: rand.New(rand.NewSource(seed)),
	}
}

// WildBufID releases an out-of-range buffer id into an endpoint's
// queue — the engine must quarantine with FaultBadBufID. Reports false
// when the queue is full.
func (c *Corruptor) WildBufID(ep *commbuf.Endpoint) bool {
	wild := uint64(c.buf.NumBuffers()) + uint64(c.rng.Intn(1<<16))
	return ep.Queue().Release(c.app, wild)
}

// UnownedBuffer releases a freshly allocated, never-staged buffer into
// an endpoint's queue (state Owned, not Queued) — the engine must
// quarantine with FaultBadBufState.
func (c *Corruptor) UnownedBuffer(ep *commbuf.Endpoint) error {
	m, err := c.buf.AllocMsg()
	if err != nil {
		return err
	}
	if !ep.Queue().Release(c.app, uint64(m.ID())) {
		return fmt.Errorf("faultinject: queue full")
	}
	return nil
}

// ScribbleRelease stores a wild value over an endpoint queue's release
// pointer — the engine must quarantine with FaultQueueInvariant the
// next time the queue claims processable work.
func (c *Corruptor) ScribbleRelease(ep *commbuf.Endpoint) {
	_, release := ep.Queue().ProcessWords()
	// Far beyond process+capacity: the backlog check fails when the
	// engine next loads the two pointers.
	c.app.Store(release, uint64(1)<<40|uint64(c.rng.Intn(1<<20)))
}

// ForgeDescriptor overwrites an endpoint descriptor slot's config word
// with an active-but-insane value — the engine must quarantine with
// FaultBadDescriptor when it next scans the slot.
func (c *Corruptor) ForgeDescriptor(slot int) error {
	off, ok := c.buf.EndpointCfgOffset(slot)
	if !ok {
		return fmt.Errorf("faultinject: endpoint slot %d out of range", slot)
	}
	c.app.Store(off, commbuf.ForgedCfgWord())
	return nil
}

// ScribbleQueueBase overwrites a descriptor's queue-base word with an
// offset outside the arena — the engine must quarantine with
// FaultBadDescriptor on its next rebuild of the slot (the config word
// is also touched so the engine's change detection notices).
func (c *Corruptor) ScribbleQueueBase(slot int) error {
	off, ok := c.buf.EndpointCfgOffset(slot)
	if !ok {
		return fmt.Errorf("faultinject: endpoint slot %d out of range", slot)
	}
	c.app.Store(off+1, uint64(1)<<40)
	// Rewriting the config word with itself does not change it; flip a
	// harmless bit (priority, bits 55:48) so the engine re-opens the
	// descriptor.
	c.app.Store(off, c.app.Load(off)^(1<<48))
	return nil
}
