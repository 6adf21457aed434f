package nameservice

import (
	"fmt"
	"sort"
	"strings"

	"flipc/internal/wire"
)

// Wildcard topic subscriptions: the edge plane's answer to fan-in at
// gateway scale. A gateway terminating thousands of clients cannot hold
// one exact registry subscription per (client, topic) pair — the
// subscriber sets and the renewal traffic would grow with the client
// population, not the topic population. Instead the gateway subscribes
// a handful of shared per-class endpoints to *patterns*, and the
// registry merges pattern matches into every topic snapshot it serves,
// so publishers fan out to pattern subscribers exactly as they do to
// exact ones.
//
// Pattern grammar (dot-separated segments, like topic names):
//
//   - a literal segment matches itself;
//   - "*" matches exactly one segment ("metrics.*" matches
//     "metrics.cpu" but not "metrics.cpu.user" or "metrics");
//   - "**", allowed only as the final segment, matches one or more
//     trailing segments ("metrics.**" matches both of the above).
//
// A pattern with no wildcard segments is legal and matches only the
// identical topic name.
//
// Pattern subscriptions are lease-renewed soft state: they are swept by
// the same epoch/TTL discipline as exact subscriptions, but they are
// NOT journaled to the durable registry store and NOT replicated to
// standbys. The owner of a pattern subscription (a gateway) re-asserts
// it on every renewal tick, so after a registry failover the pattern
// plane reconverges within one lease interval — the same window in
// which exact leases are re-validated (RestampLeases). This keeps the
// WAL record codec and the replication stream untouched by the edge
// plane: a mixed-version cluster where only some nodes know about
// patterns stays safe, because pattern state never crosses a
// store or stream boundary.

// MaxPatternLen bounds a pattern name, matching the topic-name bound of
// the remote protocol.
const MaxPatternLen = 200

// ValidPattern reports whether pat is a well-formed subscription
// pattern: non-empty, within MaxPatternLen, not in the reserved "!"
// namespace, no empty segments, "*" and "**" only as whole segments,
// and "**" only at the end.
func ValidPattern(pat string) error {
	if pat == "" {
		return fmt.Errorf("nameservice: empty pattern")
	}
	if len(pat) > MaxPatternLen {
		return fmt.Errorf("nameservice: pattern longer than %d bytes", MaxPatternLen)
	}
	if pat[0] == '!' {
		return fmt.Errorf("nameservice: pattern in reserved namespace %q", pat)
	}
	segs := strings.Split(pat, ".")
	for i, s := range segs {
		switch {
		case s == "":
			return fmt.Errorf("nameservice: pattern %q has an empty segment", pat)
		case s == "**" && i != len(segs)-1:
			return fmt.Errorf("nameservice: pattern %q uses ** before the final segment", pat)
		case s != "*" && s != "**" && strings.ContainsRune(s, '*'):
			return fmt.Errorf("nameservice: pattern %q mixes a wildcard into a literal segment", pat)
		}
	}
	return nil
}

// ValidTopicName refuses topic names that would collide with the
// pattern grammar: a concrete topic may not contain a "*" segment.
func ValidTopicName(topic string) error {
	if strings.ContainsRune(topic, '*') {
		return fmt.Errorf("nameservice: topic name %q contains a wildcard (patterns subscribe, they are not published)", topic)
	}
	return nil
}

// MatchesPattern reports whether topic matches pat under the pattern
// grammar — the reference predicate the trie index must agree with
// (the fuzz harness checks them against each other).
func MatchesPattern(pat, topic string) bool {
	if topic == "" {
		return false
	}
	ps := strings.Split(pat, ".")
	ts := strings.Split(topic, ".")
	for i, p := range ps {
		if p == "**" {
			// Final segment by validation: matches one or more remaining.
			return len(ts) > i
		}
		if i >= len(ts) {
			return false
		}
		if p != "*" && p != ts[i] {
			return false
		}
	}
	return len(ps) == len(ts)
}

// patNode is one segment level of the pattern trie. Literal children
// are keyed by segment; the two wildcard kinds get dedicated slots so
// matching never confuses a literal "*" (invalid anyway) with the
// wildcard.
type patNode struct {
	children map[string]*patNode
	star     *patNode // "*"  — exactly one segment
	dstar    keySet   // "**" — one or more segments (terminal by construction)
	keys     keySet   // subscribers whose pattern ends here
}

// keySet is a set of subscriber keys that a match ranges over as a
// slice; pos, which only add and remove touch, keeps both O(1).
type keySet struct {
	list []uint64
	pos  map[uint64]int // key -> index in list
}

func (s *keySet) add(key uint64) bool {
	if _, ok := s.pos[key]; ok {
		return false
	}
	if s.pos == nil {
		s.pos = make(map[uint64]int)
	}
	s.pos[key] = len(s.list)
	s.list = append(s.list, key)
	return true
}

// remove swaps the last key into key's place.
func (s *keySet) remove(key uint64) bool {
	i, ok := s.pos[key]
	if !ok {
		return false
	}
	last := s.list[len(s.list)-1]
	s.list[i], s.pos[last] = last, i
	s.list = s.list[:len(s.list)-1]
	delete(s.pos, key)
	return true
}

// PatternIndex is a prefix-tree index from subscription patterns to
// opaque subscriber keys. It is not itself concurrency-safe: the
// TopicRegistry (and the gateway's client index) guard it with their
// own locks.
type PatternIndex struct {
	root patNode
	n    int // live (pattern, key) pairs
}

// NewPatternIndex creates an empty index.
func NewPatternIndex() *PatternIndex { return &PatternIndex{} }

// Len returns the number of live (pattern, key) pairs.
func (x *PatternIndex) Len() int { return x.n }

// Add subscribes key to pat, reporting whether the pair is new. The
// pattern must already be validated (ValidPattern).
func (x *PatternIndex) Add(pat string, key uint64) bool {
	n := &x.root
	for _, s := range strings.Split(pat, ".") {
		switch s {
		case "**":
			return x.count(n.dstar.add(key), 1)
		case "*":
			if n.star == nil {
				n.star = &patNode{}
			}
			n = n.star
			continue
		}
		if n.children == nil {
			n.children = make(map[string]*patNode)
		}
		c := n.children[s]
		if c == nil {
			c = &patNode{}
			n.children[s] = c
		}
		n = c
	}
	return x.count(n.keys.add(key), 1)
}

// count moves the pair count by d when changed, and returns changed.
func (x *PatternIndex) count(changed bool, d int) bool {
	if changed {
		x.n += d
	}
	return changed
}

// Remove drops key's subscription to pat, reporting whether it
// existed. Emptied trie nodes are pruned so churn does not leak.
func (x *PatternIndex) Remove(pat string, key uint64) bool {
	segs := strings.Split(pat, ".")
	return x.remove(&x.root, segs, key)
}

func (x *PatternIndex) remove(n *patNode, segs []string, key uint64) bool {
	if len(segs) == 0 {
		return x.count(n.keys.remove(key), -1)
	}
	s := segs[0]
	if s == "**" {
		return x.count(n.dstar.remove(key), -1)
	}
	var c *patNode
	if s == "*" {
		c = n.star
	} else {
		c = n.children[s]
	}
	if c == nil {
		return false
	}
	if !x.remove(c, segs[1:], key) {
		return false
	}
	if len(c.keys.list) == 0 && len(c.children) == 0 && c.star == nil && len(c.dstar.list) == 0 {
		if s == "*" {
			n.star = nil
		} else {
			delete(n.children, s)
			if len(n.children) == 0 {
				n.children = nil
			}
		}
	}
	return true
}

// Match visits the key of every pattern that topic matches. A key
// subscribed through several matching patterns is visited once per
// pattern; callers that need a set dedupe (the registry into a map,
// the gateway into its target list).
func (x *PatternIndex) Match(topic string, visit func(key uint64)) {
	if topic != "" {
		matchNode(&x.root, topic, visit)
	}
}

// MatchBytes is Match over a topic name still in a frame buffer: the
// gateway matches straight out of the communication buffer. Out of
// line: inlined into another package, the call into the generic walk
// loses its escape facts and the caller's visit closure moves to the
// heap on every match.
//
//go:noinline
func (x *PatternIndex) MatchBytes(topic []byte, visit func(key uint64)) {
	if len(topic) != 0 {
		matchNode(&x.root, topic, visit)
	}
}

// matchNode matches rest — one or more "."-separated segments, cut as
// the walk descends so a match allocates nothing, whichever form the
// name is in — below n.
func matchNode[T string | []byte](n *patNode, rest T, visit func(uint64)) {
	// "**" at this level swallows the whole remaining suffix (≥1 segs).
	for _, k := range n.dstar.list {
		visit(k)
	}
	seg, tail, more := rest, rest[len(rest):], false
	for i := 0; i < len(rest); i++ {
		if rest[i] == '.' {
			seg, tail, more = rest[:i], rest[i+1:], true
			break
		}
	}
	for _, c := range [2]*patNode{n.children[string(seg)], n.star} {
		if c == nil {
			continue
		}
		if more {
			matchNode(c, tail, visit)
			continue
		}
		for _, k := range c.keys.list {
			visit(k)
		}
	}
}

// Patterns returns every pattern with at least one subscriber, sorted —
// a diagnostics view (flipcstat, tests), not a hot path.
func (x *PatternIndex) Patterns() []string {
	var out []string
	var walk func(n *patNode, prefix []string)
	walk = func(n *patNode, prefix []string) {
		if len(n.keys.list) > 0 {
			out = append(out, strings.Join(prefix, "."))
		}
		if len(n.dstar.list) > 0 {
			out = append(out, strings.Join(append(append([]string{}, prefix...), "**"), "."))
		}
		for s, c := range n.children {
			walk(c, append(prefix, s))
		}
		if n.star != nil {
			walk(n.star, append(prefix, "*"))
		}
	}
	walk(&x.root, nil)
	sort.Strings(out)
	return out
}

// --- TopicRegistry pattern plane -----------------------------------

// patKey identifies one (pattern, subscriber) lease.
type patKey struct {
	pat  string
	addr wire.Addr
}

// SubscribePattern adds (or renews) addr's subscription to every topic
// matching pat. Like exact subscriptions, renewals refresh the lease
// without moving the pattern generation; a new pair bumps it, which
// bumps the effective generation of EVERY topic snapshot, so cached
// fanout plans notice new pattern subscribers on their next probe.
func (r *TopicRegistry) SubscribePattern(pat string, addr wire.Addr) error {
	if err := ValidPattern(pat); err != nil {
		return err
	}
	if !addr.Valid() {
		return fmt.Errorf("nameservice: pattern subscribe %q with invalid address", pat)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.pats.Add(pat, uint64(addr)) {
		r.patGen++
	}
	r.patMeta[patKey{pat, addr}] = r.epoch
	return nil
}

// UnsubscribePattern removes addr's subscription to pat (idempotent).
func (r *TopicRegistry) UnsubscribePattern(pat string, addr wire.Addr) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.pats.Remove(pat, uint64(addr)) {
		r.patGen++
		delete(r.patMeta, patKey{pat, addr})
	}
}

// PatternCount returns the number of live (pattern, subscriber) pairs.
func (r *TopicRegistry) PatternCount() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.pats.Len()
}

// Patterns returns the live patterns, sorted (diagnostics).
func (r *TopicRegistry) Patterns() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.pats.Patterns()
}

// patternSubsLocked collects the pattern subscribers matching topic
// that are not already exact subscribers, address-sorted. Caller holds
// r.mu.
func (r *TopicRegistry) patternSubsLocked(topic string, exact map[wire.Addr]uint64) []Subscription {
	if r.pats.Len() == 0 {
		return nil
	}
	seen := make(map[wire.Addr]struct{})
	r.pats.Match(topic, func(key uint64) {
		a := wire.Addr(uint32(key))
		if exact != nil {
			if _, dup := exact[a]; dup {
				return
			}
		}
		seen[a] = struct{}{}
	})
	if len(seen) == 0 {
		return nil
	}
	out := make([]Subscription, 0, len(seen))
	for a := range seen {
		out = append(out, Subscription{Addr: a})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Addr < out[j].Addr })
	return out
}

// sweepPatternsLocked ages out pattern leases not renewed within TTL
// epochs, returning how many expired. Caller holds r.mu (Advance).
func (r *TopicRegistry) sweepPatternsLocked() int {
	expired := 0
	for k, e := range r.patMeta {
		if r.epoch-e > r.ttl {
			if r.pats.Remove(k.pat, uint64(k.addr)) {
				r.patGen++
			}
			delete(r.patMeta, k)
			expired++
		}
	}
	return expired
}

// evictPatternEndpointLocked removes every pattern lease held by the
// given node/index (quarantine integration). Caller holds r.mu.
func (r *TopicRegistry) evictPatternEndpointLocked(node wire.NodeID, index uint16) int {
	evicted := 0
	for k := range r.patMeta {
		if k.addr.Node() == node && k.addr.Index() == index {
			if r.pats.Remove(k.pat, uint64(k.addr)) {
				r.patGen++
			}
			delete(r.patMeta, k)
			evicted++
		}
	}
	return evicted
}

// --- Presence leases ------------------------------------------------

// presenceRec is one client's presence record, keyed by the client's
// identity: which gateway currently terminates it, and the gateway's
// control-class endpoint. Presence is leased soft state exactly like
// pattern subscriptions: the terminating gateway re-asserts every entry
// on its renewal tick, and a cold-dead gateway's entire client
// population is swept within TTL epochs — nothing to fail over,
// nothing in the WAL.
type presenceRec struct {
	gateway string
	addr    wire.Addr
	epoch   uint64 // sweep epoch of the last upsert
}

// MaxPresenceName bounds presence keys and gateway names.
const MaxPresenceName = 200

// UpsertPresence records (or renews) client key's presence at gateway
// gw, reachable through addr. Presence never moves topic generations —
// it is routing metadata, not fanout membership.
func (r *TopicRegistry) UpsertPresence(key, gw string, addr wire.Addr) error {
	if key == "" || len(key) > MaxPresenceName || key[0] == '!' {
		return fmt.Errorf("nameservice: bad presence key %q", key)
	}
	if gw == "" || len(gw) > MaxPresenceName {
		return fmt.Errorf("nameservice: bad gateway name %q", gw)
	}
	if !addr.Valid() {
		return fmt.Errorf("nameservice: presence %q with invalid address", key)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.presence[key] = presenceRec{gateway: gw, addr: addr, epoch: r.epoch}
	return nil
}

// DropPresence removes client key's presence record, reporting whether
// one existed (idempotent).
func (r *TopicRegistry) DropPresence(key string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.presence[key]; !ok {
		return false
	}
	delete(r.presence, key)
	return true
}

// PresenceCount returns the number of live presence leases.
func (r *TopicRegistry) PresenceCount() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.presence)
}

// PresenceByGateway returns live lease counts per gateway name.
func (r *TopicRegistry) PresenceByGateway() map[string]int {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]int)
	for _, rec := range r.presence {
		out[rec.gateway]++
	}
	return out
}

// sweepPresenceLocked ages out presence leases not renewed within TTL
// epochs. Caller holds r.mu (Advance).
func (r *TopicRegistry) sweepPresenceLocked() int {
	expired := 0
	for k, rec := range r.presence {
		if r.epoch-rec.epoch > r.ttl {
			delete(r.presence, k)
			expired++
		}
	}
	return expired
}
