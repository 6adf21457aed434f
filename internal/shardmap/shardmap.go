// Package shardmap is the consistent-hash shard map that partitions
// the topic namespace across N independent registry shards. The map is
// deliberately tiny — a handful of entries, a virtual-node ring, and an
// epoch — and it is configuration: every registry node is started with
// the same spec, so no node ever has to learn a change from another.
//
// Routing is a pure function of the map: ShardOf hashes the topic name
// onto a 64-bit ring of virtual points (Weight points per shard) and
// picks the successor shard. Reserved per-shard replication streams
// ("!registry/<n>") route to their own shard by construction, not by
// hash — the stream for shard n must live on shard n, whatever the
// ring says.
//
// A Map is immutable once built (ParseSpec, or Restore from a remote
// shard-map fetch), so it is read concurrently without a lock; a new
// map is a new value.
package shardmap

import (
	"encoding/binary"
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// DefaultWeight is the virtual-node count of an entry with Weight 0.
// 64 points per shard keeps the largest/smallest ownership arc within
// ~2x at small N, which is as balanced as a topic namespace hashed by
// name can use.
const DefaultWeight = 64

// reservedStreamPrefix mirrors registrystore.ShardReplicationTopic:
// "!registry/<n>" is shard n's own replication stream and must route
// to shard n regardless of the ring.
const reservedStreamPrefix = "!registry/"

// Entry is one registry shard in the map. Addr is an optional endpoint
// hint (a wire.Addr as uint32; 0 = none) naming the shard's current
// primary registry server — the roll-up prober and client bootstrap
// use it, routing does not.
type Entry struct {
	ID     uint32
	Weight uint16
	Addr   uint32
}

type point struct {
	hash uint64
	id   uint32
}

// Map is a consistent-hash shard map: entries sorted by ID, virtual
// points sorted by hash, and an epoch that names the map version (a
// paged shard-map fetch that sees it change starts over).
type Map struct {
	epoch   uint64
	entries []Entry
	ring    []point
}

// Restore builds a map from an epoch and entry set (a remote shard-map
// fetch, or ParseSpec): it sorts the entries, applies the default
// weight, and builds the ring.
func Restore(epoch uint64, entries []Entry) *Map {
	m := &Map{epoch: epoch, entries: append([]Entry(nil), entries...)}
	sort.Slice(m.entries, func(i, j int) bool { return m.entries[i].ID < m.entries[j].ID })
	for i := range m.entries {
		if m.entries[i].Weight == 0 {
			m.entries[i].Weight = DefaultWeight
		}
		e := m.entries[i]
		var key [12]byte
		binary.BigEndian.PutUint32(key[0:4], e.ID)
		for v := 0; v < int(e.Weight); v++ {
			binary.BigEndian.PutUint64(key[4:12], uint64(v))
			m.ring = append(m.ring, point{hash: fnv64(key[:]), id: e.ID})
		}
	}
	sort.Slice(m.ring, func(i, j int) bool {
		if m.ring[i].hash != m.ring[j].hash {
			return m.ring[i].hash < m.ring[j].hash
		}
		return m.ring[i].id < m.ring[j].id // deterministic on (vanishingly rare) collisions
	})
	return m
}

// Epoch returns the map epoch, carried by the shard-map remote op.
func (m *Map) Epoch() uint64 { return m.epoch }

// Len returns the number of shards.
func (m *Map) Len() int { return len(m.entries) }

// Entries returns the shard entries, sorted by ID. The slice is a
// copy.
func (m *Map) Entries() []Entry { return append([]Entry(nil), m.entries...) }

// Entry returns the entry for shard id.
func (m *Map) Entry(id uint32) (Entry, bool) {
	i := sort.Search(len(m.entries), func(i int) bool { return m.entries[i].ID >= id })
	if i < len(m.entries) && m.entries[i].ID == id {
		return m.entries[i], true
	}
	return Entry{}, false
}

// ShardOf routes a topic name to its owning shard. Reserved per-shard
// replication streams ("!registry/<n>") route to shard n when it is
// mapped. Returns false only for an empty map.
func (m *Map) ShardOf(name string) (uint32, bool) {
	if len(m.ring) == 0 {
		return 0, false
	}
	if rest, ok := strings.CutPrefix(name, reservedStreamPrefix); ok {
		if id, err := strconv.ParseUint(rest, 10, 32); err == nil {
			if _, mapped := m.Entry(uint32(id)); mapped {
				return uint32(id), true
			}
		}
	}
	h := fnv64([]byte(name))
	i := sort.Search(len(m.ring), func(i int) bool { return m.ring[i].hash >= h })
	if i == len(m.ring) {
		i = 0 // wrap: successor of the highest point is the lowest
	}
	return m.ring[i].id, true
}

// ParseSpec builds a map from a flag-friendly spec: comma-separated
// shard elements "id", "id@hexaddr", or "id@hexaddr*weight" (the addr
// is an endpoint hint as flipcd prints them, with or without 0x). The
// map's epoch is the element count.
func ParseSpec(spec string) (*Map, error) {
	var entries []Entry
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		var e Entry
		if i := strings.IndexByte(part, '*'); i >= 0 {
			w, err := strconv.ParseUint(part[i+1:], 10, 16)
			if err != nil {
				return nil, fmt.Errorf("shardmap: bad weight in %q: %w", part, err)
			}
			e.Weight = uint16(w)
			part = part[:i]
		}
		if i := strings.IndexByte(part, '@'); i >= 0 {
			hex := strings.TrimPrefix(strings.TrimPrefix(part[i+1:], "0x"), "0X")
			a, err := strconv.ParseUint(hex, 16, 32)
			if err != nil {
				return nil, fmt.Errorf("shardmap: bad addr in %q: %w", part, err)
			}
			e.Addr = uint32(a)
			part = part[:i]
		}
		id, err := strconv.ParseUint(part, 10, 32)
		if err != nil {
			return nil, fmt.Errorf("shardmap: bad shard id in %q: %w", part, err)
		}
		e.ID = uint32(id)
		for _, prev := range entries {
			if prev.ID == e.ID {
				return nil, fmt.Errorf("shardmap: shard %d already mapped", e.ID)
			}
		}
		entries = append(entries, e)
	}
	if len(entries) == 0 {
		return nil, fmt.Errorf("shardmap: empty spec %q", spec)
	}
	return Restore(uint64(len(entries)), entries), nil
}

// fnv64 is FNV-1a with an avalanche finalizer, the routing hash: fast,
// allocation-free, and stable across versions (a node hashing
// differently would route names to other shards than its peers do, so
// this function can never change without a fleet-wide reconfiguration).
// The finalizer matters: raw FNV-1a mixes the final differing byte
// through a single multiply, which clusters the near-identical vnode
// keys badly enough to unbalance the ring.
func fnv64(b []byte) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for _, c := range b {
		h ^= uint64(c)
		h *= prime
	}
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}
