// Package baseline defines the common modeling vocabulary for the
// comparator messaging systems of the paper's Related Work section: NX,
// Paragon Active Messages (PAM), and SUNMOS.
//
// We do not have the authors' Paragon or the comparators' sources, so
// each comparator is a *protocol-structure model* (see DESIGN.md §2):
// its message path is walked phase by phase (traps, handshakes,
// fragments, wire serialization) with per-phase constants calibrated
// against the latencies the paper reports for 120-byte messages —
// NX 46 µs, PAM 26 µs, SUNMOS 28 µs — and the published bandwidths
// (NX > 140 MB/s, SUNMOS → 160 MB/s on large messages). Everything
// else (curve shapes, crossovers against FLIPC) then follows from the
// protocol structure rather than from hardcoded outputs.
package baseline

import (
	"fmt"

	"flipc/internal/sim"
)

// System is one comparator messaging system.
type System interface {
	// Name identifies the system in tables.
	Name() string
	// OneWayLatency models the one-way latency of an appBytes-byte
	// application message between two user processes on neighbouring
	// nodes.
	OneWayLatency(appBytes int) sim.Time
	// BulkTransferTime models the time to move totalBytes of bulk data
	// using the system's preferred large-transfer path.
	BulkTransferTime(totalBytes int) sim.Time
}

// Wire is the shared Paragon-mesh link model the comparators ride on:
// a fixed routing cost plus serialization at the system's achievable
// per-byte rate (software rarely reaches the 200 MB/s hardware peak).
type Wire struct {
	// NSPerByte is the serialization cost (6.25 ns/B = 160 MB/s, the
	// best any Paragon software achieves; NX manages ~7.14 ns/B).
	NSPerByte float64
	// Fixed is the per-packet routing/DMA setup cost.
	Fixed sim.Time
}

// Time returns the wire time for one packet of n bytes.
func (w Wire) Time(n int) sim.Time {
	return w.Fixed + sim.Time(float64(max(n, 0))*w.NSPerByte)
}

// MBPerSecond converts (bytes, elapsed) into MB/s (1 MB = 1e6 bytes,
// the convention the paper's "150 MB/s" figures use).
func MBPerSecond(bytes int, elapsed sim.Time) float64 {
	if elapsed <= 0 {
		return 0
	}
	return float64(bytes) / 1e6 / (float64(elapsed) / 1e9)
}

// CheckCalibration verifies a model hits its published anchor within
// tol µs; models call it in tests so recalibration mistakes surface.
func CheckCalibration(name string, got sim.Time, wantMicros, tolMicros float64) error {
	diff := got.Micros() - wantMicros
	if diff < 0 {
		diff = -diff
	}
	if diff > tolMicros {
		return fmt.Errorf("baseline %s: modeled %.2fµs, published %.2fµs (tolerance %.2f)",
			name, got.Micros(), wantMicros, tolMicros)
	}
	return nil
}
