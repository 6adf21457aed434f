// Package wire defines FLIPC's on-the-wire message format and opaque
// endpoint addressing.
//
// FLIPC transfers fixed-size messages; the size is selected at boot
// time per domain and must be at least 64 bytes and a multiple of 32
// (the Paragon interconnect DMA constraints, which we keep). Eight
// bytes of every message are reserved for internal addressing and
// synchronization — the message header — leaving MessageSize-8 bytes
// for the application (56 at the minimum size, exactly as in the paper).
//
// Endpoint addresses are opaque to applications: receivers obtain them
// from FLIPC and hand them to senders out of band (e.g. through
// internal/nameservice). The header carries only the destination
// address; FLIPC does not deliver sender identity — applications that
// need a reply address carry it in the payload.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"strconv"
	"strings"
)

// NodeID identifies a node in the cluster.
type NodeID uint16

// Address field widths. An Addr packs node(10) | index(12) | gen(10):
// up to 1024 nodes, 4096 endpoints per node, with a 10-bit generation
// to catch stale addresses after endpoint reuse.
const (
	nodeBits  = 10
	indexBits = 12
	genBits   = 10

	// MaxNodes, MaxEndpoints, MaxGen are the exclusive upper bounds of
	// the corresponding address fields.
	MaxNodes     = 1 << nodeBits
	MaxEndpoints = 1 << indexBits
	MaxGen       = 1 << genBits
)

// Addr is an opaque endpoint address. The zero Addr is never a valid
// endpoint (valid addresses have generation >= 1).
type Addr uint32

// NilAddr is the invalid zero address.
const NilAddr Addr = 0

// MakeAddr packs an address. gen must be in [1, MaxGen).
func MakeAddr(node NodeID, index uint16, gen uint16) (Addr, error) {
	if int(node) >= MaxNodes {
		return NilAddr, fmt.Errorf("wire: node %d out of range (max %d)", node, MaxNodes-1)
	}
	if int(index) >= MaxEndpoints {
		return NilAddr, fmt.Errorf("wire: endpoint index %d out of range (max %d)", index, MaxEndpoints-1)
	}
	if gen == 0 || int(gen) >= MaxGen {
		return NilAddr, fmt.Errorf("wire: generation %d out of range [1,%d]", gen, MaxGen-1)
	}
	return Addr(uint32(node)<<(indexBits+genBits) | uint32(index)<<genBits | uint32(gen)), nil
}

// Node returns the node field.
func (a Addr) Node() NodeID { return NodeID(a >> (indexBits + genBits)) }

// Index returns the endpoint index field.
func (a Addr) Index() uint16 { return uint16(a>>genBits) & (MaxEndpoints - 1) }

// Gen returns the generation field.
func (a Addr) Gen() uint16 { return uint16(a) & (MaxGen - 1) }

// Valid reports whether the address has a non-zero generation.
func (a Addr) Valid() bool { return a.Gen() != 0 }

// String formats the address for logs.
func (a Addr) String() string {
	if !a.Valid() {
		return "addr(nil)"
	}
	return fmt.Sprintf("addr(n%d:e%d:g%d)", a.Node(), a.Index(), a.Gen())
}

// ParseAddr parses an endpoint address written in hex, as the daemons
// print them, with or without a 0x prefix. The nil address (generation
// 0) is rejected.
func ParseAddr(s string) (Addr, error) {
	v, err := strconv.ParseUint(strings.TrimPrefix(strings.TrimPrefix(s, "0x"), "0X"), 16, 32)
	if err != nil {
		return NilAddr, fmt.Errorf("wire: bad endpoint address %q: %w", s, err)
	}
	if a := Addr(v); a.Valid() {
		return a, nil
	}
	return NilAddr, fmt.Errorf("wire: invalid endpoint address %q", s)
}

// Message size constraints (Paragon DMA requirements, kept verbatim).
const (
	// MinMessageSize is the smallest legal fixed message size.
	MinMessageSize = 64
	// MessageSizeMultiple is the required size granularity.
	MessageSizeMultiple = 32
	// HeaderBytes is the per-message overhead FLIPC reserves for
	// internal addressing and synchronization.
	HeaderBytes = 8
)

// CheckMessageSize validates a boot-time fixed message size.
func CheckMessageSize(size int) error {
	if size < MinMessageSize {
		return fmt.Errorf("wire: message size %d below minimum %d", size, MinMessageSize)
	}
	if size%MessageSizeMultiple != 0 {
		return fmt.Errorf("wire: message size %d not a multiple of %d", size, MessageSizeMultiple)
	}
	return nil
}

// MaxPayload returns the application payload capacity for a fixed
// message size.
func MaxPayload(messageSize int) int { return messageSize - HeaderBytes }

// Flags carried in the message header. PriorityMask supports the
// paper's future-work extension of prioritized inter-node transport.
// FlagStamped and FlagChecksummed are transport-internal: they mark a
// frame carrying a timestamp trailer or a CRC32C trailer and are never
// delivered to applications (Encode masks them from application flags;
// Decode strips them).
const (
	FlagUrgent      uint8 = 1 << 7 // expedited class (extension)
	FlagStamped     uint8 = 1 << 6 // frame carries a timestamp trailer (internal)
	FlagChecksummed uint8 = 1 << 5 // frame carries a CRC32C trailer (internal)
	// FlagCtl marks in-band control-plane frames (topic credit hellos
	// and advertisements, registry markers). It is reserved by the
	// messaging planes above the transport; batching transports treat
	// frames carrying it as expedited (see Expedited) so backpressure
	// feedback never queues behind the bulk data it regulates.
	FlagCtl      uint8 = 1 << 4
	PriorityMask uint8 = 0x07 // 8 priority levels (extension)
)

// CtlPriorityFloor is the priority level at or above which a frame
// belongs to the control class for transport purposes: the topic
// plane's Control class maps there, while Normal and Bulk stay below.
const CtlPriorityFloor = 4

// Expedited reports whether a frame's flags mark it control-class:
// either the explicit control bit or a priority in the top (control)
// band. Batching transports flush such frames past any pending cork.
func Expedited(flags uint8) bool {
	return flags&FlagCtl != 0 || flags&PriorityMask >= CtlPriorityFloor
}

// StampBytes is the size of the optional send-timestamp trailer: a
// big-endian UnixNano written into the last eight bytes of the fixed
// frame. The trailer rides in the zero-filled slack after the payload,
// so it costs no wire bytes (frames are always the full fixed size)
// and is simply omitted when the payload leaves no room — one-way
// latency observation degrades gracefully instead of shrinking the
// application's payload capacity.
const StampBytes = 8

// ChecksumBytes is the size of the optional frame-integrity trailer: a
// big-endian CRC32C (Castagnoli) over the entire fixed frame, written
// into the four bytes immediately before the timestamp trailer. Like
// the stamp it rides in the zero-filled slack after the payload, so it
// costs no wire bytes and is omitted (flag clear) when the payload
// leaves no room — integrity protection degrades gracefully instead of
// shrinking the application's payload capacity.
//
// The checksum is flag-gated per frame: receivers verify it whenever
// FlagChecksummed is set, so checksumming and non-checksumming senders
// interoperate on one cluster. The trailer slot is at a fixed offset
// (frame end minus StampBytes+ChecksumBytes) regardless of whether a
// stamp is present, and the CRC is computed with the slot itself read
// as zero.
const ChecksumBytes = 4

// ErrChecksum is the sentinel wrapped by Decode when a checksummed
// frame fails CRC verification. Receivers match it with errors.Is and
// count such frames as a distinct loss category (the engine's
// ChecksumDrops): unlike other decode failures, the header fields of a
// checksum-failed frame cannot be trusted at all.
var ErrChecksum = errors.New("wire: frame checksum mismatch")

// castagnoli is the CRC32C table (hardware-accelerated on amd64/arm64).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Checksum computes the CRC32C (Castagnoli) of p — the same machinery
// that protects frames, exported for other wire-adjacent formats (the
// registry's record log frames its records with it).
func Checksum(p []byte) uint32 { return crc32.Checksum(p, castagnoli) }

// zeroChecksum substitutes for the trailer slot during verification.
var zeroChecksum [ChecksumBytes]byte

// checksumSlot returns the byte offset of the CRC trailer in a frame.
func checksumSlot(frameLen int) int { return frameLen - StampBytes - ChecksumBytes }

// Packet is one fixed-size FLIPC message in flight. Src is transport
// bookkeeping (tracing, tests); it is not part of the 8-byte header and
// is not delivered to receivers.
type Packet struct {
	Dst     Addr
	Src     Addr // not on the wire; local bookkeeping only
	Size    uint16
	Flags   uint8
	Seq     uint8 // low bits of the per-endpoint sequence, for debugging
	Payload []byte
	// Stamp is the sender's UnixNano at transmit time, 0 when absent.
	// Encode writes it as a frame trailer when the payload leaves
	// StampBytes of slack; Decode recovers it so the receive side can
	// record one-way delivery latency. Clock comparability across
	// nodes is the deployment's problem (the paper's clusters share a
	// chassis); within one host it is exact.
	Stamp int64
	// Checksum, on Encode, requests a CRC32C trailer (written when the
	// payload leaves room, silently omitted otherwise). On Decode it
	// reports that the frame carried a checksum and it verified.
	Checksum bool
}

// Header layout (8 bytes, big-endian):
//
//	[0:4] destination Addr
//	[4:6] payload size
//	[6]   flags
//	[7]   sequence (debug)

// Encode writes p into frame, which must be exactly messageSize bytes
// (frames on the wire are always the full fixed size). The payload is
// copied after the header and the remainder zero-filled so frames never
// leak stale memory.
func Encode(p *Packet, frame []byte) error {
	if err := CheckMessageSize(len(frame)); err != nil {
		return fmt.Errorf("wire: bad frame: %w", err)
	}
	if int(p.Size) != len(p.Payload) {
		return fmt.Errorf("wire: size field %d != payload length %d", p.Size, len(p.Payload))
	}
	if len(p.Payload) > MaxPayload(len(frame)) {
		return fmt.Errorf("wire: payload %d exceeds max %d for %d-byte messages",
			len(p.Payload), MaxPayload(len(frame)), len(frame))
	}
	if !p.Dst.Valid() {
		return fmt.Errorf("wire: invalid destination %v", p.Dst)
	}
	binary.BigEndian.PutUint32(frame[0:4], uint32(p.Dst))
	binary.BigEndian.PutUint16(frame[4:6], p.Size)
	// Reserved bits: applications cannot set the internal trailer flags.
	flags := p.Flags &^ (FlagStamped | FlagChecksummed)
	frame[7] = p.Seq
	n := copy(frame[HeaderBytes:], p.Payload)
	for i := HeaderBytes + n; i < len(frame); i++ {
		frame[i] = 0
	}
	if p.Stamp != 0 && len(p.Payload)+StampBytes <= MaxPayload(len(frame)) {
		binary.BigEndian.PutUint64(frame[len(frame)-StampBytes:], uint64(p.Stamp))
		flags |= FlagStamped
	}
	if p.Checksum && len(p.Payload)+StampBytes+ChecksumBytes <= MaxPayload(len(frame)) {
		flags |= FlagChecksummed
	}
	frame[6] = flags
	if flags&FlagChecksummed != 0 {
		// The trailer slot is still zero from the fill above, so the CRC
		// over the whole frame equals the CRC with the slot zeroed —
		// exactly what Decode reconstructs.
		slot := checksumSlot(len(frame))
		binary.BigEndian.PutUint32(frame[slot:slot+ChecksumBytes],
			crc32.Checksum(frame, castagnoli))
	}
	return nil
}

// Decode parses a frame produced by Encode. The returned packet's
// Payload aliases frame; callers that retain it must copy.
func Decode(frame []byte) (*Packet, error) {
	p := new(Packet)
	if err := DecodeInto(frame, p); err != nil {
		return nil, err
	}
	return p, nil
}

// DecodeInto is Decode into a packet the caller owns, overwriting every
// field; on error p is left untouched.
func DecodeInto(frame []byte, p *Packet) error {
	if err := CheckMessageSize(len(frame)); err != nil {
		return fmt.Errorf("wire: bad frame: %w", err)
	}
	// Verify the checksum before trusting any header field: a corrupted
	// frame may present an arbitrary destination or size, and the caller
	// must be able to count it as checksum loss rather than misroute it.
	flags := frame[6]
	checksummed := flags&FlagChecksummed != 0
	if checksummed {
		slot := checksumSlot(len(frame))
		want := binary.BigEndian.Uint32(frame[slot : slot+ChecksumBytes])
		crc := crc32.Update(0, castagnoli, frame[:slot])
		crc = crc32.Update(crc, castagnoli, zeroChecksum[:])
		crc = crc32.Update(crc, castagnoli, frame[slot+ChecksumBytes:])
		if crc != want {
			return fmt.Errorf("%w (stored %08x, computed %08x)", ErrChecksum, want, crc)
		}
		flags &^= FlagChecksummed // internal bit: never delivered to applications
	}
	dst := Addr(binary.BigEndian.Uint32(frame[0:4]))
	size := binary.BigEndian.Uint16(frame[4:6])
	if !dst.Valid() {
		return fmt.Errorf("wire: frame has invalid destination %v", dst)
	}
	if int(size) > MaxPayload(len(frame)) {
		return fmt.Errorf("wire: frame size field %d exceeds max payload %d", size, MaxPayload(len(frame)))
	}
	var stamp int64
	if flags&FlagStamped != 0 {
		if int(size)+StampBytes <= MaxPayload(len(frame)) {
			stamp = int64(binary.BigEndian.Uint64(frame[len(frame)-StampBytes:]))
		}
		flags &^= FlagStamped // internal bit: never delivered to applications
	}
	*p = Packet{
		Dst:      dst,
		Size:     size,
		Flags:    flags,
		Seq:      frame[7],
		Payload:  frame[HeaderBytes : HeaderBytes+int(size) : HeaderBytes+int(size)],
		Stamp:    stamp,
		Checksum: checksummed,
	}
	return nil
}

// Priority extracts the priority level from flags (extension).
func Priority(flags uint8) int { return int(flags & PriorityMask) }
