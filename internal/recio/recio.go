// Package recio is the CRC-framed durable record codec and the
// record-file discipline shared by internal/registrystore (the registry
// WAL and replication stream), internal/shardmap (the shard-map
// journal) and internal/duralog (per-topic payload segments). It owns
// the frame layout, the file discipline, and the mixed-version upgrade
// story; record *semantics* (what a type byte means, how a body is
// parsed) stay with the owning package.
//
// The file discipline, stated once (File, ScanFile, ReplaceFile):
//
//   - Torn tail. A record file is its intact prefix: opening one hands
//     the bytes to the owner's scan (Scan, or its own loop over Decode),
//     which stops at the first record that is short, fails its checksum
//     or does not parse, and the file is truncated there. A record cut
//     short by a crash was never acknowledged, so dropping it — and
//     everything written behind it — is exact.
//   - Durability class. Every append says how far it must have got when
//     it returns: Buffered (group commit), Written (to the OS) or Synced
//     (fsync, unless the file is NoSync). Which record gets which class
//     is the owner's policy.
//   - Sticky error. After one failed write, sync or replace every later
//     operation returns that error and writes nothing: a record
//     acknowledged behind a torn one would vanish with it at the next
//     open.
//   - Atomic replace. A file is superseded (compaction, checkpoint) by
//     writing a sibling, syncing it unless NoSync, and renaming it over
//     the original: a crash leaves the old bytes or the new, never a
//     name pointing at data still in the page cache.
//
// Frame layout:
//
//	[0:4]   CRC32C over bytes [4:16+n] (wire.Checksum — the same
//	        checksum machinery as wire frames)
//	[4:6]   body length n (covers the v1 extension area)
//	[6]     record type (owned by the caller's namespace)
//	[7]     format version (0 or 1)
//	[8:16]  sequence number
//	[16:16+n] body
//
// Version 0 is the original registrystore layout: the body is the
// type-specific payload, nothing else. Version 1 prefixes the body with
// a length-prefixed extension area:
//
//	body = [0:2] extension length e | [2:2+e] extension | [2+e:n] payload
//
// The extension area is the flag-day escape hatch: a v1 writer can
// attach new per-record fields (shard epochs, trace context) that a v1
// reader which doesn't understand them skips structurally, because the
// length is explicit. Writers stamp v1; readers accept both versions,
// so a log or replication stream written by an old node replays on a
// new one mid-upgrade — the prerequisite ROADMAP names for shard
// splits rolling out without a flag day.
//
// The codec is canonical per version: decoding a frame and re-encoding
// the result (the Frame preserves its decoded version and extension
// bytes) reproduces the input bytes exactly, so log bytes, replicated
// bytes, and re-journaled bytes can never disagree.
package recio

import (
	"encoding/binary"
	"errors"
	"fmt"

	"flipc/internal/wire"
)

// Frame geometry and versions.
const (
	// HeaderBytes is the fixed frame header size.
	HeaderBytes = 16
	// MaxFrameBytes is the largest encoded frame (the body length is 16
	// bits): a buffer this size always holds one whole frame.
	MaxFrameBytes = HeaderBytes + 0xFFFF
	// V0 is the original format: body carries the payload alone.
	V0 = 0
	// V1 adds the length-prefixed extension area ahead of the payload.
	// Writers stamp it; readers accept V0 and V1.
	V1 = 1
)

// ErrCorrupt is wrapped by every parse failure that is not a short
// read: bad checksum, unknown version, impossible length. A log reader
// stops at the first corrupt frame; a replica treats it as a stream
// gap.
var ErrCorrupt = errors.New("recio: corrupt frame")

// ErrShort reports a structurally incomplete frame prefix — fewer
// bytes than the header (or the header-claimed body) needs. A log
// reader treats a short tail as a torn final write, not corruption.
var ErrShort = errors.New("recio: short frame")

// Frame is one durable record in its framed form. Type and Payload
// semantics belong to the caller; Ver and Ext are preserved across a
// decode/re-encode round trip so the encoding stays canonical.
type Frame struct {
	Type uint8
	Ver  uint8
	Seq  uint64
	// Ext is the v1 extension area (nil or empty for V0 frames and for
	// v1 frames carrying no extension).
	Ext []byte
	// Payload is the type-specific body. On decode it aliases the input.
	Payload []byte
}

// Append encodes f and appends it to dst, returning the extended
// slice. f.Ver selects the format (V0 for byte-compatibility with
// pre-upgrade logs, V1 for everything newly written).
func Append(dst []byte, f *Frame) ([]byte, error) {
	n := len(f.Payload)
	switch f.Ver {
	case V0:
		if len(f.Ext) != 0 {
			return dst, fmt.Errorf("recio: v0 frame cannot carry an extension")
		}
	case V1:
		if len(f.Ext) > 0xFFFF {
			return dst, fmt.Errorf("recio: extension %d bytes exceeds 65535", len(f.Ext))
		}
		n += 2 + len(f.Ext)
	default:
		return dst, fmt.Errorf("recio: cannot encode version %d", f.Ver)
	}
	if n > 0xFFFF {
		return dst, fmt.Errorf("recio: body %d bytes exceeds 65535", n)
	}
	off := len(dst)
	dst = append(dst, make([]byte, HeaderBytes+n)...)
	rec := dst[off:]
	binary.BigEndian.PutUint16(rec[4:6], uint16(n))
	rec[6] = f.Type
	rec[7] = f.Ver
	binary.BigEndian.PutUint64(rec[8:16], f.Seq)
	body := rec[HeaderBytes:]
	if f.Ver == V1 {
		binary.BigEndian.PutUint16(body[0:2], uint16(len(f.Ext)))
		copy(body[2:], f.Ext)
		body = body[2+len(f.Ext):]
	}
	copy(body, f.Payload)
	binary.BigEndian.PutUint32(rec[0:4], wire.Checksum(rec[4:]))
	return dst, nil
}

// Decode parses one frame from the front of b, returning the frame and
// the bytes consumed. ErrShort means b ends before the frame does
// (torn tail); ErrCorrupt wraps every other failure. The returned
// frame's Ext and Payload alias b.
func Decode(b []byte) (Frame, int, error) {
	if len(b) < HeaderBytes {
		return Frame{}, 0, ErrShort
	}
	n := int(binary.BigEndian.Uint16(b[4:6]))
	if len(b) < HeaderBytes+n {
		return Frame{}, 0, ErrShort
	}
	rec := b[:HeaderBytes+n]
	if wire.Checksum(rec[4:]) != binary.BigEndian.Uint32(rec[0:4]) {
		return Frame{}, 0, fmt.Errorf("%w: checksum mismatch", ErrCorrupt)
	}
	f := Frame{
		Type: rec[6],
		Ver:  rec[7],
		Seq:  binary.BigEndian.Uint64(rec[8:16]),
	}
	body := rec[HeaderBytes:]
	switch f.Ver {
	case V0:
		// Original layout: the body is the payload.
	case V1:
		if len(body) < 2 {
			return Frame{}, 0, fmt.Errorf("%w: v1 body %d bytes", ErrCorrupt, len(body))
		}
		e := int(binary.BigEndian.Uint16(body[0:2]))
		if len(body) < 2+e {
			return Frame{}, 0, fmt.Errorf("%w: extension %d bytes in %d-byte body", ErrCorrupt, e, len(body))
		}
		if e > 0 {
			f.Ext = body[2 : 2+e]
		}
		body = body[2+e:]
	default:
		return Frame{}, 0, fmt.Errorf("%w: unknown version %d", ErrCorrupt, f.Ver)
	}
	f.Payload = body
	return f, HeaderBytes + n, nil
}

// Scan iterates intact frames from the front of b, calling fn for each
// with the frame and its encoded size. It returns the bytes consumed
// by intact frames: a torn tail (ErrShort) or corruption stops the
// scan without error — consumed < len(b) tells the caller where the
// durable prefix ends (the WAL truncation point). An error returned by
// fn stops the scan and is returned as-is, with consumed covering the
// frames fully processed before it.
func Scan(b []byte, fn func(f Frame, size int) error) (consumed int, err error) {
	for consumed < len(b) {
		f, n, derr := Decode(b[consumed:])
		if derr != nil {
			return consumed, nil
		}
		if err := fn(f, n); err != nil {
			return consumed, err
		}
		consumed += n
	}
	return consumed, nil
}
