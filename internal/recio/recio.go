// Package recio is the CRC-framed durable record codec and the
// record-file discipline of internal/duralog (per-topic payload
// segments, the registry's journal among them); internal/registrystore
// frames its records with it. It owns the frame layout and the file
// discipline; record *semantics* (what a type byte means, how a body is
// parsed) stay with the owning package.
//
// The file discipline, stated once (File, ScanFile, ReplaceFile):
//
//   - Torn tail. A record file is its intact prefix: recovering one
//     (ScanFile with repair, before OpenFile appends behind it) hands
//     the bytes to the owner's scan (Scan, or its own loop over Decode),
//     which stops at the first record that is short, fails its checksum
//     or does not parse, and the file is truncated there. A record cut
//     short by a crash was never acknowledged, so dropping it — and
//     everything written behind it — is exact.
//   - Durability class. Every append says how far it must have got when
//     it returns: Buffered (group commit), Written (to the OS) or Synced
//     (fsync, unless the file is NoSync). Which record gets which class
//     is the owner's policy.
//   - Sticky error. After one failed write or sync every later
//     operation returns that error and writes nothing: a record
//     acknowledged behind a torn one would vanish with it at the next
//     open.
//   - Atomic replace. A file is superseded (compaction, checkpoint) by
//     writing a sibling, syncing it unless NoSync, and renaming it over
//     the original: a crash leaves the old bytes or the new, never a
//     name pointing at data still in the page cache.
//
// Frame layout, the one this package writes and reads:
//
//	[0:4]   CRC32C over bytes [4:16+n] (wire.Checksum — the same
//	        checksum machinery as wire frames)
//	[4:6]   body length n
//	[6]     record type (owned by the caller's namespace)
//	[7]     format version, always 1
//	[8:16]  sequence number
//	[16:18] extension length, always 0
//	[18:16+n] payload
//
// The version byte and the extension-length word are constants that
// stay in the layout so that every segment already on disk is in it.
// Older layouts — version 0, whose body is the payload alone, and a
// non-empty extension area — are ErrCorrupt here; only
// internal/registrystore's converter (upgrade.go) reads them. The codec
// is canonical: decoding a frame and re-encoding it reproduces the
// input bytes exactly, so log bytes, replicated bytes, and re-journaled
// bytes can never disagree.
package recio

import (
	"encoding/binary"
	"errors"
	"fmt"

	"flipc/internal/wire"
)

// Frame geometry.
const (
	// HeaderBytes is the fixed frame header size.
	HeaderBytes = 16
	// MaxFrameBytes is the largest encoded frame (the body length is 16
	// bits): a buffer this size always holds one whole frame.
	MaxFrameBytes = HeaderBytes + 0xFFFF
	// payloadAt is where the payload starts, behind the header and the
	// empty extension area's length word.
	payloadAt = HeaderBytes + 2
	// version is the format version byte every frame carries.
	version = 1
)

// ErrCorrupt is wrapped by every parse failure that is not a short
// read: bad checksum, a layout other than this package's, impossible
// length. A log reader stops at the first corrupt frame; a replica
// treats it as a stream gap.
var ErrCorrupt = errors.New("recio: corrupt frame")

// ErrShort reports a structurally incomplete frame prefix — fewer
// bytes than the header (or the header-claimed body) needs. A log
// reader treats a short tail as a torn final write, not corruption.
var ErrShort = errors.New("recio: short frame")

// Frame is one durable record in its framed form. Type and Payload
// semantics belong to the caller.
type Frame struct {
	Type uint8
	Seq  uint64
	// Payload is the type-specific body. On decode it aliases the input.
	Payload []byte
}

// Append encodes f and appends it to dst, returning the extended slice.
func Append(dst []byte, f *Frame) ([]byte, error) {
	n := payloadAt - HeaderBytes + len(f.Payload)
	if n > 0xFFFF {
		return dst, fmt.Errorf("recio: body %d bytes exceeds 65535", n)
	}
	off := len(dst)
	dst = append(dst, make([]byte, HeaderBytes+n)...)
	rec := dst[off:]
	binary.BigEndian.PutUint16(rec[4:6], uint16(n))
	rec[6] = f.Type
	rec[7] = version
	binary.BigEndian.PutUint64(rec[8:16], f.Seq)
	copy(rec[payloadAt:], f.Payload)
	binary.BigEndian.PutUint32(rec[0:4], wire.Checksum(rec[4:]))
	return dst, nil
}

// Decode parses one frame from the front of b, returning the frame and
// the bytes consumed. ErrShort means b ends before the frame does
// (torn tail); ErrCorrupt wraps every other failure. The returned
// frame's Payload aliases b.
func Decode(b []byte) (Frame, int, error) {
	if len(b) < HeaderBytes {
		return Frame{}, 0, ErrShort
	}
	n := HeaderBytes + int(binary.BigEndian.Uint16(b[4:6]))
	if len(b) < n {
		return Frame{}, 0, ErrShort
	}
	rec := b[:n]
	if wire.Checksum(rec[4:]) != binary.BigEndian.Uint32(rec[0:4]) {
		return Frame{}, 0, fmt.Errorf("%w: checksum mismatch", ErrCorrupt)
	}
	if rec[7] != version || n < payloadAt || rec[16]|rec[17] != 0 {
		return Frame{}, 0, fmt.Errorf("%w: not a version-%d frame with an empty extension", ErrCorrupt, version)
	}
	return Frame{Type: rec[6], Seq: binary.BigEndian.Uint64(rec[8:16]), Payload: rec[payloadAt:]}, n, nil
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
