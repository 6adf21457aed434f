package recio_test

// The record-file clients' directories, byte by byte: the files each
// client writes today, compared with a layout laid out here by hand,
// and — for the duralog — an old directory in that layout opened under
// this code. A registry directory in a layout older than today's is
// internal/registrystore's converter's to read (its upgrade_test.go).

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"flipc/internal/duralog"
	"flipc/internal/nameservice"
	"flipc/internal/registrystore"
	"flipc/internal/wire"
)

func u16(b []byte, v uint16) []byte { return binary.BigEndian.AppendUint16(b, v) }
func u32(b []byte, v uint32) []byte { return binary.BigEndian.AppendUint32(b, v) }
func u64(b []byte, v uint64) []byte { return binary.BigEndian.AppendUint64(b, v) }
func sealed(b []byte) []byte        { return u32(b, wire.Checksum(b)) }

// frame lays out one record frame: CRC32C(4) over the rest | body
// length(2) | type(1) | version 1 | seq(8) | body, whose body is an
// empty extension area's length (2) and the payload.
func frame(typ uint8, seq uint64, payload []byte) []byte {
	rec := u64(append(u16(nil, uint16(2+len(payload))), typ, 1), seq)
	rec = append(u16(rec, 0), payload...)
	return append(u32(nil, wire.Checksum(rec)), rec...)
}

func writeFile(t *testing.T, path string, b []byte) {
	t.Helper()
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
}

func wantFile(t *testing.T, path string, want []byte) {
	t.Helper()
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s: %d bytes written, differ from the %d-byte layout:\n got %x\nwant %x", filepath.Base(path), len(got), len(want), got, want)
	}
}

// snapshotBytes lays out snapshot.dat: "FLPR" version 2 gen seq epoch
// ntopics { nameLen name class gen nsubs {addr epoch} ncursors=0 } crc.
func snapshotBytes(st nameservice.RegistryState, seq uint64) []byte {
	b := append(u32(nil, 0x464C5052), 2)
	b = u64(u64(u64(b, st.Gen), seq), st.Epoch)
	b = u32(b, uint32(len(st.Topics)))
	for _, t := range st.Topics {
		b = append(append(b, byte(len(t.Name))), t.Name...)
		b = u32(u32(append(b, t.Class), t.Gen), uint32(len(t.Subs)))
		for _, s := range t.Subs {
			b = u64(u32(b, uint32(s.Addr)), s.Epoch)
		}
		b = u32(b, 0)
	}
	return sealed(b)
}

// TestRegistryDirectoryLayout pins what a fresh registry store writes:
// its journal is a duralog whose payload records each carry one framed
// registry record (declare = class|topic, subscribe = addr|topic,
// fence and heartbeat = generation) behind the replication class's
// flags byte, at the record's own sequence; a compaction writes a v2
// snapshot with empty cursor sections and acks the snapshot's journal
// cursor, which cursors.dat carries across Close.
func TestRegistryDirectoryLayout(t *testing.T) {
	a1, _ := wire.MakeAddr(1, 4, 1)
	dir := t.TempDir()
	reg := nameservice.NewTopicRegistry()
	st, err := registrystore.Open(dir, reg, registrystore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	journal := func(rec registrystore.Record, wantSeq uint64) {
		t.Helper()
		if err := st.Journal(&rec); err != nil || rec.Seq != wantSeq {
			t.Fatalf("journaled %v at seq %d, want %d: %v", rec.Type, rec.Seq, wantSeq, err)
		}
	}
	// Each record beside the mutation it stands for.
	journal(registrystore.Record{Type: registrystore.RecDeclare, Topic: "alpha", Class: 2}, 1)
	if err := reg.Declare("alpha", 2); err != nil {
		t.Fatal(err)
	}
	journal(registrystore.Record{Type: registrystore.RecSubscribe, Topic: "alpha", Addr: a1}, 2)
	if err := reg.Subscribe("alpha", a1); err != nil {
		t.Fatal(err)
	}
	journal(registrystore.Record{Type: registrystore.RecFence, Gen: 3}, 3)
	reg.SetRegistryGen(3)
	reg.BumpTopicGens()
	if err := st.Compact(reg); err != nil {
		t.Fatal(err)
	}
	wantFile(t, filepath.Join(dir, "snapshot.dat"), snapshotBytes(reg.ExportState(), 3))
	// A heartbeat is handed to the OS unsynced (the Written class) and
	// moves the sequence like any record.
	journal(registrystore.Record{Type: registrystore.RecHeartbeat, Gen: 3}, 4)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	payload := func(seq uint64, typ uint8, body []byte) []byte {
		return frame(1, seq, append([]byte{registrystore.ReplicationClass.Flags()}, frame(typ, seq, body)...))
	}
	var seg []byte
	for _, f := range [][]byte{
		payload(1, 1, append([]byte{2}, "alpha"...)),
		payload(2, 2, append(u32(nil, uint32(a1)), "alpha"...)),
		payload(3, 6, u64(nil, 3)),
		frame(2, 3, []byte("registrystore/snapshot")),
		payload(4, 7, u64(nil, 3)),
	} {
		seg = append(seg, f...)
	}
	wantFile(t, filepath.Join(dir, "seg-0000000000000001.log"), seg)
	wantFile(t, filepath.Join(dir, "cursors.dat"), cursorsBytes(4, []string{"registrystore/snapshot"}, []uint64{3}))

	reg2 := nameservice.NewTopicRegistry()
	st2, err := registrystore.Open(dir, reg2, registrystore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	st2.Close()
	if st2.Seq() != 4 || st2.SnapshotSeq() != 3 || !reflect.DeepEqual(reg2.ExportState(), reg.ExportState()) {
		t.Fatalf("reopen: seq %d snapSeq %d, state\n got %+v\nwant %+v", st2.Seq(), st2.SnapshotSeq(), reg2.ExportState(), reg.ExportState())
	}
}

// ack is a cursor record journaled behind payload record `after`.
type ack struct {
	after uint64
	sub   string
	seq   uint64
}

// segmentBytes lays out one duralog segment: v1 frames, type 1 =
// payload (seq, body flags|payload), type 2 = cursor ack (acked seq,
// body subscriber name).
func segmentBytes(t *testing.T, from, to uint64, acks ...ack) []byte {
	t.Helper()
	var b []byte
	add := func(typ uint8, seq uint64, body []byte) { b = append(b, frame(typ, seq, body)...) }
	for seq := from; seq <= to; seq++ {
		add(1, seq, append([]byte{0x02}, fmt.Sprintf("msg-%04d", seq)...))
		for _, a := range acks {
			if a.after == seq {
				add(2, a.seq, []byte(a.sub))
			}
		}
	}
	return b
}

// cursorsBytes lays out cursors.dat: "FLDC" ver head n {subLen sub seq}
// crc, subscribers sorted.
func cursorsBytes(head uint64, subs []string, seqs []uint64) []byte {
	b := append(u32(nil, 0x464C4443), 1)
	b = u32(u64(b, head), uint32(len(subs)))
	for i, s := range subs {
		b = u64(append(append(b, byte(len(s))), s...), seqs[i])
	}
	return sealed(b)
}

func TestDuralogDirectoryLayout(t *testing.T) {
	// Three segments of 10; "a" acked 12 in-segment, "idle" is a seq-0
	// cursor only the checkpoint knows (written when segment 1..10 was
	// retired — here it is still present, an older checkpoint).
	segs := map[string][]byte{
		"seg-0000000000000001.log": segmentBytes(t, 1, 10),
		"seg-000000000000000b.log": segmentBytes(t, 11, 20, ack{12, "a", 12}),
		"seg-0000000000000015.log": segmentBytes(t, 21, 30),
	}
	dir := t.TempDir()
	for name, b := range segs {
		if name == "seg-0000000000000015.log" {
			b = b[:len(b)-5] // record 30 torn
		}
		writeFile(t, filepath.Join(dir, name), b)
	}
	writeFile(t, filepath.Join(dir, "cursors.dat"), cursorsBytes(20, []string{"a", "idle"}, []uint64{5, 0}))

	l, err := duralog.Open(dir, duralog.Options{})
	if err != nil {
		t.Fatal(err)
	}
	h := l.Health()
	if h.Head != 29 || h.First != 1 || h.Segments != 3 || h.Cursors["a"] != 12 || h.Cursors["idle"] != 0 || len(h.Cursors) != 2 {
		t.Fatalf("recovered %+v", h)
	}
	var seqs []uint64
	if err := l.Replay(0, func(seq uint64, flags uint8, p []byte) error {
		if flags != 0x02 || string(p) != fmt.Sprintf("msg-%04d", seq) {
			t.Fatalf("seq %d: flags %#x payload %q", seq, flags, p)
		}
		seqs = append(seqs, seq)
		return nil
	}); err != nil || len(seqs) != 29 || seqs[0] != 1 || seqs[28] != 29 {
		t.Fatalf("replay: %v err %v", seqs, err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	wantFile(t, filepath.Join(dir, "cursors.dat"), cursorsBytes(29, []string{"a", "idle"}, []uint64{12, 0}))

	// The same history written by this code: identical files.
	dir2 := t.TempDir()
	seg := len(segmentBytes(t, 1, 10))
	l2, err := duralog.Open(dir2, duralog.Options{SegmentBytes: seg})
	if err != nil {
		t.Fatal(err)
	}
	for seq := uint64(1); seq <= 30; seq++ {
		if _, err := l2.Append(0x02, []byte(fmt.Sprintf("msg-%04d", seq))); err != nil {
			t.Fatal(err)
		}
		if seq == 1 {
			if err := l2.Ack("idle", 0); err != nil {
				t.Fatal(err)
			}
		}
		if seq == 12 {
			if err := l2.Ack("a", 12); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}
	segs["seg-0000000000000001.log"] = segmentBytes(t, 1, 10, ack{1, "idle", 0})
	segs["cursors.dat"] = cursorsBytes(30, []string{"a", "idle"}, []uint64{12, 0})
	for name, want := range segs {
		wantFile(t, filepath.Join(dir2, name), want)
	}
}
