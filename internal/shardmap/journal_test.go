package shardmap

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"flipc/internal/recio"
)

func TestJournalRecoversAcrossReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "shardmap.log")
	j, err := OpenJournal(path, JournalOptions{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	for id := uint32(0); id < 3; id++ {
		if err := j.Add(Entry{ID: id}); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.SetAddr(2, 0xC0DE); err != nil {
		t.Fatal(err)
	}
	if err := j.Remove(1); err != nil {
		t.Fatal(err)
	}
	before := j.Map()
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	j2, err := OpenJournal(path, JournalOptions{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	after := j2.Map()
	if after.Epoch() != before.Epoch() || after.Epoch() != 5 {
		t.Fatalf("recovered epoch %d, want %d (and 5 mutations)", after.Epoch(), before.Epoch())
	}
	be, ae := before.Entries(), after.Entries()
	if len(be) != len(ae) {
		t.Fatalf("recovered %v, want %v", ae, be)
	}
	for i := range be {
		if be[i] != ae[i] {
			t.Fatalf("entry %d: recovered %v, want %v", i, ae[i], be[i])
		}
	}
	if j2.Seq() != 5 {
		t.Fatalf("recovered seq %d, want 5", j2.Seq())
	}
	// The journal keeps accepting mutations after recovery.
	if err := j2.Add(Entry{ID: 1}); err != nil {
		t.Fatal(err)
	}
	if j2.Map().Epoch() != 6 {
		t.Fatalf("post-recovery mutation at epoch %d", j2.Map().Epoch())
	}
}

func TestJournalTruncatesTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "shardmap.log")
	j, err := OpenJournal(path, JournalOptions{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Add(Entry{ID: 0}); err != nil {
		t.Fatal(err)
	}
	if err := j.Add(Entry{ID: 1}); err != nil {
		t.Fatal(err)
	}
	j.Close()

	// Tear the final record mid-write.
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, b[:len(b)-5], 0o644); err != nil {
		t.Fatal(err)
	}

	j2, err := OpenJournal(path, JournalOptions{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	m := j2.Map()
	if m.Len() != 1 || m.Epoch() != 1 {
		t.Fatalf("torn journal recovered %d shards at epoch %d, want the 1-shard prefix", m.Len(), m.Epoch())
	}
	// The torn bytes are gone: a new mutation appends cleanly and the
	// next recovery sees both records.
	if err := j2.Add(Entry{ID: 7}); err != nil {
		t.Fatal(err)
	}
	j2.Close()
	j3, err := OpenJournal(path, JournalOptions{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer j3.Close()
	if m := j3.Map(); m.Len() != 2 {
		t.Fatalf("post-truncation journal recovered %d shards, want 2", m.Len())
	}
}

// TestMixedVersionShardEpochExtension is the upgrade-story proof for
// the shard-map records: the shard epoch rides the recio v1 extension
// area, so a reader that predates the extension — one that decodes the
// frame and looks only at the payload, exactly what every v0-era
// record consumer does — still parses the entry correctly and skips
// the epoch structurally. And a genuine v0 frame (no extension at all)
// decodes through DecodeRecord with Epoch 0, so a log written by an
// old node replays on a new one mid-upgrade.
func TestMixedVersionShardEpochExtension(t *testing.T) {
	e := Entry{ID: 11, Weight: 32, Addr: 0xFACE}
	framed, err := AppendRecord(nil, &Record{Type: RecAdd, Seq: 9, Epoch: 77, Entry: e})
	if err != nil {
		t.Fatal(err)
	}

	// The v0-semantics reader: recio decode, payload only. It must see
	// the exact entry payload an extension-less frame would carry.
	f, n, err := recio.Decode(framed)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(framed) {
		t.Fatalf("decode consumed %d of %d", n, len(framed))
	}
	if f.Ver != recio.V1 || len(f.Ext) != epochExtBytes {
		t.Fatalf("frame ver %d ext %d bytes, want v1 with an 8-byte epoch", f.Ver, len(f.Ext))
	}
	v0Frame := recio.Frame{Type: RecAdd, Ver: recio.V0, Seq: 9, Payload: appendEntry(nil, e)}
	v0Bytes, err := recio.Append(nil, &v0Frame)
	if err != nil {
		t.Fatal(err)
	}
	v0, _, err := recio.Decode(v0Bytes)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(f.Payload, v0.Payload) {
		t.Fatalf("v1 payload %x differs from the v0 encoding %x — an old reader would misparse", f.Payload, v0.Payload)
	}
	if got := decodeEntry(f.Payload); got != e {
		t.Fatalf("old reader parses entry %+v, want %+v", got, e)
	}

	// The new reader gets the epoch from the extension.
	r, _, err := DecodeRecord(framed)
	if err != nil {
		t.Fatal(err)
	}
	if r.Epoch != 77 || r.Entry != e || r.Seq != 9 {
		t.Fatalf("DecodeRecord = %+v", r)
	}

	// A true v0 frame replays too, with the epoch reconstructed by
	// counting mutations instead of read from the extension.
	rv0, _, err := DecodeRecord(v0Bytes)
	if err != nil {
		t.Fatal(err)
	}
	if rv0.Epoch != 0 || rv0.Entry != e {
		t.Fatalf("v0 DecodeRecord = %+v", rv0)
	}
	m, seq, consumed := Replay(v0Bytes)
	if consumed != len(v0Bytes) || seq != 9 {
		t.Fatalf("v0 replay consumed %d seq %d", consumed, seq)
	}
	if m.Epoch() != 1 {
		t.Fatalf("v0 replay epoch %d, want 1 (counted)", m.Epoch())
	}
	if got, _ := m.Entry(11); got != (Entry{ID: 11, Weight: 32, Addr: 0xFACE}) {
		t.Fatalf("v0 replay entry %+v", got)
	}

	// Mixed stream: a v0 prefix followed by v1 records converges on the
	// v1 writer's extension epoch.
	mixed := append([]byte(nil), v0Bytes...)
	rec2, err := AppendRecord(nil, &Record{Type: RecAddr, Seq: 10, Epoch: 80, Entry: Entry{ID: 11, Addr: 0xB00}})
	if err != nil {
		t.Fatal(err)
	}
	mixed = append(mixed, rec2...)
	m2, seq2, consumed2 := Replay(mixed)
	if consumed2 != len(mixed) || seq2 != 10 {
		t.Fatalf("mixed replay consumed %d/%d seq %d", consumed2, len(mixed), seq2)
	}
	if m2.Epoch() != 80 {
		t.Fatalf("mixed replay epoch %d, want the v1 writer's 80", m2.Epoch())
	}
	if got, _ := m2.Entry(11); got.Addr != 0xB00 {
		t.Fatalf("mixed replay entry %+v", got)
	}
}

func TestRecordCodecCanonical(t *testing.T) {
	snap := Restore(42, []Entry{{ID: 1, Weight: 8}, {ID: 2, Weight: 8, Addr: 5}}).Encode(nil)
	for _, r := range []Record{
		{Type: RecAdd, Seq: 1, Epoch: 1, Entry: Entry{ID: 4, Weight: 64}},
		{Type: RecRemove, Seq: 2, Epoch: 2, Entry: Entry{ID: 4, Weight: 64}},
		{Type: RecAddr, Seq: 3, Epoch: 3, Entry: Entry{ID: 1, Addr: 0xF00}},
		{Type: RecSnap, Seq: 4, Epoch: 42, Snap: snap},
	} {
		framed, err := AppendRecord(nil, &r)
		if err != nil {
			t.Fatal(err)
		}
		got, n, err := DecodeRecord(framed)
		if err != nil {
			t.Fatalf("record %d: %v", r.Type, err)
		}
		if n != len(framed) {
			t.Fatalf("record %d: consumed %d of %d", r.Type, n, len(framed))
		}
		re, err := AppendRecord(nil, &got)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(re, framed) {
			t.Fatalf("record %d: decode/re-encode not canonical", r.Type)
		}
	}
	if _, err := AppendRecord(nil, &Record{Type: 99}); err == nil {
		t.Fatal("unknown record type encoded")
	}
}

// TestJournalRefusesMutationsBehindATornRecord: once a write has failed
// (leaving, at worst, part of a record on disk) the journal acknowledges
// nothing more — a mutation journaled behind the torn record would be
// truncated away with it at the next open, after its caller was told it
// was durable.
func TestJournalRefusesMutationsBehindATornRecord(t *testing.T) {
	path := filepath.Join(t.TempDir(), "shardmap.log")
	j, err := OpenJournal(path, JournalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Add(Entry{ID: 0}); err != nil {
		t.Fatal(err)
	}
	if err := j.Add(Entry{ID: 1}); err != nil {
		t.Fatal(err)
	}
	acked := j.Map()

	// The write fails part-way: the descriptor goes bad, and half a
	// record is what reached the disk.
	j.f.Close()
	half, err := AppendRecord(nil, &Record{Type: RecAdd, Seq: 3, Epoch: 3, Entry: Entry{ID: 2}})
	if err != nil {
		t.Fatal(err)
	}
	disk, _ := os.ReadFile(path)
	disk = append(disk, half[:len(half)/2]...)
	if err := os.WriteFile(path, disk, 0o644); err != nil {
		t.Fatal(err)
	}

	first := j.Add(Entry{ID: 2})
	if first == nil || j.Err() == nil {
		t.Fatalf("mutation after the failure: err %v, Err() %v", first, j.Err())
	}
	for name, err := range map[string]error{
		"Add":     j.Add(Entry{ID: 3}),
		"Remove":  j.Remove(0),
		"SetAddr": j.SetAddr(1, 0xBEEF),
	} {
		if err == nil || err.Error() != first.Error() {
			t.Fatalf("%s behind the torn record: %v, want the first failure %v", name, err, first)
		}
	}
	if j.Seq() != 2 || j.Map().Epoch() != acked.Epoch() || j.Map().Len() != 2 {
		t.Fatalf("refused mutations moved the map: seq %d epoch %d len %d", j.Seq(), j.Map().Epoch(), j.Map().Len())
	}
	if now, _ := os.ReadFile(path); !bytes.Equal(now, disk) {
		t.Fatal("a refused mutation wrote to the journal")
	}

	// Recovery drops the torn record and finds exactly what was
	// acknowledged.
	j2, err := OpenJournal(path, JournalOptions{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if m := j2.Map(); j2.Seq() != 2 || m.Epoch() != acked.Epoch() || m.Len() != 2 {
		t.Fatalf("recovered seq %d epoch %d len %d, want the two acknowledged adds", j2.Seq(), m.Epoch(), m.Len())
	}
}
