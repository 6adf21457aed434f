package recio

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

func frames(t *testing.T, seqs ...uint64) (all []byte, each [][]byte) {
	t.Helper()
	for _, seq := range seqs {
		b, err := Append(nil, &Frame{Type: 1, Ver: V1, Seq: seq, Payload: []byte("payload")})
		if err != nil {
			t.Fatal(err)
		}
		all = append(all, b...)
		each = append(each, b)
	}
	return all, each
}

// TestOpenFileRecoversIntactPrefix is the torn-tail discipline on one
// table: whatever follows the last intact frame — a short frame, a
// frame that fails its checksum, a frame the owner's scan stops at — is
// cut off at open, appends continue behind the prefix, and a reopen
// sees both.
func TestOpenFileRecoversIntactPrefix(t *testing.T) {
	all, each := frames(t, 1, 2, 3)
	corruptMiddle := append([]byte{}, all...)
	corruptMiddle[len(each[0])+HeaderBytes] ^= 0xFF
	cases := []struct {
		name     string
		disk     []byte
		rejectAt uint64 // the owner's scan ends the prefix at this seq
		want     []uint64
	}{
		{"missing file", nil, 0, nil},
		{"empty file", []byte{}, 0, nil},
		{"intact", all, 0, []uint64{1, 2, 3}},
		{"torn tail", all[:len(all)-3], 0, []uint64{1, 2}},
		{"torn header", all[:len(each[0])+5], 0, []uint64{1}},
		{"corrupt middle", corruptMiddle, 0, []uint64{1}},
		{"owner rejects", all, 2, []uint64{1}},
		{"garbage only", []byte("not a record file at all"), 0, nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "rec.log")
			if tc.disk != nil {
				if err := os.WriteFile(path, tc.disk, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			var got []uint64
			reject := errors.New("owner cannot parse this record")
			collect := func(b []byte) (int, error) {
				n, err := Scan(b, func(f Frame, _ int) error {
					if f.Seq == tc.rejectAt {
						return reject
					}
					got = append(got, f.Seq)
					return nil
				})
				if err == reject {
					err = nil
				}
				return n, err
			}
			f, err := OpenFile(path, true, collect)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(tc.want) {
				t.Fatalf("open replayed %v, want %v", got, tc.want)
			}
			var prefix int64
			for i := range tc.want {
				prefix += int64(len(each[i]))
			}
			if fi, _ := os.Stat(path); fi.Size() != prefix || f.Size() != prefix {
				t.Fatalf("size after open: disk %d, File %d, want the intact prefix %d", fi.Size(), f.Size(), prefix)
			}
			_, next := frames(t, 9)
			for _, d := range []Durability{Buffered, Written, Synced} {
				if err := f.Append(next[0], d); err != nil {
					t.Fatalf("append class %d: %v", d, err)
				}
			}
			back := make([]byte, f.Size()-prefix)
			if _, err := f.ReadAt(back, prefix); err != nil || !bytes.Equal(back, bytes.Repeat(next[0], 3)) {
				t.Fatalf("ReadAt behind the prefix: err %v", err)
			}
			if err := f.Close(); err != nil {
				t.Fatal(err)
			}
			got = nil
			tc.rejectAt = 0
			intact, torn, err := ScanFile(path, false, collect)
			if err != nil || torn != 0 || intact != prefix+3*int64(len(next[0])) {
				t.Fatalf("rescan: intact %d torn %d err %v", intact, torn, err)
			}
			if want := append(append([]uint64{}, tc.want...), 9, 9, 9); len(got) != len(want) {
				t.Fatalf("reopen sees %v, want %v", got, want)
			}
		})
	}
}

func TestOpenFileCallbackErrorLeavesFileAlone(t *testing.T) {
	all, _ := frames(t, 1, 2)
	path := filepath.Join(t.TempDir(), "rec.log")
	disk := append(append([]byte{}, all...), "torn"...)
	if err := os.WriteFile(path, disk, 0o644); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("cannot apply")
	if _, err := OpenFile(path, true, func([]byte) (int, error) { return 0, boom }); !errors.Is(err, boom) {
		t.Fatalf("open: %v, want the callback's error", err)
	}
	if now, _ := os.ReadFile(path); !bytes.Equal(now, disk) {
		t.Fatal("a failed open modified the file")
	}
	count := func(b []byte) (int, error) { return Scan(b, func(Frame, int) error { return nil }) }
	if _, torn, _ := ScanFile(path, false, count); torn != 4 {
		t.Fatalf("read-only scan reports torn %d, want 4", torn)
	}
	if now, _ := os.ReadFile(path); !bytes.Equal(now, disk) {
		t.Fatal("a scan without repair modified the file")
	}
}

// TestFileStickyError: one failed write and every later Append, Sync
// and Replace fails with that same error and the file does not
// grow — even once the descriptor works again, which is what separates
// sticky from merely still-broken.
func TestFileStickyError(t *testing.T) {
	path := filepath.Join(t.TempDir(), "rec.log")
	f, err := OpenFile(path, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	_, each := frames(t, 1, 2)
	if err := f.Append(each[0], Synced); err != nil {
		t.Fatal(err)
	}
	good := f.f
	if f.f, err = os.Open(path); err != nil { // read-only: writes fail
		t.Fatal(err)
	}
	first := f.Append(each[1], Written)
	if first == nil || f.Err() != first {
		t.Fatalf("write through a read-only descriptor: err %v, Err() %v", first, f.Err())
	}
	f.f.Close()
	f.f = good
	for name, op := range map[string]func() error{
		"Append":  func() error { return f.Append(each[1], Buffered) },
		"Flush":   f.Flush,
		"Sync":    f.Sync,
		"Replace": func() error { return f.Replace(each[1]) },
		"ReadAt":  func() error { _, err := f.ReadAt(make([]byte, 1), 0); return err },
	} {
		if err := op(); err != first {
			t.Fatalf("%s after the failure: %v, want the first error %v", name, err, first)
		}
	}
	if err := f.Close(); err != first {
		t.Fatalf("Close: %v, want the first error", err)
	}
	if disk, _ := os.ReadFile(path); !bytes.Equal(disk, each[0]) {
		t.Fatalf("file is %d bytes after the failure, want only the %d acknowledged", len(disk), len(each[0]))
	}
}

func TestFileReplace(t *testing.T) {
	path := filepath.Join(t.TempDir(), "rec.log")
	f, err := OpenFile(path, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	_, each := frames(t, 1, 2, 3)
	check := func(step string, want ...[]byte) {
		t.Helper()
		if err := f.Flush(); err != nil {
			t.Fatal(err)
		}
		disk, _ := os.ReadFile(path)
		if !bytes.Equal(disk, bytes.Join(want, nil)) || f.Size() != int64(len(disk)) {
			t.Fatalf("%s: file holds %d bytes (File.Size %d), want %d", step, len(disk), f.Size(), len(bytes.Join(want, nil)))
		}
	}
	if err := f.Append(each[0], Buffered); err != nil {
		t.Fatal(err)
	}
	if err := f.Replace(each[1]); err != nil {
		t.Fatal(err)
	}
	check("replace", each[1])
	if _, err := os.Stat(path + ".tmp"); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("replace left its sibling behind: %v", err)
	}
	if err := f.Append(each[2], Written); err != nil {
		t.Fatal(err)
	}
	check("append after replace", each[1], each[2])
	if err := f.Append(each[0], Buffered); err != nil {
		t.Fatal(err)
	}
	if err := f.Replace(nil); err != nil {
		t.Fatal(err)
	}
	check("replace with nothing")
	if err := f.Append(each[0], Synced); err != nil {
		t.Fatal(err)
	}
	check("append to the emptied file", each[0])
}
