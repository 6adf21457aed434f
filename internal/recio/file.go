package recio

import (
	"errors"
	"fmt"
	"os"
)

// Durability is how far an Append has travelled when it returns.
type Durability uint8

const (
	// Buffered: in the group-commit buffer, which reaches the OS with the
	// next Written or Synced append, Flush, Sync or Close, or when full.
	Buffered Durability = iota
	// Written: handed to the OS, with everything buffered before it.
	Written
	// Synced: and fsynced, unless the file was opened NoSync.
	Synced
)

// bufferBytes is where a Buffered append flushes the buffer first.
const bufferBytes = 64 << 10

// File is one append-only record file under the package comment's
// discipline. Not safe for concurrent use: the owner's lock covers it.
type File struct {
	path   string
	nosync bool
	f      *os.File
	size   int64  // bytes handed to the OS
	buf    []byte // Buffered appends not yet handed over
	err    error  // sticky: the first failed write, sync or replace
}

// ScanFile hands the bytes of the record file at path to scan, which
// returns the length of their intact prefix; ScanFile returns it and
// the size of the torn or corrupt tail behind it, which repair
// truncates away. A missing file is an empty one.
func ScanFile(path string, repair bool, scan func(b []byte) (int, error)) (intact, torn int64, err error) {
	b, err := os.ReadFile(path)
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return 0, 0, fmt.Errorf("recio: %w", err)
	}
	n, err := scan(b)
	if err != nil {
		return int64(n), 0, err
	}
	intact, torn = int64(n), int64(len(b)-n)
	if repair && torn > 0 {
		if err := os.Truncate(path, intact); err != nil {
			return intact, torn, fmt.Errorf("recio: truncate torn tail: %w", err)
		}
	}
	return intact, torn, nil
}

// OpenFile opens (creating if necessary) the record file at path for
// appending, after ScanFile has replayed it through scan and truncated
// any torn tail; a nil scan expects a new file. An error from scan
// aborts the open and leaves the file as it was.
func OpenFile(path string, nosync bool, scan func(b []byte) (int, error)) (*File, error) {
	if scan == nil {
		scan = func(b []byte) (int, error) { return len(b), nil }
	}
	size, _, err := ScanFile(path, true, scan)
	if err != nil {
		return nil, err
	}
	f := &File{path: path, nosync: nosync, size: size}
	if f.f, err = os.OpenFile(path, os.O_RDWR|os.O_APPEND|os.O_CREATE, 0o644); err != nil {
		return nil, fmt.Errorf("recio: %w", err)
	}
	return f, nil
}

// check makes a non-nil err the file's sticky error.
func (f *File) check(op string, err error) error {
	if err != nil && f.err == nil {
		f.err = fmt.Errorf("recio: %s: %w", op, err)
	}
	return f.err
}

// Append adds one or more already-framed records with durability d.
func (f *File) Append(rec []byte, d Durability) error {
	if f.err != nil {
		return f.err
	}
	if len(f.buf)+len(rec) > bufferBytes {
		if err := f.Flush(); err != nil {
			return err
		}
	}
	f.buf = append(f.buf, rec...)
	switch d {
	case Written:
		return f.Flush()
	case Synced:
		return f.Sync()
	}
	return nil
}

// Flush hands the group-commit buffer to the OS.
func (f *File) Flush() error {
	if f.err != nil || len(f.buf) == 0 {
		return f.err
	}
	n, err := f.f.Write(f.buf)
	f.size += int64(n)
	f.buf = f.buf[:0]
	return f.check("write", err)
}

// Sync flushes and, unless the file is NoSync, fsyncs.
func (f *File) Sync() error {
	if err := f.Flush(); err != nil || f.nosync {
		return err
	}
	return f.check("sync", f.f.Sync())
}

// Size returns the file's length including buffered appends — the
// offset the next record will start at.
func (f *File) Size() int64 { return f.size + int64(len(f.buf)) }

// Err returns the sticky error, if any.
func (f *File) Err() error { return f.err }

// ReadAt reads back what has been appended (buffered records included).
func (f *File) ReadAt(p []byte, off int64) (int, error) {
	if err := f.Flush(); err != nil {
		return 0, err
	}
	return f.f.ReadAt(p, off)
}

// Replace atomically swaps the file's contents for b (ReplaceFile; nil
// empties it) and continues appending behind them.
func (f *File) Replace(b []byte) error {
	if err := f.Flush(); err != nil {
		return err
	}
	if err := f.check("replace", ReplaceFile(f.path, b, f.nosync)); err != nil {
		return err
	}
	nf, err := os.OpenFile(f.path, os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return f.check("reopen", err)
	}
	f.f.Close() // the replaced inode; nothing of ours is left in it
	f.f, f.size = nf, int64(len(b))
	return nil
}

// Close syncs and closes the file. Closing twice is harmless.
func (f *File) Close() error {
	if f.f == nil {
		return nil
	}
	err := f.Sync()
	if cerr := f.f.Close(); err == nil {
		err = f.check("close", cerr)
	}
	f.f = nil
	return err
}

// ReplaceFile replaces path with b atomically: write a sibling, sync it
// (unless nosync), rename it over path.
func ReplaceFile(path string, b []byte, nosync bool) error {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("recio: %w", err)
	}
	_, err = f.Write(b)
	if err == nil && !nosync {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		return fmt.Errorf("recio: %w", err)
	}
	return nil
}
