package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"io"
	"os"
	"path/filepath"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "rewrite testdata/render.golden from the current output")

// TestRenderGolden pins one refresh of the -watch table for a fixed
// pair of documents (testdata/watch.json: the previous sample, then the
// current one, a second apart) in which every section renders, every
// status shouted. The header line, which carries the clock and the
// clear-screen sequence, is cut before comparing.
func TestRenderGolden(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("testdata", "watch.json"))
	if err != nil {
		t.Fatal(err)
	}
	var docs [2]watchDoc
	if err := json.Unmarshal(raw, &docs); err != nil {
		t.Fatal(err)
	}
	out := captureStdout(t, func() { render(&docs[1], &docs[0], time.Second, "http://127.0.0.1:9400") })
	_, got, _ := bytes.Cut(out, []byte("\n"))
	file := filepath.Join("testdata", "render.golden")
	if *update {
		if err := os.WriteFile(file, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("render differs from %s\n--- got\n%s--- want\n%s", file, got, want)
	}
}

func captureStdout(t *testing.T, fn func()) []byte {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	saved := os.Stdout
	os.Stdout = w
	done := make(chan []byte)
	go func() {
		b, _ := io.ReadAll(r)
		done <- b
	}()
	fn()
	os.Stdout = saved
	w.Close()
	return <-done
}
