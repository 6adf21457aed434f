package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// TestFlagsGolden pins the daemon's flag surface: -h must list exactly
// the flags (names, defaults, help text) in testdata/flags.golden, so a
// knob added or removed shows up as a diff to that file.
func TestFlagsGolden(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "flipcd")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	out, _ := exec.Command(bin, "-h").CombinedOutput() // -h exits 0 with usage on stderr
	_, got, ok := bytes.Cut(out, []byte("\n"))         // first line names the binary path
	if !ok {
		t.Fatalf("no usage printed: %q", out)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "flags.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("flipcd -h differs from testdata/flags.golden\n--- got\n%s--- want\n%s", got, want)
	}
}
