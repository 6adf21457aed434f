package main

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// simBin is the flipcsim binary TestMain builds once; the goldens are
// compared against the command's real stdout+stderr, not a harness.
var simBin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "flipcsim-golden-")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	simBin = filepath.Join(dir, "flipcsim")
	if out, err := exec.Command("go", "build", "-o", simBin, ".").CombinedOutput(); err != nil {
		fmt.Fprintf(os.Stderr, "go build: %v\n%s", err, out)
		os.RemoveAll(dir)
		os.Exit(1)
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// TestGolden pins every invocation CI runs (plus the flagless default)
// to the output recorded before the scenarios moved onto the kit: the
// scenarios are deterministic in virtual time, so any drift in event
// order, ledger arithmetic or report wording shows up as a byte diff.
func TestGolden(t *testing.T) {
	for _, tc := range []struct{ golden, args string }{
		{"default", ""},
		{"topics", "-topics"},
		{"topics_nodes3", "-topics -nodes 3"},
		{"topics_batch", "-topics -batch 4 -flushdl 2us"},
		{"failover", "-failover"},
		{"slowsub", "-slowsub"},
		{"shards", "-shards"},
		{"shards_hot", "-shards -msgs 1000 -gap 5us"},
		{"gateway", "-gateway"},
		{"gateway_hot", "-gateway -msgs 256 -gwclients 8"},
	} {
		tc := tc
		t.Run(tc.golden, func(t *testing.T) {
			t.Parallel()
			got, err := exec.Command(simBin, strings.Fields(tc.args)...).CombinedOutput()
			if err != nil {
				t.Fatalf("flipcsim %s: %v\n%s", tc.args, err, got)
			}
			compareGolden(t, tc.golden, got)
		})
	}
}

// TestFlagsGolden pins the flag surface: -h must list exactly the
// flags (names, defaults, help text) the command had before.
func TestFlagsGolden(t *testing.T) {
	out, _ := exec.Command(simBin, "-h").CombinedOutput() // -h exits 0 with usage on stderr
	_, flags, ok := bytes.Cut(out, []byte("\n"))          // first line names the binary path
	if !ok {
		t.Fatalf("no usage printed: %q", out)
	}
	compareGolden(t, "flags", flags)
}

func compareGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	want, err := os.ReadFile(filepath.Join("testdata", name+".golden"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("output differs from testdata/%s.golden\n--- got\n%s--- want\n%s", name, got, want)
	}
}
