package main

import (
	"bufio"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestDurableScanErrorDegrades runs the daemon with -duradir naming a
// regular file: the read-only durable sweep fails on every scrape, and
// /healthz must say so (503, with the error in the body) rather than
// read as a node with no durable topics.
func TestDurableScanErrorDegrades(t *testing.T) {
	dir := t.TempDir()
	bin := filepath.Join(dir, "flipcd")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	notDir := filepath.Join(dir, "logs")
	if err := os.WriteFile(notDir, []byte("not a log root"), 0o644); err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(bin, "-listen", "127.0.0.1:0", "-http", "127.0.0.1:0", "-duradir", notDir)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		cmd.Process.Kill()
		cmd.Wait()
	})
	const banner = "flipcd: metrics on http://"
	var base string
	sc := bufio.NewScanner(stdout)
	for base == "" && sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), banner); ok {
			base, _, _ = strings.Cut(rest, "/")
		}
	}
	if base == "" {
		t.Fatal("daemon exited without printing its metrics address")
	}
	go io.Copy(io.Discard, stdout)

	client := &http.Client{Timeout: 5 * time.Second}
	resp, err := client.Get("http://" + base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("/healthz with an unreadable -duradir: %d %s", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "not a directory") {
		t.Fatalf("/healthz body lacks the scan error: %s", body)
	}
}
