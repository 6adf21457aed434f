package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strconv"
)

// runAA runs n complete untraced sets, each run in a fresh child
// process, and prints per end-to-end metric and workload the minimum,
// median and maximum and the relative spread (max − min over the
// median) against the metric's bound. It returns the exit code: 1 when
// a spread exceeds its bound (for setup_s: its bound and setupFloor) or
// a run was incorrect. Two sets of runs
// of the same code must agree within the benchmark's own bounds before
// the bounds can gate anything else.
func runAA(c *config, ws []workload, n int) int {
	header(c)
	code := 0
	values := map[string][]float64{} // "workload metric" → one value per set
	for set := 0; set < n; set++ {
		for _, w := range ws {
			res, err := child(c, w.name, c.seed+uint64(set))
			if err != nil {
				fmt.Printf("set %d %s: %v\n", set, w.name, err)
				code = 1
				continue
			}
			if !res.Correct || res.Failed != 0 {
				fmt.Printf("set %d %s: incorrect run, %d of %d failed\n", set, w.name, res.Failed, res.Attempted)
				code = 1
			}
			for name, m := range res.Metrics {
				key := w.name + " " + name
				values[key] = append(values[key], m.Value)
			}
		}
	}
	fmt.Printf("\n%-14s %-26s %14s %14s %14s %8s %6s\n", "workload", "metric", "min", "median", "max", "spread", "bound")
	for _, w := range ws {
		for _, d := range endToEnd {
			v := values[w.name+" "+d.Name]
			if len(v) == 0 {
				continue
			}
			lo, med, hi := quantile(v, 0), quantile(v, 0.5), quantile(v, 1)
			spread := (hi - lo) / med
			verdict := ""
			if spread > d.Bound && !(d.Name == "setup_s" && hi-lo <= setupFloor) {
				verdict = "  EXCEEDS"
				code = 1
			}
			fmt.Printf("%-14s %-26s %14.4f %14.4f %14.4f %7.2f%% %5.0f%%%s\n", w.name, d.Name, lo, med, hi, 100*spread, 100*d.Bound, verdict)
		}
	}
	return code
}

// setupFloor is the absolute spread below which set-up times agree
// whatever their ratio: a set-up lasts a tenth of a second, and a few
// hundredths of that are the scheduler's.
const setupFloor = 0.05

// child re-runs this binary for one workload and parses the contract
// line it prints last.
func child(c *config, workload string, seed uint64) (*result, error) {
	cmd := exec.Command(os.Args[0], "-workload", workload, "-trace", "0",
		"-seed", strconv.FormatUint(seed, 10), "-seconds", strconv.FormatFloat(c.seconds, 'g', -1, 64))
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	var last []byte
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		last = append(last[:0], sc.Bytes()...)
	}
	res := &result{}
	if jerr := json.Unmarshal(last, res); jerr != nil {
		if err != nil {
			return nil, err
		}
		return nil, fmt.Errorf("child printed no result line: %w", jerr)
	}
	return res, nil
}
