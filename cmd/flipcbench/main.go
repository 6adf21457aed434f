// Command flipcbench regenerates the paper's evaluation artifacts —
// Figure 4 and every quantitative claim — from the reproduction's
// measured implementation and models (experiments E1–E10; see
// DESIGN.md §4 and EXPERIMENTS.md).
//
// Usage:
//
//	flipcbench                  # run every experiment
//	flipcbench -experiment E4   # one experiment
//	flipcbench -seed 7          # change the jitter seed
//	flipcbench -list            # list experiment IDs
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"flipc/internal/experiments"
)

func main() {
	var (
		exp  = flag.String("experiment", "all", "experiment ID (E1..E10, A1..A3) or 'all'")
		seed = flag.Int64("seed", 1996, "jitter seed (results are deterministic per seed)")
		list = flag.Bool("list", false, "list experiments and exit")
		csv  = flag.Bool("csv", false, "emit CSV instead of the aligned table (single experiment only)")
	)
	flag.Parse()

	if *list {
		for _, e := range experiments.Catalog {
			fmt.Printf("%-4s %s\n", e.ID, e.What)
		}
		return
	}
	want := strings.ToUpper(*exp)
	if want == "ALL" {
		if err := experiments.RunAll(os.Stdout, *seed); err != nil {
			fmt.Fprintf(os.Stderr, "flipcbench: %v\n", err)
			os.Exit(1)
		}
		return
	}
	for _, e := range experiments.Catalog {
		if e.ID == want {
			t, err := e.Run(*seed)
			if err != nil {
				fmt.Fprintf(os.Stderr, "flipcbench: %s: %v\n", e.ID, err)
				os.Exit(1)
			}
			var perr error
			if *csv {
				perr = t.Fcsv(os.Stdout)
			} else {
				perr = t.Fprint(os.Stdout)
			}
			if perr != nil {
				fmt.Fprintf(os.Stderr, "flipcbench: %v\n", perr)
				os.Exit(1)
			}
			return
		}
	}
	fmt.Fprintf(os.Stderr, "flipcbench: unknown experiment %q (use -list)\n", *exp)
	os.Exit(2)
}
