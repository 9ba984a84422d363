// Command perfbench is the repository's benchmark. One run sets up one
// workload, runs it closed-loop for a fixed window, checks every op's
// outputs and prints its metrics; the last line of standard output is the
// result as one JSON object.
//
//	bash perfbench/run.sh --workload cold-campaign --seed 1 --seconds 30 --trace 0
//
// With --trace 0 it reports the end-to-end metrics. With --trace 1 it traces
// half of the ops, prints each layer's self time and reports the per-layer
// metrics instead. README.md in this directory describes the workloads and
// which end-to-end metric each layer metric should move.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"
)

func main() {
	var cfg config
	var seconds, trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload: cold-campaign, signoff or floor")
	flag.Uint64Var(&cfg.seed, "seed", 1, "workload seed; the same seed gives the same inputs")
	flag.IntVar(&seconds, "seconds", 30, "length of the timed window in seconds")
	flag.IntVar(&trace, "trace", 0, "1 traces the run and reports per-layer metrics")
	flag.StringVar(&cfg.out, "out", "", "directory receiving the traced run's spans as NDJSON")
	flag.Parse()
	if seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be >= 1 and --trace 0 or 1")
		os.Exit(2)
	}
	cfg.window = time.Duration(seconds) * time.Second
	cfg.trace = trace == 1
	res, err := run(cfg, os.Stdout)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	if err := printResult(os.Stdout, res); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	if !res.Correct {
		os.Exit(1)
	}
}
