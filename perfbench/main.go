// Command perfbench is the simulator's benchmark. It runs one workload for
// a fixed time, one fresh process per repetition so every cache and tracker
// starts cold, checks every simulated output, and prints every metric with
// its unit; the last line of its standard output is the JSON result.
//
// From the repository root:
//
//	bash perfbench/run.sh --workload fig8 --seed 1 --seconds 25 --trace 0
//	bash perfbench/run.sh --compare parent.out change.out
//	bash perfbench/run.sh --record --seeds 1,2
//
// See perfbench/README.md for the workloads and metrics.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
)

func main() {
	workload := flag.String("workload", "", "workload to run, as named in BENCHMARK.json")
	seed := flag.Uint64("seed", 1, "seed the workload's inputs are built from")
	seconds := flag.Int("seconds", 25, "how long to keep starting repetitions")
	traceFlag := flag.Int("trace", 0, "1 reports per-layer metrics from traced repetitions")
	child := flag.Bool("child", false, "run one repetition in this process (used by the driver)")
	setupOnly := flag.Bool("setup-only", false, "with -child, stop where the timed phase would begin")
	compare := flag.Bool("compare", false, "compare two files of benchmark output: parent, then change")
	bench := flag.String("benchmark", benchmarkPath, "benchmark definition holding the bounds, for -compare")
	recordFlag := flag.Bool("record", false, "record expected outputs for -seeds into perfbench/expected.json")
	seeds := flag.String("seeds", "1,2", "comma-separated seeds for -record")
	flag.Parse()

	var err error
	switch {
	case *traceFlag != 0 && *traceFlag != 1:
		err = fmt.Errorf("-trace must be 0 or 1, got %d", *traceFlag)
	case *compare:
		if flag.NArg() != 2 {
			err = fmt.Errorf("-compare takes two files: parent, then change")
			break
		}
		var regressed bool
		if regressed, err = compareFiles(os.Stdout, *bench, flag.Arg(0), flag.Arg(1)); err == nil && regressed {
			os.Exit(3)
		}
	case *recordFlag:
		var ss []uint64
		ss, err = parseSeeds(*seeds)
		if err == nil {
			err = record("perfbench/expected.json", ss)
		}
	case *child:
		err = childMain(*workload, *seed, *traceFlag == 1, *setupOnly)
	case *seconds < 1:
		err = fmt.Errorf("-seconds must be at least 1")
	default:
		err = drive(*workload, *seed, *seconds, *traceFlag == 1)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func parseSeeds(list string) ([]uint64, error) {
	var seeds []uint64
	for _, f := range strings.Split(list, ",") {
		s, err := strconv.ParseUint(strings.TrimSpace(f), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("-seeds: %w", err)
		}
		seeds = append(seeds, s)
	}
	return seeds, nil
}
