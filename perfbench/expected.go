package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"strconv"
)

// expected.json holds the outputs recorded for the tuning seed and one
// held-out seed of every workload, written only by -record.
//
//go:embed expected.json
var expectedJSON []byte

// expectedFile maps workload, then seed, to the recorded outputs.
type expectedFile map[string]map[string][]pointOutput

// expectedOutputs returns the outputs recorded for the seed, or nil when
// the seed has none.
func expectedOutputs(name string, seed uint64) ([]pointOutput, error) {
	var f expectedFile
	if err := json.Unmarshal(expectedJSON, &f); err != nil {
		return nil, fmt.Errorf("embedded expected.json: %w", err)
	}
	return f[name][strconv.FormatUint(seed, 10)], nil
}

// record runs every workload at each seed, untraced and traced, and writes
// the traced outputs (they carry every hash) to path. It refuses to record
// a seed whose runs fail or disagree, and never runs as part of a
// measurement: changing expected outputs is always an explicit step.
func record(path string, seeds []uint64) error {
	def, err := readBenchmark(benchmarkPath)
	if err != nil {
		return err
	}
	f := expectedFile{}
	for _, name := range def.workloadNames() {
		f[name] = map[string][]pointOutput{}
		for _, seed := range seeds {
			chk := &checker{points: pointsOf(name)}
			chk.check(spawn(name, seed, false), true)
			t := spawn(name, seed, true)
			chk.check(t, true)
			if chk.failed > 0 {
				return fmt.Errorf("%s seed %d: %s", name, seed, chk.firstFailure)
			}
			f[name][strconv.FormatUint(seed, 10)] = t.res.Outputs
			fmt.Fprintf(os.Stderr, "recorded %s seed %d\n", name, seed)
		}
	}
	b, err := json.MarshalIndent(f, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
