package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"text/tabwriter"
)

// benchmarkPath is BENCHMARK.json, relative to the repository root the
// benchmark runs from. It is the one list of workloads and metrics.
const benchmarkPath = "BENCHMARK.json"

// metricDef is one metric of BENCHMARK.json; per-layer metrics have no bound.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// benchmarkDef is the part of BENCHMARK.json the benchmark reads.
type benchmarkDef struct {
	EndToEnd  []metricDef `json:"end_to_end"`
	PerLayer  []metricDef `json:"per_layer"`
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
}

func readBenchmark(path string) (benchmarkDef, error) {
	var d benchmarkDef
	b, err := os.ReadFile(path)
	if err != nil {
		return d, err
	}
	if err := json.Unmarshal(b, &d); err != nil {
		return d, fmt.Errorf("%s: %w", path, err)
	}
	return d, nil
}

func (d benchmarkDef) workloadNames() []string {
	names := make([]string, len(d.Workloads))
	for i, w := range d.Workloads {
		names[i] = w.Name
	}
	return names
}

// side is one file of benchmark output: per workload, one median per run
// and metric, and the points attempted and failed over all its runs.
type side struct {
	medians           map[string]map[string][]float64
	attempted, failed map[string]int
	order             []string
}

// failFrac is the share of the workload's points that failed on this side.
func (s side) failFrac(workload string) float64 {
	if s.attempted[workload] == 0 {
		return 0
	}
	return float64(s.failed[workload]) / float64(s.attempted[workload])
}

// readSide reads the untraced report lines of a file of benchmark output, in
// order.
func readSide(path string) (side, error) {
	s := side{medians: map[string]map[string][]float64{}, attempted: map[string]int{}, failed: map[string]int{}}
	f, err := os.Open(path)
	if err != nil {
		return s, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 16<<20)
	for sc.Scan() {
		var line struct {
			Report *report `json:"report"`
		}
		if json.Unmarshal(sc.Bytes(), &line) != nil || line.Report == nil || line.Report.Trace {
			continue
		}
		r := line.Report
		if s.medians[r.Workload] == nil {
			s.medians[r.Workload] = map[string][]float64{}
			s.order = append(s.order, r.Workload)
		}
		for name, m := range r.Metrics {
			s.medians[r.Workload][name] = append(s.medians[r.Workload][name], m.Median)
		}
		s.attempted[r.Workload] += r.Attempted
		s.failed[r.Workload] += r.Failed
	}
	return s, sc.Err()
}

// minPairs is the fewest alternating parent/change pairs a verdict rests on.
const minPairs = 10

// verdict applies the comparison rule to one metric on one workload, given
// one value per run for each side (run i of each side forms pair i):
//
//   - "unresolved" with fewer than minPairs pairs, and when the parent's
//     own spread (its quartile distance over its median) exceeds the bound
//     unless every change run beats every parent run;
//   - "regressed" when the change's median is worse than the parent's by
//     more than the bound;
//   - "improved" when the change wins at least 9 in 10 pairs (ties count
//     for neither) and the medians differ, in its favour, by more than the
//     parent's quartile distance;
//   - "same" otherwise.
func verdict(parent, change []float64, lowerIsBetter bool, bound float64) (string, int, int) {
	better := func(c, p float64) bool {
		if lowerIsBetter {
			return c < p
		}
		return c > p
	}
	pairs := len(parent)
	if len(change) < pairs {
		pairs = len(change)
	}
	wins := 0
	for i := 0; i < pairs; i++ {
		if better(change[i], parent[i]) {
			wins++
		}
	}
	pm, cm := median(parent), median(change)
	q := quartiles(parent)
	iqr := q[2] - q[0]
	allBetter := true
	for _, c := range change {
		for _, p := range parent {
			if !better(c, p) {
				allBetter = false
			}
		}
	}
	worse := cm - pm
	if !lowerIsBetter {
		worse = pm - cm
	}
	switch {
	case pairs < minPairs, iqr > bound*math.Abs(pm) && !allBetter:
		return "unresolved", wins, pairs
	case worse > bound*math.Abs(pm):
		return "regressed", wins, pairs
	case better(cm, pm) && wins*10 >= 9*pairs && math.Abs(cm-pm) > iqr:
		return "improved", wins, pairs
	}
	return "same", wins, pairs
}

// compareFiles prints one row per end-to-end metric and workload and
// reports whether any row regressed. Medians rest only on the repetitions
// that passed their checks, so when the change fails a larger share of a
// workload's points than the parent, none of that workload's rows counts:
// each reads "more-failures", which counts as a regression.
func compareFiles(w io.Writer, benchPath, parentPath, changePath string) (bool, error) {
	def, err := readBenchmark(benchPath)
	if err != nil {
		return false, err
	}
	parent, err := readSide(parentPath)
	if err != nil {
		return false, err
	}
	change, err := readSide(changePath)
	if err != nil {
		return false, err
	}
	tw := tabwriter.NewWriter(w, 0, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tparent median [q1, q3]\tchange median [q1, q3]\twins\tbound\tfailed points\tverdict")
	regressed := false
	for _, wl := range parent.order {
		moreFailures := change.failFrac(wl) > parent.failFrac(wl)
		failed := fmt.Sprintf("%d/%d, %d/%d", parent.failed[wl], parent.attempted[wl], change.failed[wl], change.attempted[wl])
		for _, m := range def.EndToEnd {
			p, c := parent.medians[wl][m.Name], change.medians[wl][m.Name]
			if len(p) == 0 || len(c) == 0 {
				v := "missing"
				if moreFailures {
					v, regressed = "more-failures", true
				}
				fmt.Fprintf(tw, "%s\t%s\t\t\t\t\t%s\t%s\n", wl, m.Name, failed, v)
				continue
			}
			v, wins, pairs := verdict(p, c, m.Better == "lower", m.Bound)
			if moreFailures {
				v = "more-failures"
			}
			regressed = regressed || v == "regressed" || v == "more-failures"
			pq, cq := quartiles(p), quartiles(c)
			fmt.Fprintf(tw, "%s\t%s\t%.4g [%.4g, %.4g] %s\t%.4g [%.4g, %.4g] %s\t%d/%d\t%.0f%%\t%s\t%s\n",
				wl, m.Name, median(p), pq[0], pq[2], m.Unit, median(c), cq[0], cq[2], m.Unit, wins, pairs, 100*m.Bound, failed, v)
		}
	}
	return regressed, tw.Flush()
}
