// Command shadowexp regenerates the paper's tables and figures.
//
// Usage:
//
//	shadowexp [-experiment all|table2|table3|area|fig8|fig9|fig10|fig11|fig12|adversarial]
//	          [-duration-us N] [-warmup-us N] [-cores N] [-seed N]
//	          [-trace-out t.json] [-metrics-out m.json] [-progress]
//
// Durations default to the harness's quick settings; raise -duration-us for
// higher-fidelity runs (the paper's windows are 32 ms = 32000 us).
//
// With -trace-out or -metrics-out, every scheme run of the selected
// experiments records into one shadowscope recorder (one Perfetto track per
// operating point); probing forces the point sweep to run sequentially.
// These outputs, -flight-out and the profiles go through internal/cli, the
// output path shadowsim shares, and print their status lines on stderr so
// stdout carries only the tables. The -inspect live inspector and
// -fleet-out observe the sweep through one fleet collector, which keeps it
// parallel.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"shadow/internal/cli"
	"shadow/internal/exp"
	"shadow/internal/obs"
	"shadow/internal/obs/fleet"
	"shadow/internal/obs/flight"
	"shadow/internal/obs/span"
	"shadow/internal/report"
	"shadow/internal/timing"
)

func main() {
	experiment := flag.String("experiment", "all", "which experiment to run")
	durationUS := flag.Int("duration-us", 150, "simulated duration per point, microseconds")
	warmupUS := flag.Int("warmup-us", 0, "simulated warmup per point, microseconds")
	cores := flag.Int("cores", 4, "cores per multiprogrammed mix")
	seed := flag.Uint64("seed", 1, "experiment seed")
	format := flag.String("format", "text", "output format: text or csv")
	chart := flag.Bool("chart", false, "also render performance figures as ASCII bar charts")
	traceOut := flag.String("trace-out", "", "write a Chrome trace-event JSON covering every scheme run (forces sequential points)")
	metricsOut := flag.String("metrics-out", "", "write the metrics dump as JSON (forces sequential points)")
	progress := flag.Bool("progress", false, "print per-experiment progress lines to stderr")
	blame := flag.Bool("blame", false, "print a shadowtap stall-blame table covering every scheme run (forces sequential points)")
	inspect := flag.String("inspect", "", "serve the live inspector on this address (keeps the sweep parallel; live blame needs -blame)")
	workers := flag.Int("workers", 0, "concurrent operating points per sweep (0 = GOMAXPROCS; probing flags still force 1)")
	fleetOut := flag.String("fleet-out", "", "write the inspector's final status document to this file at exit")
	flightCap := flag.Int("flight", 0, "flight recorder capacity in events (0 disables; forces sequential points)")
	flightOut := flag.String("flight-out", "", "write the flight-recorder dump to this JSON file at exit")
	cpuprofile := flag.String("cpuprofile", "", "write a pprof CPU profile of the harness")
	memprofile := flag.String("memprofile", "", "write a pprof heap profile at exit")
	flag.Parse()
	if *cores < 0 {
		cli.Usagef("-cores must be non-negative (0 = 4), got %d", *cores)
	}
	if *format != "text" && *format != "csv" {
		cli.Usagef("unknown format %q (have: text csv)", *format)
	}

	cli.StartProfiles(*cpuprofile, *memprofile)
	defer cli.StopProfiles()

	o := exp.RunOpts{
		Duration: timing.Tick(*durationUS) * timing.Microsecond,
		Warmup:   timing.Tick(*warmupUS) * timing.Microsecond,
		Cores:    *cores,
		Seed:     *seed,
		Workers:  *workers,
	}
	// Flight recording is opt-in here (unlike shadowsim): attaching probes
	// forces the point sweep sequential, so the default stays parallel.
	watch := cli.NewWatch(*flightCap)
	defer cli.RecoverFlight(watch, *flightOut)
	ring := watch.Ring()

	rec := cli.NewRecorder(*traceOut != "", *metricsOut != "", watch)
	if rec != nil {
		o.ProbeFor = rec.NewTrack
	}

	// Span tracking: one collector per scheme run, accumulated in label
	// order. SpansFor forces Workers=1, so spanRuns is only touched from one
	// goroutine at a time.
	type spanRun struct {
		label string
		col   *span.Collector
	}
	var spanRuns []spanRun
	if *blame {
		o.SpansFor = func(label string) *span.Collector {
			col := span.NewCollector(0)
			spanRuns = append(spanRuns, spanRun{label: label, col: col})
			if ring != nil {
				// Each scheme run's attribution is independently conserved.
				watch.Add(flight.Conservation(col.Aggregate))
			}
			return col
		}
	}
	blameRows := func() []report.BlameRow {
		rows := make([]report.BlameRow, 0, len(spanRuns))
		for _, r := range spanRuns {
			rows = append(rows, report.BlameRow{Label: r.label, Agg: r.col.Aggregate()})
		}
		return rows
	}

	var fleetCol *fleet.Collector
	stopInspector := func() {}
	if *inspect != "" || *fleetOut != "" {
		fleetCol = fleet.NewCollector(time.Now)
		var src fleet.Sources
		if *blame {
			src.Blame = func() []byte { return report.BlameJSON(blameRows()) }
		}
		if ring != nil {
			src.Flight = watch
		}
		fleetCol.SetSources(src)
	}
	observe(&o, fleetCol, rec, watch)
	if *inspect != "" {
		var err error
		stopInspector, err = cli.Serve("inspector", *inspect, fleetCol.Handler())
		cli.ExitOn(err)
	}

	type result struct {
		table  *exp.Table
		points []exp.PerfPoint
	}
	type runner func() (result, error)
	perf := func(f func(exp.RunOpts) ([]exp.PerfPoint, *exp.Table, error)) runner {
		return func() (result, error) {
			pts, t, err := f(o)
			return result{table: t, points: pts}, err
		}
	}
	tableOnly := func(t *exp.Table, err error) (result, error) { return result{table: t}, err }
	runners := map[string]runner{
		"table2":    func() (result, error) { return tableOnly(exp.Table2(), nil) },
		"table3":    func() (result, error) { return tableOnly(exp.Table3(), nil) },
		"area":      func() (result, error) { return tableOnly(exp.AreaTable(), nil) },
		"fig8":      perf(exp.Fig8),
		"fig8sweep": perf(exp.Fig8Sweep),
		"fig9":      perf(exp.Fig9),
		"fig10":     perf(exp.Fig10),
		"fig11":     perf(exp.Fig11),
		"fig12": func() (result, error) {
			_, t, err := exp.Fig12(o)
			return result{table: t}, err
		},
		"adversarial": func() (result, error) {
			_, t, err := exp.Adversarial(o)
			return result{table: t}, err
		},
	}
	order := []string{"table2", "table3", "area", "fig8", "fig8sweep", "fig9", "fig10", "fig11", "fig12", "adversarial"}

	var names []string
	if *experiment == "all" {
		names = order
	} else {
		for _, n := range strings.Split(*experiment, ",") {
			if _, ok := runners[n]; !ok {
				cli.Usagef("unknown experiment %q (choose from %s)", n, strings.Join(order, ", "))
			}
			names = append(names, n)
		}
	}
	for i, n := range names {
		start := time.Now()
		if *progress {
			fmt.Fprintf(os.Stderr, "[%d/%d] %s...\n", i+1, len(names), n)
		}
		r, err := runners[n]()
		if err != nil {
			cli.ExitOn(fmt.Errorf("%s: %w", n, err))
		}
		if *progress {
			line := fmt.Sprintf("[%d/%d] %s done in %v", i+1, len(names), n, time.Since(start).Round(time.Millisecond))
			if rec != nil {
				line += fmt.Sprintf(" (%d events)", rec.EventCount())
			}
			fmt.Fprintln(os.Stderr, line)
		}
		switch *format {
		case "csv":
			fmt.Printf("# %s\n%s\n", r.table.Title, r.table.CSV())
		default:
			fmt.Println(r.table)
		}
		if *chart && len(r.points) > 0 {
			fmt.Println(exp.Chart(r.table.Title+" (chart)", r.points))
		}
	}

	if *blame {
		fmt.Println()
		fmt.Print(report.BlameTable("stall blame by scheme run (percent of resident time per cause)", blameRows()))
	}
	cli.ExitOn(cli.WriteObs(rec, *traceOut, *metricsOut))
	cli.ExitOn(cli.WriteFlightFile(watch, *flightOut))
	if *fleetOut != "" {
		cli.ExitOn(os.WriteFile(*fleetOut, fleetCol.MarshalFleet(), 0o644))
		fmt.Fprintf(os.Stderr, "fleet: status -> %s\n", *fleetOut)
	}
	stopInspector()
	if watch.Tripped() != nil {
		cli.Exit(1)
	}
	// A divergence (same point+seed hashed differently on two workers) is a
	// correctness violation and fails the run.
	if d := fleetCol.Divergence(); d != "" {
		fmt.Fprintf(os.Stderr, "fleet: divergence: %s\n", d)
		cli.Exit(1)
	}
}

// observe wires the sweep's point hooks into the fleet collector (nil for
// none) and the flight watch's checks into its progress. Each fan-out worker
// records each point into a fresh recorder, touched only on its goroutine,
// so the sweep stays parallel and a worker's ingests carry only its current
// point's instruments; when ProbeFor owns the probes the sweep is sequential
// and its shared recorder rec is worker w0's. A flight ring forces that
// sequential sweep too, which the watch needs: it is not safe for
// concurrent use.
func observe(o *exp.RunOpts, col *fleet.Collector, rec *obs.Recorder, watch *flight.Watch) {
	ring := watch.Ring()
	if col == nil && ring == nil {
		return
	}
	maxWorkers := o.Workers
	if maxWorkers <= 0 {
		maxWorkers = runtime.GOMAXPROCS(0)
	}
	recs := make([]*obs.Recorder, maxWorkers)
	if rec != nil {
		recs[0] = rec
	} else if col != nil {
		o.WorkerProbe = func(worker int, label string) *obs.Probe {
			recs[worker] = obs.NewRecorder(obs.Options{Metrics: true})
			return recs[worker].NewTrack(label)
		}
	}
	wid := func(worker int) string { return fmt.Sprintf("w%d", worker) }
	o.OnPointProgress = func(worker int, label string, now, total timing.Tick) {
		if col.PointProgress(wid(worker), label, now, total) {
			col.Ingest(wid(worker), recs[worker])
		}
		if ring != nil {
			// Flips are deliberately NOT watched here: several experiments
			// measure corruption on purpose, so a flip is data, not an anomaly.
			watch.Check(now)
		}
	}
	if col == nil {
		return
	}
	o.OnPointsPlanned = col.ExpectPoints
	o.OnPointStart = func(worker int, label, scheme string, seed uint64) {
		col.PointStart(wid(worker), label, scheme, seed)
	}
	o.OnPointDone = func(worker int, label, scheme string, seed, cmdHash uint64, rel float64) {
		col.PointDone(wid(worker), label, scheme, seed, cmdHash)
		col.Ingest(wid(worker), recs[worker])
	}
}
