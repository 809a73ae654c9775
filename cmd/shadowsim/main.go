// Command shadowsim runs one system simulation: a workload on a DRAM rank
// under a chosen Row Hammer mitigation, reporting performance and device
// statistics.
//
// Usage:
//
//	shadowsim -scheme shadow -workload mix-high -hcnt 4096 -duration-us 200
//	shadowsim -scheme baseline -workload mcf -grade ddr5
//	shadowsim -scheme shadow -trace-out t.json -metrics-out m.json
//	shadowsim -list   # show available workloads, schemes, and attacks
//
// The observability outputs (-trace-out, -metrics-out, -flight-out,
// -cpuprofile/-memprofile) go through internal/cli, the output path
// shadowexp shares; their status lines print on stderr. The -inspect live
// inspector is the fleet collector shadowexp serves, over a one-worker,
// one-point fleet.
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"
	"time"

	"shadow/internal/cli"
	"shadow/internal/cmdtrace"
	"shadow/internal/dram"
	"shadow/internal/exp"
	"shadow/internal/hammer"
	"shadow/internal/memctrl"
	"shadow/internal/obs"
	"shadow/internal/obs/fleet"
	"shadow/internal/obs/flight"
	"shadow/internal/obs/span"
	"shadow/internal/report"
	"shadow/internal/security"
	"shadow/internal/sim"
	"shadow/internal/timing"
	"shadow/internal/trace"
)

// attackNames lists the -attack patterns, in -list order.
var attackNames = []string{"single-sided", "double-sided", "blast", "half-double"}

// grades maps the -grade names to speed grades.
var grades = map[string]timing.Grade{"ddr4": timing.DDR4_2666, "ddr5": timing.DDR5_4800}

func main() {
	scheme := flag.String("scheme", "shadow", "mitigation scheme")
	workload := flag.String("workload", "mix-high", "workload: mix-high, mix-blend, mix-random, random-stream, a profile name, or replay:<file.csv>")
	hcnt := flag.Int("hcnt", 4096, "Row Hammer threshold")
	blast := flag.Int("blast", 3, "blast radius")
	grade := flag.String("grade", "ddr4", "speed grade: ddr4 or ddr5")
	cores := flag.Int("cores", 4, "cores for multiprogrammed mixes")
	durationUS := flag.Int("duration-us", 200, "simulated duration, microseconds")
	seed := flag.Uint64("seed", 1, "seed")
	attack := flag.String("attack", "", "run an attack instead of a workload: "+strings.Join(attackNames, ", "))
	verifyProtocol := flag.Bool("verify-protocol", false, "validate the MC's command stream with the independent JEDEC checker")
	acts := flag.Int64("acts", 1<<16, "attack activation budget")
	list := flag.Bool("list", false, "list workloads, schemes, and attacks")
	traceOut := flag.String("trace-out", "", "write a Chrome trace-event JSON (open in ui.perfetto.dev)")
	metricsOut := flag.String("metrics-out", "", "write the metrics dump as JSON")
	blame := flag.Bool("blame", false, "print the shadowtap stall-blame breakdown after the run")
	inspect := flag.String("inspect", "", "serve the live inspector on this address (e.g. :8080)")
	flightCap := flag.Int("flight", flight.DefaultCapacity, "flight recorder capacity in events (0 disables the always-on flight lane)")
	flightOut := flag.String("flight-out", "", "write the flight-recorder dump (event window + watchdog trip) to this JSON file at exit")
	cpuprofile := flag.String("cpuprofile", "", "write a pprof CPU profile of the simulator")
	memprofile := flag.String("memprofile", "", "write a pprof heap profile at exit")
	flag.Parse()
	if *cores < 0 {
		cli.Usagef("-cores must be non-negative, got %d", *cores)
	}
	if *hcnt <= 0 {
		cli.Usagef("-hcnt must be positive, got %d", *hcnt)
	}
	if *acts <= 0 {
		cli.Usagef("-acts must be positive, got %d", *acts)
	}
	if *scheme != string(exp.Baseline) && !slices.Contains(exp.AllSchemes, exp.Scheme(*scheme)) {
		cli.Usagef("unknown scheme %q (have: baseline %s)", *scheme, strings.Join(schemeNames(), " "))
	}
	g, ok := grades[*grade]
	if !ok {
		cli.Usagef("unknown grade %q (have: ddr4 ddr5)", *grade)
	}

	if *list {
		fmt.Println("schemes: baseline", strings.Join(schemeNames(), " "))
		fmt.Println("workloads: mix-high mix-blend mix-random random-stream", strings.Join(trace.Names(), " "))
		fmt.Println("attacks:", strings.Join(attackNames, " "))
		return
	}

	warnFallback(exp.Scheme(*scheme), *hcnt)
	cli.StartProfiles(*cpuprofile, *memprofile)
	defer cli.StopProfiles()

	o := exp.RunOpts{Duration: timing.Tick(*durationUS) * timing.Microsecond, Cores: *cores, Seed: *seed}
	geo := o.Geometry(g)

	// The flight recorder is the always-on telemetry lane: a fixed ring of
	// the last -flight hot-path events, recorded at zero allocations, dumped
	// when a watchdog trips, the process panics, or -flight-out asks for it.
	watch := cli.NewWatch(*flightCap)
	defer cli.RecoverFlight(watch, *flightOut)
	ring := watch.Ring()

	rec := cli.NewRecorder(*traceOut != "", *metricsOut != "" || *inspect != "", watch)
	var probe *obs.Probe
	label := *scheme + "/" + *workload
	if *attack != "" {
		label = *scheme + "/attack:" + *attack
	}
	if rec != nil {
		probe = rec.NewTrack(label)
	}

	if *attack != "" {
		runAttack(*attack, exp.Scheme(*scheme), g, geo, *hcnt, *blast, *acts, *seed, o.Duration, probe)
		cli.ExitOn(cli.WriteObs(rec, *traceOut, *metricsOut))
		// Attack runs dump the window on request but arm no watchdogs:
		// bit flips are the experiment, not an anomaly.
		cli.ExitOn(cli.WriteFlightFile(watch, *flightOut))
		return
	}

	var profiles []trace.Profile
	if !strings.HasPrefix(*workload, "replay:") {
		var err error
		profiles, err = resolveWorkload(*workload, *cores, geo)
		cli.ExitOn(err)
	}

	var workloads []trace.Generator
	var names []string
	if strings.HasPrefix(*workload, "replay:") {
		path := strings.TrimPrefix(*workload, "replay:")
		f, err := os.Open(path)
		cli.ExitOn(err)
		events, err := trace.ReadEvents(f)
		cli.ExitOn(err)
		cli.ExitOn(f.Close())
		if n := trace.ClampEvents(events, geo.Banks, geo.PARowsPerBank()); n > 0 {
			fmt.Printf("note: folded %d events into the %d-bank/%d-row geometry\n", n, geo.Banks, geo.PARowsPerBank())
		}
		r, err := trace.NewReplay(path, events)
		cli.ExitOn(err)
		workloads = []trace.Generator{r}
		names = []string{path}
	} else {
		workloads = trace.Generators(profiles, geo, *seed)
		for _, p := range profiles {
			names = append(names, p.Name)
		}
	}

	pt := exp.Point{Scheme: exp.Scheme(*scheme), HCnt: *hcnt, Blast: *blast, Grade: g, Seed: *seed}
	p, dm, mc := pt.Build(geo, o.Duration)
	var checker *cmdtrace.Checker
	var onCmd func(int, memctrl.Cmd)
	if *verifyProtocol {
		checker = cmdtrace.New(p, geo.Banks)
		onCmd = func(ch int, c memctrl.Cmd) { checker.Observe(c) }
	}
	var spans *span.Collector
	if *blame || *inspect != "" {
		spans = span.NewCollector(0)
	}
	blameRows := func() []report.BlameRow { return []report.BlameRow{{Label: label, Agg: spans.Aggregate()}} }

	// Arm the anomaly watchdogs. A trip freezes the ring at that moment so
	// the dump shows the events leading up to the anomaly, not its aftermath.
	var progressFn func(timing.Tick)
	if ring != nil {
		watch.Add(flight.FlipDetector(ring))
		if spans != nil {
			watch.Add(flight.Conservation(spans.Aggregate))
		}
		progressFn = func(now timing.Tick) { watch.Check(now) }
	}

	// The live inspector sees the run as worker w0 of a one-point fleet.
	var insp *fleet.Collector
	var cmdHash *flight.CmdHash
	stopInspector := func() {}
	if *inspect != "" {
		insp = fleet.NewCollector(time.Now)
		insp.SetSources(fleet.Sources{
			Blame:  func() []byte { return report.BlameJSON(blameRows()) },
			Flight: watch,
		})
		var err error
		stopInspector, err = cli.Serve("inspector", *inspect, insp.Handler())
		cli.ExitOn(err)
		insp.ExpectPoints(1)
		insp.PointStart("w0", label, *scheme, *seed)
		cmdHash = flight.NewCmdHash()
		observeCmd := onCmd
		onCmd = func(ch int, c memctrl.Cmd) {
			if observeCmd != nil {
				observeCmd(ch, c)
			}
			cmdHash.Note(int(c.Kind), c.Bank, c.Row, c.At)
		}
		tick := progressFn
		progressFn = func(now timing.Tick) {
			if tick != nil {
				tick(now)
			}
			if insp.PointProgress("w0", label, now, o.Duration) {
				insp.Ingest("w0", rec)
			}
		}
	}

	res, err := sim.Run(sim.Config{
		Params: p, Geometry: geo, DeviceMit: dm, MCSide: mc,
		Hammer:    hammer.Config{HCnt: *hcnt, BlastRadius: *blast},
		Workload:  workloads,
		Duration:  o.Duration,
		OnCommand: onCmd,
		Probe:     probe,
		Spans:     spans,
		Progress:  progressFn,
	})
	cli.ExitOn(err)
	// Final watchdog pass at run end: conservation over the complete span
	// aggregate, flips from the last progress interval.
	watch.Check(o.Duration)
	insp.PointDone("w0", label, *scheme, *seed, cmdHash.Sum())
	insp.Ingest("w0", rec)

	fmt.Printf("scheme=%s workload=%s grade=%v hcnt=%d blast=%d duration=%v\n",
		*scheme, *workload, g, *hcnt, *blast, o.Duration)
	fmt.Printf("RAAIMT=%d tRCD'=%v tRFM=%v\n", p.RAAIMT, p.EffectiveRCD(), p.RFM)
	for i, ipc := range res.IPC {
		fmt.Printf("core %2d (%-12s): IPC %.3f inst/ns (%d instructions)\n",
			i, names[i], ipc, res.Insts[i])
	}
	s := res.MC
	fmt.Printf("MC: acts=%d reads=%d writes=%d pres=%d refs=%d rfms=%d swaps=%d\n",
		s.Acts, s.Reads, s.Writes, s.Pres, s.Refs, s.RFMs, s.Swaps)
	fmt.Printf("    row-hit rate %.1f%%, avg read latency %v, channel blocked %v\n",
		s.RowHitRate()*100, s.AvgReadLatency(), s.BlockedTime)
	d := res.Dev
	fmt.Printf("device: row-copies=%d refreshed-rows=%d bit-flips=%d\n",
		d.RowCopies, d.RefRows, res.Flips)
	if checker != nil {
		if err := checker.Err(); err != nil {
			fmt.Printf("protocol: %v\n", err)
			cli.Exit(1)
		}
		fmt.Printf("protocol: %d commands verified, 0 violations\n", checker.Commands())
	}
	if *blame {
		rows := blameRows()
		fmt.Println()
		fmt.Print(report.BlameTable("stall blame (percent of resident time per cause)", rows))
		fmt.Println()
		fmt.Print(report.CriticalPath(label, rows[0].Agg))
	}
	cli.ExitOn(cli.WriteObs(rec, *traceOut, *metricsOut))
	cli.ExitOn(cli.WriteFlightFile(watch, *flightOut))
	stopInspector()
	if watch.Tripped() != nil {
		cli.Exit(1)
	}
}

// attackPattern builds a named attack pattern over the geometry.
func attackPattern(name string, geo dram.Geometry) (trace.Pattern, error) {
	victim := geo.RowsPerSubarray / 2
	switch name {
	case "single-sided":
		return &trace.SingleSided{Bank: 0, Row: victim}, nil
	case "double-sided":
		return &trace.DoubleSided{Bank: 0, Victim: victim}, nil
	case "blast":
		return trace.Blast(0, victim, 2), nil
	case "half-double":
		return &trace.HalfDouble{Bank: 0, Victim: victim}, nil
	}
	return nil, fmt.Errorf("unknown attack %q (have: %s)", name, strings.Join(attackNames, ", "))
}

// warnFallback notes on stderr a run whose RAAIMT derives from SHADOW's
// secure threshold (SHADOW itself, and PARFM) at an H_cnt that has none:
// exp.ShadowRAAIMT then falls back to RAAIMT 8 without saying so.
func warnFallback(scheme exp.Scheme, hcnt int) {
	if (scheme == exp.Shadow || scheme == exp.PARFM) && security.SecureRAAIMT(hcnt) == 0 {
		fmt.Fprintf(os.Stderr, "warning: no secure RAAIMT in [8,4096] for Hcnt %d; %s runs from SHADOW's fallback RAAIMT %d\n",
			hcnt, scheme, exp.ShadowRAAIMT(hcnt))
	}
}

// runAttack mounts a Row Hammer pattern against the configured device and
// reports flips plus a full integrity scrub.
func runAttack(pattern string, scheme exp.Scheme, g timing.Grade, geo dram.Geometry, hcnt, blast int, acts int64, seed uint64, duration timing.Tick, probe *obs.Probe) {
	pat, err := attackPattern(pattern, geo)
	cli.ExitOn(err)
	pt := exp.Point{Scheme: scheme, HCnt: hcnt, Blast: blast, Grade: g, Seed: seed}
	p, dm, mcside := pt.Build(geo, duration)
	res, err := sim.RunAttack(sim.AttackConfig{
		Params:    p,
		Geometry:  geo,
		Hammer:    hammer.Config{HCnt: hcnt, BlastRadius: blast},
		DeviceMit: dm,
		MCSide:    mcside,
		MaxActs:   acts,
		Duration:  timing.Forever / 2,
		Probe:     probe,
	}, pat)
	cli.ExitOn(err)
	fmt.Printf("attack=%s scheme=%s hcnt=%d blast=%d\n", pat.Name(), scheme, hcnt, blast)
	fmt.Printf("activations: %d over %v (%d RFMs)\n", res.Acts, res.Elapsed, res.MC.RFMs)
	rep := res.Device.Scrub()
	fmt.Printf("scrub: %d rows checked, %d corrupted rows, %d flipped bits\n",
		rep.RowsChecked, rep.CorruptedRows, rep.CorruptedBits)
	if rep.CorruptedRows == 0 {
		fmt.Println("result: device integrity intact")
	} else {
		fmt.Println("result: ROW HAMMER CORRUPTION")
	}
}

func resolveWorkload(name string, cores int, geo interface{ PARowsPerBank() int }) ([]trace.Profile, error) {
	switch name {
	case "mix-high":
		return trace.MixHigh(cores), nil
	case "mix-blend":
		return trace.MixBlend(cores), nil
	case "mix-random":
		return trace.MixRandom(cores, 20230223), nil
	case "random-stream":
		return []trace.Profile{{Name: "random-stream", MPKI: 200, RowLocality: 0, WriteFrac: 0.2}}, nil
	default:
		p, err := trace.ProfileByName(name)
		if err != nil {
			return nil, err
		}
		return []trace.Profile{p}, nil
	}
}

func schemeNames() []string {
	out := make([]string, len(exp.AllSchemes))
	for i, s := range exp.AllSchemes {
		out[i] = string(s)
	}
	return out
}
