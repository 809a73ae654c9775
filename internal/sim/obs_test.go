package sim

import (
	"reflect"
	"strings"
	"testing"

	"shadow/internal/dram"
	"shadow/internal/hammer"
	"shadow/internal/mitigate"
	"shadow/internal/obs"
	"shadow/internal/obs/flight"
	"shadow/internal/obs/span"
	"shadow/internal/shadow"
	"shadow/internal/timing"
	"shadow/internal/trace"
)

// TestObservationDoesNotPerturbStats is the shadowscope counterpart of
// FuzzSimulation's same-seed oracle: attaching probes must never change what the
// simulator computes. The same seeded config runs three ways — probes off,
// metrics only, and full event tracing — and every reported statistic must be
// bit-identical across all three. A divergence means an instrument leaked
// into simulation state (e.g. an Observe with a side effect, or probe-gated
// control flow).
func TestObservationDoesNotPerturbStats(t *testing.T) {
	run := func(probe *obs.Probe, spans *span.Collector) *Result {
		g := smallGeo()
		profiles := trace.MixHigh(2)
		for i := range profiles {
			profiles[i].WorkingSetRows = 1 << 10
		}
		res, err := Run(Config{
			Params:    shadowParams(64),
			Geometry:  g,
			Hammer:    hammer.Config{HCnt: 4096, BlastRadius: 3},
			DeviceMit: shadow.New(shadow.Options{Seed: 99}),
			Workload:  trace.Generators(profiles, g, 99),
			Duration:  80 * timing.Microsecond,
			Probe:     probe,
			Spans:     spans,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	type statsView struct {
		Duration timing.Tick
		Insts    []int64
		IPC      []float64
		MC       any
		Dev      dram.BankStats
		Flips    int
		Records  []dram.FlipRecord
		Scrub    dram.ScrubReport
	}
	view := func(r *Result) statsView {
		return statsView{
			Duration: r.Duration,
			Insts:    r.Insts,
			IPC:      r.IPC,
			MC:       r.MC,
			Dev:      r.Dev,
			Flips:    r.Flips,
			Records:  r.Device.Flips(),
			Scrub:    r.Device.Scrub(),
		}
	}

	bare := view(run(nil, nil))

	metRec := obs.NewRecorder(obs.Options{Metrics: true})
	metrics := view(run(metRec.NewTrack("m"), nil))

	fullRec := obs.NewRecorder(obs.Options{Metrics: true, Events: true})
	full := view(run(fullRec.NewTrack("f"), nil))

	// Shadowtap's span tracking sits directly on the controller's scheduling
	// decisions, so it is held to the same neutrality bar: spans on (with and
	// without event probing) must not move a single statistic.
	spanCol := span.NewCollector()
	spanned := view(run(nil, spanCol))

	spanRec := obs.NewRecorder(obs.Options{Metrics: true, Events: true})
	spanFullCol := span.NewCollector()
	spanFull := view(run(spanRec.NewTrack("s"), spanFullCol))

	// The always-on telemetry config — metrics plus a flight ring, no
	// growable event log — is held to the same neutrality bar: the tee in
	// Recorder.emit and the emitEvents fast path in the controller must not
	// move a single statistic.
	flightRing := flight.NewRing(1024)
	flightRec := obs.NewRecorder(obs.Options{Metrics: true, Flight: flightRing})
	flighted := view(run(flightRec.NewTrack("fl"), nil))

	// And flight combined with spans and the event log (everything on).
	flightFullRing := flight.NewRing(1024)
	flightFullRec := obs.NewRecorder(obs.Options{Metrics: true, Events: true, Flight: flightFullRing})
	flightFullCol := span.NewCollector()
	flightFull := view(run(flightFullRec.NewTrack("ff"), flightFullCol))

	if !reflect.DeepEqual(bare, metrics) {
		t.Errorf("metrics-only run diverged from unobserved run:\n bare: %+v\n metrics: %+v", bare, metrics)
	}
	if !reflect.DeepEqual(bare, full) {
		t.Errorf("fully traced run diverged from unobserved run:\n bare: %+v\n traced: %+v", bare, full)
	}
	if !reflect.DeepEqual(bare, spanned) {
		t.Errorf("span-tracked run diverged from unobserved run:\n bare: %+v\n spans: %+v", bare, spanned)
	}
	if !reflect.DeepEqual(bare, spanFull) {
		t.Errorf("span+trace run diverged from unobserved run:\n bare: %+v\n span+trace: %+v", bare, spanFull)
	}
	if !reflect.DeepEqual(bare, flighted) {
		t.Errorf("flight-recorded run diverged from unobserved run:\n bare: %+v\n flight: %+v", bare, flighted)
	}
	if !reflect.DeepEqual(bare, flightFull) {
		t.Errorf("flight+span+trace run diverged from unobserved run:\n bare: %+v\n flight+all: %+v", bare, flightFull)
	}

	// The flight runs must actually have recorded, or their equalities are
	// vacuous; the everything-on ring additionally sees span events.
	if flightRing.Total() == 0 {
		t.Fatal("flight run recorded no events")
	}
	if flightRing.KindCount(obs.KindACT) == 0 {
		t.Error("flight ring captured no ACT events")
	}
	if flightFullRing.KindCount(obs.KindSpan) == 0 {
		t.Error("flight+span ring captured no span events")
	}

	// The span runs must have recorded conserved spans, or their equalities
	// are vacuous; and the two span runs must agree with each other (probing
	// must not change what the tracker records).
	for _, col := range []*span.Collector{spanCol, spanFullCol} {
		agg := col.Aggregate()
		if agg.Spans == 0 {
			t.Fatal("span run recorded no spans")
		}
		if !agg.Conserved() {
			t.Errorf("span aggregate not conserved: stall %d != resident %d", agg.StallTotal(), agg.Resident)
		}
	}
	if a, b := spanCol.Aggregate(), spanFullCol.Aggregate(); !reflect.DeepEqual(a, b) {
		t.Errorf("span aggregates differ with/without event probe:\n unprobed: %+v\n probed: %+v", a, b)
	}

	// The observed runs must actually have observed something, or the
	// equalities above are vacuous.
	if h := metRec.Metrics().LookupHistogram("m/mc/read_latency_ticks"); h.Count() == 0 {
		t.Error("metrics run recorded no read latencies")
	}
	kinds := map[obs.Kind]int{}
	for _, e := range fullRec.Events() {
		kinds[e.Kind]++
	}
	for _, k := range []obs.Kind{obs.KindACT, obs.KindRFM, obs.KindShuffle} {
		if kinds[k] == 0 {
			t.Errorf("traced run captured no %s events (got %v)", k, kinds)
		}
	}

	// And the capture must render as a Chrome trace naming those events.
	var b strings.Builder
	if err := fullRec.WriteChromeTrace(&b); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"name":"ACT"`, `"name":"RFM"`, `"name":"shuffle"`} {
		if !strings.Contains(b.String(), want) {
			t.Errorf("Chrome trace missing %s", want)
		}
	}

	// The probed span run must have emitted per-request duration events that
	// render as blame-labeled flame rows on per-core lane threads.
	spanEvents := 0
	for _, e := range spanRec.Events() {
		if e.Kind == obs.KindSpan {
			spanEvents++
		}
	}
	if spanEvents == 0 {
		t.Fatal("span+trace run emitted no KindSpan events")
	}
	var sb strings.Builder
	if err := spanRec.WriteChromeTrace(&sb); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"name":"req:`, `"name":"core 0 lane 0"`} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("Chrome trace missing %s", want)
		}
	}
}

// TestCountersCoverWarmupWindow holds the counters that mirror Result's
// windowed statistics to Result under a warm-up: they restart where Run
// starts the measurement window, so a -metrics-out dump of a figure run
// counts what the figure reads. A 4-row working set at H_cnt 16 flips bits
// on both sides of the warm-up.
func TestCountersCoverWarmupWindow(t *testing.T) {
	profiles := trace.MixHigh(2)
	for i := range profiles {
		profiles[i].WorkingSetRows = 4
	}
	rec := obs.NewRecorder(obs.Options{Metrics: true})
	res, err := Run(Config{
		Params: shadowParams(8), Geometry: smallGeo(), DeviceMit: shadow.New(shadow.Options{Seed: 7}),
		Hammer:   hammer.Config{HCnt: 16, BlastRadius: 3},
		Workload: trace.Generators(profiles, smallGeo(), 7),
		Duration: 80 * timing.Microsecond,
		Warmup:   40 * timing.Microsecond,
		Probe:    rec.NewTrack("r"),
	})
	if err != nil {
		t.Fatal(err)
	}
	var insts int64
	for _, v := range res.Insts {
		insts += v
	}
	want := map[string]int64{
		"r/mc/acts": res.MC.Acts, "r/mc/rfms": res.MC.RFMs, "r/sim/insts": insts,
		"r/dram/flips_total": int64(res.Flips),
	}
	for _, r := range rec.Metrics().Snapshot().Counters {
		w, ok := want[r.Name]
		if !ok {
			continue
		}
		delete(want, r.Name)
		if r.Value != w {
			t.Errorf("counter %s = %d, Result says %d", r.Name, r.Value, w)
		}
		if w == 0 {
			t.Errorf("counter %s is 0: the window never exercised it", r.Name)
		}
	}
	for name := range want {
		t.Errorf("counter %s not registered", name)
	}
}

// TestCountersMatchStats cross-checks the metrics registry against the
// statistics the run reports: with Warmup 0 every event counter the
// simulator registers equals the stats field it mirrors, so the counts a
// -metrics-out dump or /metrics shows are the ones the figures are read
// from. The three runs cover SHADOW's shuffles (mix-high), BlockHammer's
// throttled ACTs (a low H_cnt over a concentrated working set), and RRS's
// channel-blocking swaps; the last also flips bits under a low H_cnt.
func TestCountersMatchStats(t *testing.T) {
	g := smallGeo()
	profiles := func(rows int) []trace.Profile {
		ps := trace.MixHigh(2)
		for i := range ps {
			ps[i].WorkingSetRows = rows
		}
		return ps
	}
	sh := shadow.New(shadow.Options{Seed: 7})
	bh := mitigate.NewBlockHammer(mitigate.BlockHammerConfig{
		Hammer: hammer.Config{HCnt: 16, BlastRadius: 3},
		REFW:   40 * timing.Microsecond,
		Seed:   3,
	})
	runs := []struct {
		name  string
		cfg   Config
		want  map[string]func(*Result) int64
		fired []string // counters that must be non-zero, so the run is not vacuous
	}{
		{
			name: "shadow",
			cfg: Config{
				Params: shadowParams(64), DeviceMit: sh,
				Hammer:   hammer.Config{HCnt: 4096, BlastRadius: 3},
				Workload: trace.Generators(profiles(1<<10), g, 7),
			},
			want:  map[string]func(*Result) int64{"shadow/shuffles": func(*Result) int64 { return sh.Stats.Shuffles }},
			fired: []string{"shadow/shuffles"},
		},
		{
			name: "blockhammer",
			cfg: Config{
				Params: baseParams(), MCSide: bh,
				Hammer:   hammer.Config{HCnt: 16, BlastRadius: 3},
				Workload: trace.Generators(profiles(4), g, 3),
			},
			want:  map[string]func(*Result) int64{"blockhammer/throttled": func(*Result) int64 { return bh.Blacklisted }},
			fired: []string{"blockhammer/throttled"},
		},
		{
			name: "rrs",
			cfg: Config{
				Params: baseParams(),
				MCSide: mitigate.NewRRS(mitigate.RRSConfig{
					SwapThreshold: 8, RowsPerBank: g.PARowsPerBank(), REFW: baseParams().REFW, Seed: 4,
				}),
				Hammer:   hammer.Config{HCnt: 8, BlastRadius: 3},
				Workload: trace.Generators(profiles(4), g, 4),
			},
			// H_cnt 8 sits at RRS's swap threshold, so rows flip between
			// swaps.
			fired: []string{"mc/blocked_ticks", "dram/flips_total"},
		},
	}
	for _, tc := range runs {
		t.Run(tc.name, func(t *testing.T) {
			rec := obs.NewRecorder(obs.Options{Metrics: true})
			cfg := tc.cfg
			cfg.Geometry = g
			cfg.Duration = 80 * timing.Microsecond
			cfg.Probe = rec.NewTrack("r")
			res, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			want := map[string]func(*Result) int64{
				"mc/acts":          func(r *Result) int64 { return r.MC.Acts },
				"mc/rfms":          func(r *Result) int64 { return r.MC.RFMs },
				"mc/blocked_ticks": func(r *Result) int64 { return int64(r.MC.BlockedTime) },
				"dram/flips_total": func(r *Result) int64 { return int64(r.Flips) },
				"sim/insts": func(r *Result) int64 {
					var n int64
					for _, v := range r.Insts {
						n += v
					}
					return n
				},
			}
			for name, f := range tc.want {
				want[name] = f
			}
			counters := map[string]int64{}
			for _, r := range rec.Metrics().Snapshot().Counters {
				counters[strings.TrimPrefix(r.Name, "r/")] = r.Value
			}
			for name, f := range want {
				got, ok := counters[name]
				if !ok {
					t.Errorf("counter %s not registered (have %v)", name, counters)
					continue
				}
				if w := f(res); got != w {
					t.Errorf("counter %s = %d, stats say %d", name, got, w)
				}
			}
			for _, name := range append([]string{"mc/acts", "sim/insts"}, tc.fired...) {
				if counters[name] == 0 {
					t.Errorf("counter %s is 0: the run never exercised it (%v)", name, counters)
				}
			}
		})
	}
}
