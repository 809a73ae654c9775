package sim

import (
	"reflect"
	"strings"
	"testing"

	"shadow/internal/dram"
	"shadow/internal/hammer"
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
	spanCol := span.NewCollector(0)
	spanned := view(run(nil, spanCol))

	spanRec := obs.NewRecorder(obs.Options{Metrics: true, Events: true})
	spanFullCol := span.NewCollector(0)
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
	flightFullCol := span.NewCollector(0)
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
