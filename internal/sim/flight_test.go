package sim

import (
	"bytes"
	"encoding/json"
	"testing"

	"shadow/internal/hammer"
	"shadow/internal/obs"
	"shadow/internal/obs/flight"
	"shadow/internal/obs/span"
	"shadow/internal/shadow"
	"shadow/internal/timing"
	"shadow/internal/trace"
)

// flightConfig is the shared scenario for the flight-recorder integration
// tests: the SHADOW scheme under the high-locality mix, identical to the
// neutrality test's shape.
func flightConfig(t *testing.T) Config {
	t.Helper()
	g := smallGeo()
	profiles := trace.MixHigh(2)
	for i := range profiles {
		profiles[i].WorkingSetRows = 1 << 10
	}
	return Config{
		Params:    shadowParams(64),
		Geometry:  g,
		Hammer:    hammer.Config{HCnt: 4096, BlastRadius: 3},
		DeviceMit: shadow.New(shadow.Options{Seed: 99}),
		Workload:  trace.Generators(profiles, g, 99),
		Duration:  60 * timing.Microsecond,
	}
}

// TestFlightDumpDeterministicAcrossRuns: two same-seed runs with flight
// recording produce byte-identical dumps — the dump carries only simulated
// time and event payloads, never wall-clock or host state.
func TestFlightDumpDeterministicAcrossRuns(t *testing.T) {
	dump := func() []byte {
		ring := flight.NewRing(256)
		rec := obs.NewRecorder(obs.Options{Flight: ring})
		cfg := flightConfig(t)
		cfg.Probe = rec.NewTrack("run")
		if _, err := Run(cfg); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := flight.WriteDump(&buf, ring, nil); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a, b := dump(), dump()
	if len(a) == 0 {
		t.Fatal("empty dump")
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("same-seed flight dumps differ (%d vs %d bytes)", len(a), len(b))
	}
	var d flight.Dump
	if err := json.Unmarshal(a, &d); err != nil {
		t.Fatalf("dump does not parse: %v", err)
	}
	if d.Total == 0 || len(d.Events) == 0 {
		t.Fatalf("dump is vacuous: %+v", d)
	}
}

// TestFlightConservationWatchdogTripsMidRun injects a span-conservation
// violation partway through a live run and checks the watchdog freezes the
// ring at that moment, preserving the preceding event window (the
// EXPERIMENTS.md debugging walkthrough drives this same scenario).
func TestFlightConservationWatchdogTripsMidRun(t *testing.T) {
	ring := flight.NewRing(256)
	rec := obs.NewRecorder(obs.Options{Flight: ring})
	col := span.NewCollector()

	// The injection: past half the run, report the aggregate with one
	// resident tick the attribution never claimed.
	inject := false
	watch := flight.NewWatch(ring)
	watch.Add(flight.Conservation(func() span.Aggregate {
		a := col.Aggregate()
		if inject {
			a.Resident += 7
		}
		return a
	}))

	cfg := flightConfig(t)
	cfg.Probe = rec.NewTrack("run")
	cfg.Spans = col
	cfg.ProgressEvery = 5 * timing.Microsecond
	cfg.Progress = func(now timing.Tick) {
		if now >= 30*timing.Microsecond {
			inject = true
		}
		watch.Check(now)
	}
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}

	tr := watch.Tripped()
	if tr == nil {
		t.Fatal("injected conservation violation never tripped")
	}
	if tr.Watchdog != "span-conservation" {
		t.Fatalf("tripped watchdog = %q", tr.Watchdog)
	}
	if tr.AtPS < int64(30*timing.Microsecond) {
		t.Fatalf("tripped before the injection: at %d ps", tr.AtPS)
	}
	if !ring.Frozen() {
		t.Fatal("ring not frozen after trip")
	}
	frozenTotal := ring.Total()

	var buf bytes.Buffer
	if err := watch.WriteDump(&buf); err != nil {
		t.Fatal(err)
	}
	var d flight.Dump
	if err := json.Unmarshal(buf.Bytes(), &d); err != nil {
		t.Fatalf("dump does not parse: %v", err)
	}
	if !d.Frozen || d.Trip == nil || d.Trip.Watchdog != "span-conservation" {
		t.Fatalf("dump state = frozen:%v trip:%+v", d.Frozen, d.Trip)
	}
	if len(d.Events) == 0 {
		t.Fatal("frozen dump preserved no events")
	}
	// The run continued past the trip but the window did not move.
	if ring.Total() != frozenTotal {
		t.Fatalf("frozen ring kept recording: %d -> %d", frozenTotal, ring.Total())
	}
}
