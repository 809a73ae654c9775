// Telemetry overhead budget: the always-on observation config (metrics probe
// plus flight ring — what shadowsim attaches by default) must cost at most
// 25% wall-clock over the bare simulator on the SHADOW headline point. The
// budget is asserted here so an accidentally hot instrument (an alloc on the
// event path, an unguarded format call, a probe that defeats the readiness
// cache) fails CI as a measured number rather than shipping as drift.
package shadow_test

import (
	"runtime"
	"sort"
	"testing"
	"time"

	"shadow/internal/exp"
	"shadow/internal/hammer"
	"shadow/internal/obs"
	"shadow/internal/obs/flight"
	"shadow/internal/sim"
	"shadow/internal/timing"
	"shadow/internal/trace"
)

// overheadBudgetPct is the gate: flight-config time over bare time, minus
// one, as percent. BenchmarkSim's timeskip and flight lanes time the same
// pair per scheme.
const overheadBudgetPct = 25.0

// runShadowOnce runs the headline SHADOW point once, optionally with the
// always-on telemetry lane attached, and returns the wall-clock cost plus
// the flips statistic (used to pin run equivalence).
func runShadowOnce(t *testing.T, flighted bool) (time.Duration, int) {
	t.Helper()
	o := exp.RunOpts{Duration: 60 * timing.Microsecond, Cores: 4, Subarrays: 8, Seed: 5}
	geo := o.Geometry(timing.DDR4_2666)
	profiles := trace.MixHigh(o.Cores)
	for i := range profiles {
		if profiles[i].WorkingSetRows > geo.PARowsPerBank() {
			profiles[i].WorkingSetRows = geo.PARowsPerBank()
		}
	}
	pt := exp.Point{Scheme: exp.Shadow, HCnt: 4096, Blast: 3, Grade: timing.DDR4_2666, Seed: o.Seed}
	p, dm, mc := pt.Build(geo, o.Duration)
	cfg := sim.Config{
		Params: p, Geometry: geo, DeviceMit: dm, MCSide: mc,
		Hammer:   hammer.Config{HCnt: 1 << 30, BlastRadius: 3},
		Workload: trace.Generators(profiles, geo, o.Seed),
		Duration: o.Duration,
	}
	if flighted {
		rec := obs.NewRecorder(obs.Options{Metrics: true, Flight: flight.NewRing(flight.DefaultCapacity)})
		cfg.Probe = rec.NewTrack("overhead")
	}
	// Collect the previous run's garbage off the clock, so neither side of a
	// pair pays for the other's heap.
	runtime.GC()
	start := time.Now()
	res, err := sim.Run(cfg)
	elapsed := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	return elapsed, res.Flips
}

// TestTelemetryOverheadBudget measures probed-vs-unprobed cost directly:
// K interleaved pairs (bare, flight), the median of the K per-pair ratios,
// then the budget assertion. A pair's two runs are back to back, so host
// drift mostly cancels inside each ratio, and the median sheds the pairs a
// descheduling or GC pause hit. Each run lasts only 12-25 ms on a shared
// 2-vCPU host, where one run can take twice another's time. The old reading
// (min of 6 runs on each side) spread from -17% to +51% over 20 invocations
// of unchanged code, 3 of them over budget. Over 45 invocations at K=40 the
// median pair ratio spread from +5% to +19%, and min-of-40 from +1% to +31%.
// Longer runs do not help: they only dilute the fixed set-up cost less.
func TestTelemetryOverheadBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-sensitive; skipped under -short")
	}
	if raceEnabled {
		t.Skip("race-detector instrumentation multiplies mutex cost; the budget is gated on the uninstrumented build")
	}
	const rounds = 40
	ratios := make([]float64, rounds)
	for i := range ratios {
		bare, bareFlips := runShadowOnce(t, false)
		flighted, flightFlips := runShadowOnce(t, true)
		if bareFlips != flightFlips {
			t.Fatalf("flight run diverged from bare run: %d vs %d flips (neutrality broken; the timing comparison is meaningless)", bareFlips, flightFlips)
		}
		ratios[i] = float64(flighted) / float64(bare)
	}
	sort.Float64s(ratios)
	overheadPct := (ratios[rounds/2] - 1) * 100
	t.Logf("telemetry overhead: median of %d pairs %+.1f%% (pairs %+.1f%% to %+.1f%%), budget %.0f%%",
		rounds, overheadPct, (ratios[0]-1)*100, (ratios[rounds-1]-1)*100, overheadBudgetPct)
	if overheadPct > overheadBudgetPct {
		t.Errorf("always-on telemetry overhead %.1f%% exceeds the %.0f%% budget", overheadPct, overheadBudgetPct)
	}
}
