package sim

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"shadow/internal/circuit"
	"shadow/internal/dram"
	"shadow/internal/hammer"
	"shadow/internal/memctrl"
	"shadow/internal/mitigate"
	"shadow/internal/rng"
	"shadow/internal/shadow"
	"shadow/internal/timing"
	"shadow/internal/trace"
)

func baseParams() *timing.Params {
	return timing.NewParams(timing.DDR4_2666)
}

func shadowParams(raaimt int) *timing.Params {
	p := timing.NewParams(timing.DDR4_2666)
	return p.WithShadow(circuit.DefaultShadowTimings(p)).WithRAAIMT(raaimt)
}

func smallGeo() dram.Geometry {
	g := dram.DefaultGeometry(false)
	g.SubarraysPerBank = 8 // keep memory small in tests
	return g
}

func runWorkload(t *testing.T, p *timing.Params, mit dram.Mitigator, mc mitigate.MCSide, cores int, dur timing.Tick) *Result {
	t.Helper()
	g := smallGeo()
	profiles := trace.MixHigh(cores)
	for i := range profiles {
		profiles[i].WorkingSetRows = 1 << 10
	}
	res, err := Run(Config{
		Params:    p,
		Geometry:  g,
		Hammer:    hammer.Config{HCnt: 1 << 20, BlastRadius: 3},
		DeviceMit: mit,
		MCSide:    mc,
		Workload:  trace.Generators(profiles, g, 42),
		Duration:  dur,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestRunBasics(t *testing.T) {
	res := runWorkload(t, baseParams(), nil, nil, 2, 100*timing.Microsecond)
	if res.MC.Reads == 0 {
		t.Fatal("no reads issued")
	}
	if res.MC.Refs == 0 {
		t.Fatal("no refreshes in 100us (tREFI is 7.8us)")
	}
	for i, ipc := range res.IPC {
		if ipc <= 0 || ipc > 8 {
			t.Fatalf("core %d IPC %.2f implausible", i, ipc)
		}
	}
	if res.TotalIPC() <= 0 {
		t.Fatal("zero total IPC")
	}
}

func TestRunValidation(t *testing.T) {
	if _, err := Run(Config{}); err == nil {
		t.Error("nil params accepted")
	}
	if _, err := Run(Config{Params: baseParams()}); err == nil {
		t.Error("empty workload accepted")
	}
	g := smallGeo()
	w := trace.Generators(trace.MixHigh(1), g, 1)
	if _, err := Run(Config{Params: baseParams(), Workload: w}); err == nil {
		t.Error("zero duration accepted")
	}
}

// TestRunRejectsTooManyBanks: a rank wider than memctrl.MaxBanks is a
// configuration error at the API boundary, not a panic inside memctrl.New.
func TestRunRejectsTooManyBanks(t *testing.T) {
	for _, banks := range []int{memctrl.MaxBanks, memctrl.MaxBanks + 1} {
		g := dram.TestGeometry()
		g.Banks = banks
		_, err := Run(Config{
			Params:   baseParams(),
			Geometry: g,
			Workload: trace.Generators(trace.MixHigh(1), g, 1),
			Duration: timing.Microsecond,
		})
		if (err != nil) != (banks > memctrl.MaxBanks) {
			t.Errorf("%d banks: err = %v", banks, err)
		}
	}
}

func TestRunAttackRejectsTooManyBanks(t *testing.T) {
	for _, banks := range []int{memctrl.MaxBanks, memctrl.MaxBanks + 1} {
		g := dram.TestGeometry()
		g.Banks = banks
		_, err := RunAttack(AttackConfig{
			Params:   baseParams(),
			Geometry: g,
			Hammer:   hammer.Config{HCnt: 1 << 20, BlastRadius: 1},
			MaxActs:  16,
		}, &trace.SingleSided{Bank: banks - 1, Row: 5})
		if (err != nil) != (banks > memctrl.MaxBanks) {
			t.Errorf("%d banks: err = %v", banks, err)
		}
	}
}

// scriptPattern replays a fixed list of (bank, row) accesses, then repeats
// the last one.
type scriptPattern struct {
	acc [][2]int
	i   int
}

func (p *scriptPattern) Name() string { return "script" }

func (p *scriptPattern) NextRow() (int, int) {
	a := p.acc[min(p.i, len(p.acc)-1)]
	p.i++
	return a[0], a[1]
}

// TestRunAttackRejectsBadAccess: a pattern yielding a bank or row outside
// the geometry is an error naming the access, not a panic in
// memctrl.Enqueue or the controller's ACT.
func TestRunAttackRejectsBadAccess(t *testing.T) {
	g := dram.TestGeometry()
	rows := g.PARowsPerBank()
	cases := []struct {
		name string
		bad  [2]int
		want string
	}{
		{"bank-high", [2]int{g.Banks, 5}, fmt.Sprintf("access 3: bank %d row 5 outside", g.Banks)},
		{"bank-negative", [2]int{-1, 5}, "access 3: bank -1 row 5 outside"},
		{"row-high", [2]int{1, rows}, fmt.Sprintf("access 3: bank 1 row %d outside", rows)},
		{"row-negative", [2]int{1, -2}, "access 3: bank 1 row -2 outside"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			pat := &scriptPattern{acc: [][2]int{{0, 1}, {1, 9}, {0, 1}, tc.bad}}
			res, err := RunAttack(AttackConfig{
				Params:   baseParams(),
				Geometry: g,
				Hammer:   hammer.Config{HCnt: 1 << 20, BlastRadius: 1},
				MaxActs:  16,
			}, pat)
			if err == nil {
				t.Fatalf("no error after %d ACTs", res.Acts)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q lacks %q", err, tc.want)
			}
		})
	}
}

func TestDeterministicRuns(t *testing.T) {
	a := runWorkload(t, baseParams(), nil, nil, 2, 50*timing.Microsecond)
	b := runWorkload(t, baseParams(), nil, nil, 2, 50*timing.Microsecond)
	for i := range a.IPC {
		if a.IPC[i] != b.IPC[i] {
			t.Fatalf("core %d IPC differs across identical runs", i)
		}
	}
	if a.MC.Acts != b.MC.Acts {
		t.Fatal("MC stats differ across identical runs")
	}
}

// TestShadowOverheadSmall reproduces the paper's headline: SHADOW costs only
// a few percent even on memory-intensive multiprogrammed workloads.
func TestShadowOverheadSmallButNonzero(t *testing.T) {
	dur := 200 * timing.Microsecond
	base := runWorkload(t, baseParams(), nil, nil, 4, dur)
	sh := runWorkload(t, shadowParams(64), shadow.New(shadow.Options{Seed: 7}), nil, 4, dur)
	ws := WeightedSpeedup(sh, base)
	if ws > 1.001 {
		t.Fatalf("SHADOW faster than baseline? WS = %.3f", ws)
	}
	if ws < 0.90 {
		t.Fatalf("SHADOW overhead too large: WS = %.3f (paper: <3%%)", ws)
	}
	if sh.Dev.RFMs == 0 {
		t.Fatal("no RFMs issued under memory-intensive load")
	}
	if sh.Dev.RowCopies == 0 {
		t.Fatal("no row copies: shuffles not running")
	}
}

// TestLowerRAAIMTCostsMore: more frequent RFMs must cost performance.
func TestLowerRAAIMTCostsMore(t *testing.T) {
	dur := 200 * timing.Microsecond
	base := runWorkload(t, baseParams(), nil, nil, 4, dur)
	loose := runWorkload(t, shadowParams(256), shadow.New(shadow.Options{Seed: 7}), nil, 4, dur)
	tight := runWorkload(t, shadowParams(16), shadow.New(shadow.Options{Seed: 7}), nil, 4, dur)
	wsLoose := WeightedSpeedup(loose, base)
	wsTight := WeightedSpeedup(tight, base)
	if wsTight >= wsLoose {
		t.Fatalf("RAAIMT 16 (WS %.3f) should be slower than 256 (WS %.3f)", wsTight, wsLoose)
	}
}

// TestDRRSlowdown: doubling the refresh rate costs measurable performance.
func TestDRRCostsPerformance(t *testing.T) {
	dur := 200 * timing.Microsecond
	base := runWorkload(t, baseParams(), nil, nil, 4, dur)
	drr := runWorkload(t, baseParams().WithRefreshScale(2), nil, nil, 4, dur)
	ws := WeightedSpeedup(drr, base)
	if ws >= 1.0 {
		t.Fatalf("DRR did not cost anything: WS = %.3f", ws)
	}
}

func TestWeightedSpeedupIdentity(t *testing.T) {
	a := runWorkload(t, baseParams(), nil, nil, 2, 50*timing.Microsecond)
	if ws := WeightedSpeedup(a, a); math.Abs(ws-1) > 1e-12 {
		t.Fatalf("self speedup = %g", ws)
	}
	if rp := RelativePerformance(a, a); math.Abs(rp-1) > 1e-12 {
		t.Fatalf("self relative perf = %g", rp)
	}
}

func TestAttackBaselineFlips(t *testing.T) {
	g := dram.TestGeometry()
	res, err := RunAttack(AttackConfig{
		Params:     baseParams(),
		Geometry:   g,
		Hammer:     hammer.Config{HCnt: 512, BlastRadius: 3},
		MaxActs:    4096,
		StopOnFlip: true,
	}, &trace.SingleSided{Bank: 0, Row: 16})
	if err != nil {
		t.Fatal(err)
	}
	if res.Flips == 0 {
		t.Fatal("unprotected device survived 4096 single-row ACTs at HCnt 512")
	}
	if res.Acts < 512 {
		t.Fatalf("flip after only %d ACTs", res.Acts)
	}
}

func TestAttackShadowDefends(t *testing.T) {
	g := dram.TestGeometry()
	p := shadowParams(16)
	res, err := RunAttack(AttackConfig{
		Params:    p,
		Geometry:  g,
		Hammer:    hammer.Config{HCnt: 512, BlastRadius: 3},
		DeviceMit: shadow.New(shadow.Options{Seed: 3}),
		MaxActs:   16384,
	}, &trace.SingleSided{Bank: 0, Row: 16})
	if err != nil {
		t.Fatal(err)
	}
	if res.Flips != 0 {
		t.Fatalf("SHADOW flipped %d bits under single-row attack", res.Flips)
	}
	if res.Device.TotalStats().RFMs == 0 {
		t.Fatal("attack never triggered RFMs")
	}
}

func TestAttackDoubleSidedVsBlast(t *testing.T) {
	// Both classic and blast patterns must flip the unprotected device; the
	// blast pattern needs ~2x the activations (weight 0.5 at distance 2).
	g := dram.TestGeometry()
	run := func(pat trace.Pattern) int64 {
		res, err := RunAttack(AttackConfig{
			Params:     baseParams(),
			Geometry:   g,
			Hammer:     hammer.Config{HCnt: 256, BlastRadius: 3},
			MaxActs:    8192,
			StopOnFlip: true,
		}, pat)
		if err != nil {
			t.Fatal(err)
		}
		if res.Flips == 0 {
			t.Fatalf("%s never flipped", pat.Name())
		}
		return res.Acts
	}
	ds := run(&trace.DoubleSided{Bank: 0, Victim: 16})
	bl := run(trace.Blast(0, 16, 2))
	if bl <= ds {
		t.Fatalf("blast (%d acts) should need more than double-sided (%d)", bl, ds)
	}
}

func TestAttackRespectsDuration(t *testing.T) {
	g := dram.TestGeometry()
	res, err := RunAttack(AttackConfig{
		Params:   baseParams(),
		Geometry: g,
		Hammer:   hammer.Config{HCnt: 1 << 20, BlastRadius: 1},
		Duration: 10 * timing.Microsecond,
	}, &trace.SingleSided{Bank: 0, Row: 5})
	if err != nil {
		t.Fatal(err)
	}
	if res.Elapsed > 11*timing.Microsecond {
		t.Fatalf("ran past duration: %v", res.Elapsed)
	}
	if res.Acts == 0 {
		t.Fatal("no activations")
	}
}

func TestWarmupExcludedFromStats(t *testing.T) {
	g := smallGeo()
	profiles := trace.MixHigh(2)
	mk := func(warmup timing.Tick) *Result {
		res, err := Run(Config{
			Params:   baseParams(),
			Geometry: g,
			Hammer:   hammer.Config{HCnt: 1 << 30, BlastRadius: 3},
			Workload: trace.Generators(profiles, g, 5),
			Duration: 100*timing.Microsecond + warmup,
			Warmup:   warmup,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	cold := mk(0)
	warm := mk(50 * timing.Microsecond)
	if warm.Duration != cold.Duration {
		t.Fatalf("measured durations differ: %v vs %v", warm.Duration, cold.Duration)
	}
	// Warm-measured activity must be in the same ballpark as cold-measured
	// (same measured horizon), NOT 1.5x larger (which would mean warmup
	// leaked into the stats).
	ratio := float64(warm.MC.Acts) / float64(cold.MC.Acts)
	if ratio > 1.25 || ratio < 0.75 {
		t.Fatalf("warmup leaked into stats: acts ratio %.2f", ratio)
	}
	if _, err := Run(Config{
		Params:   baseParams(),
		Geometry: g,
		Workload: trace.Generators(profiles, g, 5),
		Duration: timing.Microsecond,
		Warmup:   timing.Microsecond,
	}); err == nil {
		t.Fatal("warmup >= duration accepted")
	}
}

// TestRandomWorkloadFuzz drives random profiles through the full stack and
// relies on the device's internal timing validation (any protocol violation
// panics): a property-style check that the MC never issues an illegal
// command sequence.
func TestRandomWorkloadFuzz(t *testing.T) {
	g := smallGeo()
	src := rng.NewSplitMix(77)
	for trial := 0; trial < 6; trial++ {
		prof := trace.Profile{
			Name:           "fuzz",
			MPKI:           5 + float64(rng.Intn(src, 150)),
			RowLocality:    rng.Float64(src) * 0.9,
			WorkingSetRows: 64 + rng.Intn(src, 4096),
			WriteFrac:      rng.Float64(src) * 0.6,
			HotFrac:        rng.Float64(src) * 0.4,
			HotRows:        1 + rng.Intn(src, 32),
		}
		nCores := 1 + rng.Intn(src, 4)
		profs := make([]trace.Profile, nCores)
		for i := range profs {
			profs[i] = prof
		}
		p := shadowParams(8 << rng.Intn(src, 4))
		res, err := Run(Config{
			Params:    p,
			Geometry:  g,
			Hammer:    hammer.Config{HCnt: 256 << rng.Intn(src, 4), BlastRadius: 1 + rng.Intn(src, 5)},
			DeviceMit: shadow.New(shadow.Options{Seed: uint64(trial)}),
			Workload:  trace.Generators(profs, g, uint64(trial)*13),
			Duration:  40 * timing.Microsecond,
		})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if res.MC.Acts == 0 {
			t.Fatalf("trial %d: no activity", trial)
		}
	}
}

// TestHalfDoubleDefeatsNarrowTRRNotShadow reproduces the Half-Double story:
// the distance-2 pattern flips bits on an unprotected device, and SHADOW
// stops it (it relocates aggressors; attack distance is irrelevant).
func TestHalfDoubleDefeatsNarrowTRRNotShadow(t *testing.T) {
	g := dram.TestGeometry()
	hd := func() trace.Pattern { return &trace.HalfDouble{Bank: 0, Victim: 16} }

	base, err := RunAttack(AttackConfig{
		Params:   baseParams(),
		Geometry: g,
		Hammer:   hammer.Config{HCnt: 384, BlastRadius: 3},
		MaxActs:  16384,
	}, hd())
	if err != nil {
		t.Fatal(err)
	}
	if base.Flips == 0 {
		t.Fatal("half-double did not flip the unprotected device")
	}

	prot, err := RunAttack(AttackConfig{
		Params:    shadowParams(16),
		Geometry:  g,
		Hammer:    hammer.Config{HCnt: 384, BlastRadius: 3},
		DeviceMit: shadow.New(shadow.Options{Seed: 8}),
		MaxActs:   16384,
	}, hd())
	if err != nil {
		t.Fatal(err)
	}
	if prot.Flips != 0 {
		t.Fatalf("SHADOW flipped %d bits under half-double", prot.Flips)
	}
}
