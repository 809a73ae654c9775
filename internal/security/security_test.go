package security

import (
	"math"
	"testing"

	"shadow/internal/dram"
	"shadow/internal/rng"
	"shadow/internal/timing"
	"shadow/internal/trace"
)

// TestTableII reproduces the paper's Table II: the rank-year bit-flip
// probability for RAAIMT x H_cnt, checked to order of magnitude (the paper
// reports one significant digit; our tRC/tREFW constants differ slightly
// from theirs).
func TestTableII(t *testing.T) {
	cases := []struct {
		raaimt, hcnt int
		paper        float64
		// tolOrders is the allowed |log10| deviation.
		tolOrders float64
	}{
		{128, 8192, 2e-15, 1.5},
		{128, 4096, 4e-01, 0.5},
		{128, 2048, 1, 0.1},
		{64, 8192, 2e-43, 1.5},
		{64, 4096, 1e-14, 1.5},
		{64, 2048, 5e-01, 0.5},
		{32, 4096, 1e-43, 1.5},
		{32, 2048, 9e-15, 1.5},
	}
	for _, c := range cases {
		got := DefaultConfig(c.hcnt, c.raaimt).BitFlipProbability()
		if got <= 0 {
			t.Errorf("RAAIMT %d HCnt %d: probability 0, paper %.0e", c.raaimt, c.hcnt, c.paper)
			continue
		}
		d := math.Abs(math.Log10(got) - math.Log10(c.paper))
		if d > c.tolOrders {
			t.Errorf("RAAIMT %d HCnt %d: got %.2e, paper %.0e (off by %.1f orders)",
				c.raaimt, c.hcnt, got, c.paper, d)
		}
	}
	// The (32, 8K) cell is 0 in the paper; ours must be astronomically small.
	if got := DefaultConfig(8192, 32).BitFlipProbability(); got > 1e-90 {
		t.Errorf("RAAIMT 32 HCnt 8K: got %.2e, paper reports 0", got)
	}
}

// TestSecureDiagonal: the bolded secure configurations of Table II.
func TestSecureDiagonal(t *testing.T) {
	want := map[int]int{16384: 256, 8192: 128, 4096: 64, 2048: 32}
	for hcnt, raaimt := range want {
		if got := SecureRAAIMT(hcnt); got != raaimt {
			t.Errorf("SecureRAAIMT(%d) = %d, want %d", hcnt, got, raaimt)
		}
		if !DefaultConfig(hcnt, raaimt).Secure() {
			t.Errorf("config (%d, %d) should be secure", hcnt, raaimt)
		}
		if DefaultConfig(hcnt, raaimt*4).Secure() {
			t.Errorf("config (%d, %d) should NOT be secure", hcnt, raaimt*4)
		}
	}
}

// TestScenarioOrdering: scenario III (cross-subarray, no incremental-refresh
// bound) must dominate I and II, as the appendix analysis shows.
func TestScenarioOrdering(t *testing.T) {
	for _, hcnt := range []int{4096, 8192} {
		c := DefaultConfig(hcnt, 64)
		s1, s2, s3 := c.ScenarioI(), c.ScenarioII(), c.ScenarioIII()
		if s3 < s2 || s3 < s1 {
			t.Errorf("HCnt %d: scenario III (%.2e) not dominant (I %.2e, II %.2e)", hcnt, s3, s1, s2)
		}
	}
}

// TestMonotonicity: lower RAAIMT (more frequent shuffles) and higher H_cnt
// must both reduce the flip probability.
func TestMonotonicity(t *testing.T) {
	for _, hcnt := range []int{2048, 4096, 8192} {
		prev := math.Inf(1)
		for _, raaimt := range []int{256, 128, 64, 32} {
			p := DefaultConfig(hcnt, raaimt).BitFlipProbability()
			if p > prev*1.0000001 {
				t.Errorf("HCnt %d: probability rose when RAAIMT dropped to %d (%.2e > %.2e)",
					hcnt, raaimt, p, prev)
			}
			prev = p
		}
	}
	for _, raaimt := range []int{32, 64, 128} {
		pLow := DefaultConfig(2048, raaimt).BitFlipProbability()
		pHigh := DefaultConfig(8192, raaimt).BitFlipProbability()
		if pHigh > pLow {
			t.Errorf("RAAIMT %d: higher HCnt increased probability", raaimt)
		}
	}
}

// evade runs evadeRecurrence on a fresh ring.
func evade(nAggr, m, steps int) float64 {
	p, _ := evadeRecurrence(nAggr, m, steps, nil)
	return p
}

func TestEvadeRecurrenceProperties(t *testing.T) {
	// Zero steps beyond M -> zero probability.
	if got := evade(4, 100, 100); got != 0 {
		t.Fatalf("steps <= M should be 0, got %g", got)
	}
	// Probability grows with steps.
	a := evade(4, 40, 50)
	b := evade(4, 40, 500)
	if b <= a || a <= 0 {
		t.Fatalf("recurrence not growing: %g -> %g", a, b)
	}
	// Never exceeds its N*1 cap and clamps at 1.
	if got := evade(2, 1, 1<<20); got > 1 {
		t.Fatalf("recurrence exceeded 1: %g", got)
	}
	// m <= 0 is immediate success (degenerate guard).
	if got := evade(4, 0, 10); got != 1 {
		t.Fatalf("m=0 should return 1, got %g", got)
	}
}

// evadeRecurrenceFull is evadeRecurrence as it was before its ring buffer
// and its early stop: the whole P[0..steps] history in one slice. It is the
// reference evadeRecurrence must match bit for bit.
func evadeRecurrenceFull(nAggr, m, steps int) float64 {
	if m <= 0 {
		return 1
	}
	if steps <= m {
		return 0
	}
	invN := 1.0 / float64(nAggr)
	logQ := math.Log(invN) + float64(m)*math.Log1p(-invN)
	q := math.Exp(logQ)
	if q == 0 {
		return 0
	}
	if steps <= maxExact {
		hist := make([]float64, steps+1)
		for n := m + 1; n <= steps; n++ {
			prevIdx := n - m - 1
			hist[n] = hist[n-1] + (1-hist[prevIdx])*q
			if hist[n] > 1 {
				hist[n] = 1
			}
		}
		return clamp01(float64(nAggr) * hist[steps])
	}
	return clamp01(float64(nAggr) * float64(steps-m) * q)
}

// TestEvadeRecurrenceMatchesFullHistory holds the ring-buffer recurrence to
// the full-history reference with ==, over aggressor counts, window lengths
// M (1 saturates P at its clamp) and step counts from M+1 to maxExact and
// past it, where both take the linear bound. One ring serves every call, as
// it does inside a scenario, so a ring that is reused, grown or shrunk
// must leave no trace.
func TestEvadeRecurrenceMatchesFullHistory(t *testing.T) {
	var ring []float64
	check := func(nAggr, m, steps int) {
		t.Helper()
		var got float64
		got, ring = evadeRecurrence(nAggr, m, steps, ring)
		if want := evadeRecurrenceFull(nAggr, m, steps); got != want {
			t.Errorf("evadeRecurrence(%d, %d, %d) = %v, full history %v", nAggr, m, steps, got, want)
		}
	}
	for _, nAggr := range []int{1, 2, 3, 8, 64} {
		for _, m := range []int{0, 1, 2, 7, 64, 1000} {
			for _, steps := range []int{m, m + 1, m + 2, 2*m + 1, 2*m + 2, 5*m + 3, 4096, 100000} {
				check(nAggr, m, steps)
			}
		}
	}
	for _, c := range [][2]int{{2, 1}, {8, 33}, {64, 4096}} {
		check(c[0], c[1], maxExact)
		check(c[0], c[1], maxExact+1)
	}
}

// TestEvadeBoundCoversRounding: the exact recurrence never exceeds its
// linear bound once padded by boundPad, although its step-by-step sum does
// round past the bound's single product — so the pad is load-bearing. The
// grid keeps P tiny, where (1-P) rounds to 1 and the recurrence is a plain
// running sum of q.
func TestEvadeBoundCoversRounding(t *testing.T) {
	over := 0
	var ring []float64
	for _, nAggr := range []int{2, 3, 5, 7, 8, 13, 32, 100} {
		for _, m := range []int{40, 97, 200, 333, 512} {
			for _, steps := range []int{m + 1, m + 7, 1000, 4097, 30000, 123457} {
				var p float64
				p, ring = evadeRecurrence(nAggr, m, steps, ring)
				b := evadeBound(nAggr, m, steps)
				if p > boundPad*b {
					t.Errorf("evadeRecurrence(%d, %d, %d) = %v above padded bound %v", nAggr, m, steps, p, boundPad*b)
				}
				if p > b {
					over++
				}
			}
		}
	}
	if over == 0 {
		t.Error("no recurrence rounded past its unpadded bound: the grid no longer exercises boundPad")
	}
}

// scenarioRef is one scenario's worst per-window probability and its
// window length in seconds, as the reference evaluation finds them.
type scenarioRef struct{ pWindow, windowSeconds float64 }

// scenariosRef evaluates scenarios I, II and III as they were before the
// shared ring, the early stops and the secure decision: every aggressor
// count runs the full-history recurrence. It is the reference the scenario
// functions must match bit for bit.
func scenariosRef(c Config) [3]scenarioRef {
	var out [3]scenarioRef
	incremental := float64(c.NRow) * float64(c.RAAIMT) / c.actsPerSecond()
	if m1 := ceilDiv(c.HCnt, c.RAAIMT); m1 <= c.NRow {
		p := c.WSum / float64(c.NRow)
		logP := math.Log(float64(c.NRow)) +
			logChoose(c.NRow, m1) +
			float64(m1)*math.Log(p) +
			float64(c.NRow-m1)*math.Log1p(-p)
		out[0] = scenarioRef{math.Exp(logP), incremental}
	} else {
		out[0] = scenarioRef{0, incremental}
	}
	best := 0.0
	for nAggr := 1; nAggr <= c.RAAIMT; nAggr++ {
		m := c.RAAIMT / nAggr
		if m == 0 {
			continue
		}
		m2 := ceilDiv(c.HCnt, m)
		if m2 > c.NRow {
			continue
		}
		if p := evadeRecurrenceFull(nAggr, m2, c.NRow); p > best {
			best = p
		}
	}
	out[1] = scenarioRef{best, incremental}
	actsPerWindow := float64(c.TREFW) / float64(c.TRC)
	steps := int(actsPerWindow / float64(c.RAAIMT))
	best = 0.0
	for nAggr := 1; nAggr <= c.RAAIMT; nAggr++ {
		m := c.RAAIMT / nAggr
		if m == 0 {
			continue
		}
		if p := evadeRecurrenceFull(nAggr, ceilDiv(c.HCnt, m), steps); p > best {
			best = p
		}
	}
	out[2] = scenarioRef{best, float64(c.TREFW) / float64(timing.Second)}
	return out
}

// worstRef is the reference BitFlipProbability of precomputed scenarios.
func (c Config) worstRef(s [3]scenarioRef) float64 {
	return math.Max(c.perYear(s[0].pWindow, s[0].windowSeconds),
		math.Max(c.perYear(s[1].pWindow, s[1].windowSeconds), c.perYear(s[2].pWindow, s[2].windowSeconds)))
}

// TestScenariosMatchReference holds every printed value to the reference
// evaluation with ==: shadowsec -sweep's grid, plus windows of maxExact
// steps and one past it, for scenario II (NRow) and III (tREFW).
func TestScenariosMatchReference(t *testing.T) {
	var cfgs []Config
	for _, h := range []int{65536, 32768, 16384, 8192, 4096, 2048, 1024} {
		for _, r := range []int{1024, 512, 256, 128, 64, 32, 16, 8} {
			cfgs = append(cfgs, DefaultConfig(h, r))
		}
	}
	for _, steps := range []int{maxExact, maxExact + 1} {
		c := DefaultConfig(40, 2)
		c.NRow = steps
		c.TREFW = c.TRC * timing.Tick(c.RAAIMT*steps)
		cfgs = append(cfgs, c)
	}
	for _, c := range cfgs {
		ref := scenariosRef(c)
		got := [4]float64{c.ScenarioI(), c.ScenarioII(), c.ScenarioIII(), c.BitFlipProbability()}
		want := [4]float64{
			c.perYear(ref[0].pWindow, ref[0].windowSeconds),
			c.perYear(ref[1].pWindow, ref[1].windowSeconds),
			c.perYear(ref[2].pWindow, ref[2].windowSeconds),
			c.worstRef(ref),
		}
		if got != want {
			t.Errorf("HCnt %d RAAIMT %d NRow %d: I, II, III, worst = %v, reference %v",
				c.HCnt, c.RAAIMT, c.NRow, got, want)
		}
	}
}

// genConfig draws a configuration around the paper's: H_cnt and RAAIMT
// log-uniform (RAAIMT mostly not a power of two), and NRow, Banks and WSum
// varied.
func genConfig(src rng.Source) Config {
	logUniform := func(lo, hi float64) int {
		u := float64(src.Uint64()>>11) / (1 << 53)
		return int(math.Exp2(lo + u*(hi-lo)))
	}
	c := DefaultConfig(logUniform(5, 16), logUniform(0, 12))
	c.NRow = 64 + int(src.Uint64()%961)
	c.Banks = 1 + int(src.Uint64()%64)
	c.WSum = 1 + float64(src.Uint64()%4001)/1000
	return c
}

// checkSecure fails the test unless Secure agrees with the full evaluation.
func checkSecure(t *testing.T, c Config) {
	t.Helper()
	if got, want := c.Secure(), c.BitFlipProbability() < secureBar; got != want {
		t.Errorf("%+v: Secure() = %v, BitFlipProbability() = %v", c, got, c.BitFlipProbability())
	}
}

// TestSecureMatchesEvaluation holds the secure decision to the full
// evaluation. 500 generated configurations fall on both sides of the bar,
// mostly far from it. For 60 more, HorizonSeconds is set to the two
// adjacent float64 values between which the reference crosses 1%, where a
// missing bound pad or an off-by-one comparison decides the other way.
func TestSecureMatchesEvaluation(t *testing.T) {
	src := rng.NewCSPRNG(27)
	secure := 0
	for i := 0; i < 500; i++ {
		c := genConfig(src)
		checkSecure(t, c)
		if c.Secure() {
			secure++
		}
	}
	if secure < 100 || secure > 400 {
		t.Errorf("%d of 500 generated configurations secure: the sample no longer spans the bar", secure)
	}
	edges := 0
	for edges < 60 {
		c := genConfig(src)
		ref := scenariosRef(c)
		at := func(bits uint64) float64 {
			c.HorizonSeconds = math.Float64frombits(bits)
			return c.worstRef(ref)
		}
		// Find the least horizon whose reference probability reaches the
		// bar; positive float64s order as their bits do.
		lo, hi := uint64(1), math.Float64bits(1e300)
		if at(lo) >= secureBar || at(hi) < secureBar {
			continue // never or always insecure: no edge to test
		}
		for hi-lo > 1 {
			if mid := lo + (hi-lo)/2; at(mid) >= secureBar {
				hi = mid
			} else {
				lo = mid
			}
		}
		for _, bits := range []uint64{lo, hi} {
			c.HorizonSeconds = math.Float64frombits(bits)
			if insecure := c.BitFlipProbability() >= secureBar; insecure != (bits == hi) {
				t.Errorf("%+v: BitFlipProbability() = %v disagrees with the reference edge", c, c.BitFlipProbability())
			}
			checkSecure(t, c)
		}
		edges++
	}
}

// TestSecureRAAIMTMatchesSearch holds SecureRAAIMT to the search over full
// evaluations on a geometric H_cnt grid from 64 to 65536.
func TestSecureRAAIMTMatchesSearch(t *testing.T) {
	for h := 64.0; h <= 65536; h *= math.Sqrt2 {
		hcnt := int(math.Round(h))
		want := 0
		for raaimt := 4096; raaimt >= 8; raaimt /= 2 {
			if DefaultConfig(hcnt, raaimt).BitFlipProbability() < secureBar {
				want = raaimt
				break
			}
		}
		if got := SecureRAAIMT(hcnt); got != want {
			t.Errorf("SecureRAAIMT(%d) = %d, full search %d", hcnt, got, want)
		}
	}
}

func TestLogChoose(t *testing.T) {
	if got := math.Exp(logChoose(5, 2)); math.Abs(got-10) > 1e-9 {
		t.Fatalf("C(5,2) = %g", got)
	}
	if !math.IsInf(logChoose(3, 5), -1) {
		t.Fatal("C(3,5) should be -inf in log space")
	}
}

func TestPerYearStability(t *testing.T) {
	c := DefaultConfig(4096, 64)
	// Tiny probabilities scale linearly with window count.
	p := c.perYear(1e-30, 1.0)
	windows := c.HorizonSeconds * float64(c.Banks)
	if math.Abs(p-1e-30*windows)/p > 1e-6 {
		t.Fatalf("perYear linear regime broken: %g", p)
	}
	if got := c.perYear(1, 1); got != 1 {
		t.Fatalf("perYear(1) = %g", got)
	}
	if got := c.perYear(0, 1); got != 0 {
		t.Fatalf("perYear(0) = %g", got)
	}
}

// TestMonteCarloShadowVsBaseline: at a samplable operating point, the
// unprotected device flips in every trial while SHADOW eliminates (nearly)
// all flips — the empirical counterpart of Table II's many orders of
// magnitude.
func TestMonteCarloShadowVsBaseline(t *testing.T) {
	mk := func(trial int, g dram.Geometry) trace.Pattern {
		return &trace.SingleSided{Bank: 0, Row: g.RowsPerSubarray / 2}
	}
	base, err := RunMonteCarlo(MonteCarloConfig{
		HCnt: 256, RAAIMT: 16, RowsPerSubarray: 32,
		ActsPerTrial: 4096, Trials: 5, Shadow: false,
	}, mk)
	if err != nil {
		t.Fatal(err)
	}
	if base.FlipRate() != 1 {
		t.Fatalf("unprotected flip rate %.2f, want 1.0", base.FlipRate())
	}
	prot, err := RunMonteCarlo(MonteCarloConfig{
		HCnt: 256, RAAIMT: 16, RowsPerSubarray: 32,
		ActsPerTrial: 4096, Trials: 5, Shadow: true,
	}, mk)
	if err != nil {
		t.Fatal(err)
	}
	if prot.FlipRate() > 0.2 {
		t.Fatalf("SHADOW flip rate %.2f under single-sided attack", prot.FlipRate())
	}
	if prot.Shuffles == 0 {
		t.Fatal("no shuffles recorded")
	}
}

// TestMonteCarloScenarioIIIStrongest: among the appendix scenarios at equal
// budget, the cross-subarray multi-aggressor attack should achieve at least
// as many flips against SHADOW as scenario I — mirroring the analytical
// ordering.
func TestMonteCarloScenarioIIIStrongest(t *testing.T) {
	cfg := MonteCarloConfig{
		HCnt: 96, RAAIMT: 16, RowsPerSubarray: 16,
		ActsPerTrial: 40000, Trials: 6, Shadow: true, BlastRadius: 3,
	}
	s1, err := RunMonteCarlo(cfg, func(trial int, g dram.Geometry) trace.Pattern {
		return trace.NewScenarioI(0, 1, cfg.RAAIMT, g, uint64(trial)+1)
	})
	if err != nil {
		t.Fatal(err)
	}
	s3, err := RunMonteCarlo(cfg, func(trial int, g dram.Geometry) trace.Pattern {
		return trace.NewScenarioIII(0, 4, g, uint64(trial)+1)
	})
	if err != nil {
		t.Fatal(err)
	}
	if s3.TotalFlips < s1.TotalFlips {
		t.Errorf("scenario III (%d flips) weaker than scenario I (%d flips)", s3.TotalFlips, s1.TotalFlips)
	}
}

func TestMonteCarloValidation(t *testing.T) {
	_, err := RunMonteCarlo(MonteCarloConfig{}, nil)
	if err == nil {
		t.Fatal("zero config accepted")
	}
}

func TestTemplatingDecay(t *testing.T) {
	points, err := MeasureTemplatingDecay(TemplatingConfig{
		RowsPerSubarray: 64,
		RAAIMT:          16,
		Checkpoints:     []int64{0, 16, 64, 256},
		Seed:            5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 4 {
		t.Fatalf("%d points", len(points))
	}
	if points[0].ValidFraction != 1.0 {
		t.Fatalf("initial validity %.2f, want 1.0 (identity mapping)", points[0].ValidFraction)
	}
	// Validity must decay substantially: after 256 shuffles of a 64-row
	// subarray essentially no templated pair survives.
	last := points[len(points)-1]
	if last.ValidFraction > 0.3 {
		t.Fatalf("after %d shuffles %.0f%% of templates still valid", last.Shuffles, last.ValidFraction*100)
	}
	// And it must be (weakly) monotone in this run.
	for i := 1; i < len(points); i++ {
		if points[i].ValidFraction > points[i-1].ValidFraction+0.1 {
			t.Fatalf("validity rose from %.2f to %.2f", points[i-1].ValidFraction, points[i].ValidFraction)
		}
	}
}

func TestSpecificVictimWeaker(t *testing.T) {
	c := DefaultConfig(4096, 128) // insecure any-victim point
	anyV := c.BitFlipProbability()
	spec := c.SpecificVictimProbability()
	if spec >= anyV {
		t.Fatalf("specific-victim %.2e should be below any-victim %.2e", spec, anyV)
	}
	if ratio := anyV / spec; math.Abs(ratio-512) > 1 {
		t.Fatalf("ratio = %.1f, want NRow (512)", ratio)
	}
}
