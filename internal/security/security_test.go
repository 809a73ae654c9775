package security

import (
	"math"
	"testing"

	"shadow/internal/dram"
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

func TestEvadeRecurrenceProperties(t *testing.T) {
	// Zero steps beyond M -> zero probability.
	if got := evadeRecurrence(4, 100, 100); got != 0 {
		t.Fatalf("steps <= M should be 0, got %g", got)
	}
	// Probability grows with steps.
	a := evadeRecurrence(4, 40, 50)
	b := evadeRecurrence(4, 40, 500)
	if b <= a || a <= 0 {
		t.Fatalf("recurrence not growing: %g -> %g", a, b)
	}
	// Never exceeds its N*1 cap and clamps at 1.
	if got := evadeRecurrence(2, 1, 1<<20); got > 1 {
		t.Fatalf("recurrence exceeded 1: %g", got)
	}
	// m <= 0 is immediate success (degenerate guard).
	if got := evadeRecurrence(4, 0, 10); got != 1 {
		t.Fatalf("m=0 should return 1, got %g", got)
	}
}

// evadeRecurrenceFull is evadeRecurrence as it was before its ring buffer:
// the whole P[0..steps] history in one slice. It is the reference the ring
// buffer must match bit for bit.
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
// past it, where both take the linear bound.
func TestEvadeRecurrenceMatchesFullHistory(t *testing.T) {
	check := func(nAggr, m, steps int) {
		t.Helper()
		if got, want := evadeRecurrence(nAggr, m, steps), evadeRecurrenceFull(nAggr, m, steps); got != want {
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
