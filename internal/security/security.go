// Package security implements the paper's protection-capability analysis
// (Section VII-A and Appendix XI): closed-form RH-induced bit-flip
// probabilities for the three adversarial scenarios against SHADOW, scaled
// to a DDR5 rank over a year — the numbers of Table II — plus a Monte Carlo
// harness that mounts the same attack patterns against the real
// implementation.
//
// All probability arithmetic runs in log space: the interesting values range
// from 0.5 down to 1e-111 and below.
//
// The printed values (BitFlipProbability, ScenarioI/II/III) are full
// evaluations. Secure, and so SecureRAAIMT, only decides the 1% bar: it
// stops at the first scenario or aggressor split that reaches it, and it
// clears a split by the recurrence's linear bound N*(steps-M)*q, padded by
// a relative 1e-6, without running the recurrence. It returns exactly
// BitFlipProbability() < 0.01, in microseconds rather than milliseconds.
package security

import (
	"math"

	"shadow/internal/timing"
)

// Config parameterizes the analysis. The zero value is not useful; start
// from DefaultConfig.
type Config struct {
	// HCnt is the Row Hammer threshold; RAAIMT the RFM interval in ACTs.
	HCnt, RAAIMT int
	// NRow is the number of rows per subarray (512).
	NRow int
	// WSum is the weighted aggressor sum over the blast radius (3.5).
	WSum float64
	// Banks per rank (32 for DDR5).
	Banks int
	// TRC is the minimum ACT-to-ACT time: the attacker's maximum per-bank
	// activation rate is 1/tRC.
	TRC timing.Tick
	// TREFW is the refresh window bounding scenario III attacks.
	TREFW timing.Tick
	// HorizonSeconds is the total attack time (one year).
	HorizonSeconds float64
}

// DefaultConfig returns the paper's Table II setting for a DDR5-4800 rank.
func DefaultConfig(hcnt, raaimt int) Config {
	p := timing.NewParams(timing.DDR5_4800)
	return Config{
		HCnt:           hcnt,
		RAAIMT:         raaimt,
		NRow:           512,
		WSum:           3.5,
		Banks:          32,
		TRC:            p.RC,
		TREFW:          p.REFW,
		HorizonSeconds: 365.25 * 24 * 3600,
	}
}

// actsPerSecond is the attacker's peak per-bank activation rate.
func (c Config) actsPerSecond() float64 {
	return 1.0 / (float64(c.TRC) / float64(timing.Second))
}

// perYear expands a per-window probability to the rank-year probability:
// 1 - (1-p)^(windows * banks), computed stably.
func (c Config) perYear(pWindow, windowSeconds float64) float64 {
	if pWindow <= 0 || windowSeconds <= 0 {
		return 0
	}
	if pWindow >= 1 {
		return 1
	}
	k := c.HorizonSeconds / windowSeconds * float64(c.Banks)
	// 1-(1-p)^k = -expm1(k*log1p(-p))
	return -math.Expm1(k * math.Log1p(-pWindow))
}

// logChoose returns ln C(n, k).
func logChoose(n, k int) float64 {
	if k < 0 || k > n {
		return math.Inf(-1)
	}
	ln1, _ := math.Lgamma(float64(n + 1))
	lk, _ := math.Lgamma(float64(k + 1))
	lnk, _ := math.Lgamma(float64(n - k + 1))
	return ln1 - lk - lnk
}

// ScenarioI evaluates Appendix XI attack scenario I (Equation 2): a
// birthday-paradox attack that hammers one fresh PA row per RFM interval,
// betting that M1 = ceil(HCnt/RAAIMT) of the shuffled locations land within
// blast range of a common victim before the incremental refresh window (NRow
// RFM commands) expires. Returns the rank-year bit-flip probability.
func (c Config) ScenarioI() float64 {
	m1 := ceilDiv(c.HCnt, c.RAAIMT)
	if m1 > c.NRow {
		return 0 // cannot land enough balls within the incremental window
	}
	p := c.WSum / float64(c.NRow)
	// P1 = NRow * C(NRow, M1) * p^M1 * (1-p)^(NRow-M1)
	logP := math.Log(float64(c.NRow)) +
		logChoose(c.NRow, m1) +
		float64(m1)*math.Log(p) +
		float64(c.NRow-m1)*math.Log1p(-p)
	return c.perYear(math.Exp(logP), c.incrementalWindow())
}

// maxExact is the longest recurrence evadeRecurrence runs step by step;
// longer ones take the linear bound.
const maxExact = 1 << 22

// evadeQ returns Equation 3's step weight q = (1/N) * (1-1/N)^M, computed
// in log space. It is the most one step of the recurrence can add.
func evadeQ(nAggr, m int) float64 {
	invN := 1.0 / float64(nAggr)
	return math.Exp(math.Log(invN) + float64(m)*math.Log1p(-invN))
}

// evadeBound returns the linear upper bound N * (steps-M) * q on
// evadeRecurrence(nAggr, m, steps): each step after the first M adds
// (1 - P[n-M-1]) * q <= q, since 0 <= P <= 1. It is not clamped to 1.
func evadeBound(nAggr, m, steps int) float64 {
	if m <= 0 {
		return 1
	}
	if steps <= m {
		return 0
	}
	return float64(nAggr) * float64(steps-m) * evadeQ(nAggr, m)
}

// evadeRecurrence evaluates the Equation 3 recurrence
//
//	P[n] = P[n-1] + (1 - P[n-M-1]) * (1/N) * (1-1/N)^M
//
// for n steps, returning N * P[n] clamped to 1 (the paper conservatively
// multiplies by the number of aggressors). ring is scratch space for the
// exact run, reused across calls: the returned slice is ring, grown if the
// run needed more.
func evadeRecurrence(nAggr, m, steps int, ring []float64) (float64, []float64) {
	if m <= 0 {
		return 1, ring
	}
	if steps <= m {
		return 0, ring
	}
	q := evadeQ(nAggr, m)
	if q == 0 {
		return 0, ring
	}
	// The recurrence reads only P[n-1] and P[n-M-1]; for the common regime
	// where P stays tiny, P[n] ~= (n-M)*q and the (1-P[...]) factor is 1.
	// Run it exactly when feasible, keeping P[n-1] in prev and the last M+1
	// values in a ring whose slot n%(M+1) holds P[n-M-1] until step n
	// overwrites it with P[n]; P[0..M] are 0. P never falls, so once N*P
	// reaches 1 the clamped result is 1 and the run stops. Otherwise use
	// the linear bound (which is an upper bound, conservative in the
	// paper's spirit).
	if steps > maxExact {
		return clamp01(evadeBound(nAggr, m, steps)), ring
	}
	if cap(ring) < m+1 {
		ring = make([]float64, m+1, max(m+1, 2*cap(ring)))
	}
	hist := ring[:m+1]
	clear(hist)
	prev, slot := 0.0, 0
	for n := m + 1; n <= steps; n++ {
		p := prev + (1-hist[slot])*q
		if float64(nAggr)*p >= 1 {
			return 1, ring
		}
		hist[slot], prev = p, p
		if slot++; slot == len(hist) {
			slot = 0
		}
	}
	return float64(nAggr) * prev, ring
}

// Both multi-aggressor scenarios split one RFM interval's RAAIMT ACTs
// evenly over N aggressors, N in [1, RAAIMT]: each gets m = RAAIMT/N ACTs
// per interval and must evade the shuffle for M = ceil(HCnt/m) consecutive
// intervals. worstSplit takes the worst split's Equation 3 probability over
// steps intervals, skipping splits whose M exceeds maxM, and expands it to
// the rank year for windowSeconds-long windows.
func (c Config) worstSplit(maxM, steps int, windowSeconds float64) float64 {
	var ring []float64
	best := 0.0
	for nAggr := 1; nAggr <= c.RAAIMT && best < 1; nAggr++ {
		m := ceilDiv(c.HCnt, c.RAAIMT/nAggr)
		if m > maxM {
			continue
		}
		var p float64
		p, ring = evadeRecurrence(nAggr, m, steps, ring)
		if p > best {
			best = p
		}
	}
	return c.perYear(best, windowSeconds)
}

// ScenarioII evaluates attack scenario II: N_Aggr aggressors within a single
// subarray, each receiving m = RAAIMT/N_Aggr activations per RFM interval,
// hoping one evades the shuffle for M2 consecutive RFMs. The incremental
// refresh bounds the attack to NRow RFM intervals and imposes
// m*NRow < HCnt. The result maximizes over N_Aggr.
func (c Config) ScenarioII() float64 {
	return c.worstSplit(c.NRow, c.NRow, c.incrementalWindow())
}

// ScenarioIII evaluates attack scenario III: aggressors spread across
// multiple subarrays of a bank, so each RFM's shuffle thins only one of
// them; the attack window is a full tREFW. The incremental refresh benefit
// is conservatively ignored (as in the paper). The result maximizes over
// N_Aggr.
func (c Config) ScenarioIII() float64 {
	return c.worstSplit(math.MaxInt, c.refreshSteps(), c.refreshWindow())
}

// incrementalWindow is scenarios I and II's attack window in seconds: NRow
// RFM intervals, one incremental refresh period.
func (c Config) incrementalWindow() float64 {
	return float64(c.NRow) * float64(c.RAAIMT) / c.actsPerSecond()
}

// refreshSteps is the number of RFM intervals in tREFW, scenario III's steps.
func (c Config) refreshSteps() int {
	actsPerWindow := float64(c.TREFW) / float64(c.TRC)
	return int(actsPerWindow / float64(c.RAAIMT))
}

// refreshWindow is scenario III's attack window, tREFW, in seconds.
func (c Config) refreshWindow() float64 {
	return float64(c.TREFW) / float64(timing.Second)
}

// BitFlipProbability returns the rank-year bit-flip probability: the worst
// (maximum) of the three attack scenarios, as reported in Table II.
func (c Config) BitFlipProbability() float64 {
	return math.Max(c.ScenarioI(), math.Max(c.ScenarioII(), c.ScenarioIII()))
}

// SpecificVictimProbability returns the rank-year probability of flipping a
// bit in one *chosen* victim row, rather than any row. Section VII-A: "the
// bit-flip probability is analyzed with regard to the bit-flip of any victim
// row, not a specific victim row. SHADOW prevents a bit-flip of a specific
// victim row more strongly" — under dynamic shuffling the attacker cannot
// know which PA currently neighbors the target, so the any-victim
// probability divides across the NRow equally-likely victims of the
// subarray.
func (c Config) SpecificVictimProbability() float64 {
	return c.BitFlipProbability() / float64(c.NRow)
}

// secureBar is the paper's near-complete protection bar: a rank-year
// bit-flip probability below 1%.
const secureBar = 0.01

// boundPad pads a linear bound before it clears a split: the exact
// recurrence sums up to maxExact terms, and its rounding may lift it past
// the bound's single product by a relative ~maxExact * 2^-53 ~ 5e-10.
const boundPad = 1 + 1e-6

// Secure reports whether the configuration achieves the paper's
// near-complete protection bar, BitFlipProbability() < 1%, and returns
// exactly that. It decides rather than evaluates: the maximum is under the
// bar only if every scenario and every aggressor split is, so it returns
// false at the first one that reaches the bar, and it clears a split by
// evadeBound without running its recurrence where it can (see
// splitReachesBar).
func (c Config) Secure() bool {
	return c.ScenarioI() < secureBar &&
		!c.splitReachesBar(c.NRow, c.NRow, c.incrementalWindow()) &&
		!c.splitReachesBar(math.MaxInt, c.refreshSteps(), c.refreshWindow())
}

// splitReachesBar reports whether worstSplit(maxM, steps, windowSeconds)
// reaches secureBar, without computing it.
//
// worstSplit is perYear of the largest split probability, and perYear never
// decreases as its input grows, so the worst split reaches the bar exactly
// when some split does. A split's probability is at most its evadeBound,
// because every recurrence step adds at most q. The exact run sums its
// steps one at a time, so its rounding may exceed the bound's one product;
// boundPad's relative 1e-6 covers that many times over. So a split whose
// padded bound stays under the bar cannot reach it and is skipped. Any
// other split runs the exact recurrence, and the first that reaches the
// bar decides.
func (c Config) splitReachesBar(maxM, steps int, windowSeconds float64) bool {
	var ring []float64
	for nAggr := 1; nAggr <= c.RAAIMT; nAggr++ {
		m := ceilDiv(c.HCnt, c.RAAIMT/nAggr)
		if m > maxM || c.perYear(boundPad*evadeBound(nAggr, m, steps), windowSeconds) < secureBar {
			continue
		}
		var p float64
		p, ring = evadeRecurrence(nAggr, m, steps, ring)
		if c.perYear(p, windowSeconds) >= secureBar {
			return true
		}
	}
	return false
}

// SecureRAAIMT returns the largest power-of-two RAAIMT (fewest RFMs, lowest
// overhead) in [8, 4096] that is secure for the given H_cnt, or 0 if none.
// Table II bolds exactly these configurations.
func SecureRAAIMT(hcnt int) int {
	for raaimt := 4096; raaimt >= 8; raaimt /= 2 {
		if DefaultConfig(hcnt, raaimt).Secure() {
			return raaimt
		}
	}
	return 0
}

func ceilDiv(a, b int) int { return (a + b - 1) / b }

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}
