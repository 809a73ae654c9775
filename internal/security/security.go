// Package security implements the paper's protection-capability analysis
// (Section VII-A and Appendix XI): closed-form RH-induced bit-flip
// probabilities for the three adversarial scenarios against SHADOW, scaled
// to a DDR5 rank over a year — the numbers of Table II — plus a Monte Carlo
// harness that mounts the same attack patterns against the real
// implementation.
//
// All probability arithmetic runs in log space: the interesting values range
// from 0.5 down to 1e-111 and below.
package security

import (
	"math"
	"sync"

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
	pw := math.Exp(logP)
	windowSeconds := float64(c.NRow) * float64(c.RAAIMT) / c.actsPerSecond()
	return c.perYear(pw, windowSeconds)
}

// maxExact is the longest recurrence evadeRecurrence runs step by step;
// longer ones take the linear bound.
const maxExact = 1 << 22

// evadeRecurrence evaluates the Equation 3 recurrence
//
//	P[n] = P[n-1] + (1 - P[n-M-1]) * (1/N) * (1-1/N)^M
//
// for n steps, returning N * P[n] (the paper conservatively multiplies by
// the number of aggressors).
func evadeRecurrence(nAggr, m, steps int) float64 {
	if m <= 0 {
		return 1
	}
	if steps <= m {
		return 0
	}
	invN := 1.0 / float64(nAggr)
	// q = (1/N) * (1-1/N)^M in log space.
	logQ := math.Log(invN) + float64(m)*math.Log1p(-invN)
	q := math.Exp(logQ)
	if q == 0 {
		return 0
	}
	// The recurrence reads only P[n-1] and P[n-M-1]; for the common regime
	// where P stays tiny, P[n] ~= (n-M)*q and the (1-P[...]) factor is 1.
	// Run it exactly when feasible, keeping P[n-1] in prev and the last M+1
	// values in a ring whose slot n%(M+1) holds P[n-M-1] until step n
	// overwrites it with P[n]; P[0..M] are 0. Otherwise use the linear
	// bound (which is an upper bound, conservative in the paper's spirit).
	if steps <= maxExact {
		ring := make([]float64, m+1)
		prev, slot := 0.0, 0
		for n := m + 1; n <= steps; n++ {
			p := prev + (1-ring[slot])*q
			if p > 1 {
				p = 1
			}
			ring[slot], prev = p, p
			if slot++; slot == len(ring) {
				slot = 0
			}
		}
		return clamp01(float64(nAggr) * prev)
	}
	return clamp01(float64(nAggr) * float64(steps-m) * q)
}

// ScenarioII evaluates attack scenario II: N_Aggr aggressors within a single
// subarray, each receiving m = RAAIMT/N_Aggr activations per RFM interval,
// hoping one evades the shuffle for M2 consecutive RFMs. The incremental
// refresh bounds the attack to NRow RFM intervals and imposes
// m*NRow < HCnt. The result maximizes over N_Aggr.
func (c Config) ScenarioII() float64 {
	best := 0.0
	for nAggr := 1; nAggr <= c.RAAIMT; nAggr++ {
		m := c.RAAIMT / nAggr // ACTs per aggressor per interval
		if m == 0 {
			continue
		}
		m2 := ceilDiv(c.HCnt, m) // intervals to survive
		if m2 > c.NRow {
			continue // incremental refresh resets victims first
		}
		p := evadeRecurrence(nAggr, m2, c.NRow)
		if p > best {
			best = p
		}
	}
	windowSeconds := float64(c.NRow) * float64(c.RAAIMT) / c.actsPerSecond()
	return c.perYear(best, windowSeconds)
}

// ScenarioIII evaluates attack scenario III: aggressors spread across
// multiple subarrays of a bank, so each RFM's shuffle thins only one of
// them; the attack window is a full tREFW. The incremental refresh benefit
// is conservatively ignored (as in the paper). The result maximizes over
// N_Aggr.
func (c Config) ScenarioIII() float64 {
	actsPerWindow := float64(c.TREFW) / float64(c.TRC)
	steps := int(actsPerWindow / float64(c.RAAIMT))
	best := 0.0
	for nAggr := 1; nAggr <= c.RAAIMT; nAggr++ {
		m := c.RAAIMT / nAggr
		if m == 0 {
			continue
		}
		m3 := ceilDiv(c.HCnt, m)
		p := evadeRecurrence(nAggr, m3, steps)
		if p > best {
			best = p
		}
	}
	windowSeconds := float64(c.TREFW) / float64(timing.Second)
	return c.perYear(best, windowSeconds)
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

// Secure reports whether the configuration achieves the paper's
// near-complete protection bar: below 1% bit-flip probability per rank-year.
func (c Config) Secure() bool { return c.BitFlipProbability() < 0.01 }

// secureRAAIMTCache memoizes SecureRAAIMT: the search evaluates the full
// evasion recurrence for up to ten candidate thresholds, and the experiment
// harness re-derives the threshold for every simulation it configures —
// without the cache that analytic dominates short benchmark runs.
var (
	secureRAAIMTMu    sync.Mutex
	secureRAAIMTCache = map[int]int{}
)

// SecureRAAIMT returns the largest power-of-two RAAIMT (fewest RFMs, lowest
// overhead) in [8, 4096] that is secure for the given H_cnt, or 0 if none.
// Table II bolds exactly these configurations.
func SecureRAAIMT(hcnt int) int {
	secureRAAIMTMu.Lock()
	defer secureRAAIMTMu.Unlock()
	if r, ok := secureRAAIMTCache[hcnt]; ok {
		return r
	}
	r := 0
	for raaimt := 4096; raaimt >= 8; raaimt /= 2 {
		if DefaultConfig(hcnt, raaimt).Secure() {
			r = raaimt
			break
		}
	}
	secureRAAIMTCache[hcnt] = r
	return r
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
