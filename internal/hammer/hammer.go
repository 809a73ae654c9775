// Package hammer implements the Row Hammer fault model of the paper's
// threat model (Section II-D):
//
//  1. More than H_cnt (weighted) activations of aggressors near a victim row
//     within a refresh window cause a bit flip in the victim.
//  2. Aggressors also disturb non-adjacent rows within the blast radius,
//     with the effect halved per additional row of distance (blast-attacks).
//  3. Disturbance never crosses a subarray boundary.
//
// The model tracks, per DRAM-device-address (DA) row, the accumulated
// effective hammer count since that row's charge was last restored. Any full
// restore — auto-refresh, TRR, SHADOW's incremental refresh, the row's own
// activation, or being the destination of a row copy — resets the count.
// When a victim's count crosses H_cnt the model reports a bit flip: the
// count only rises between restores, so each crossing is reported once.
//
// A count is a 32-bit integer in units of the smallest blast weight: at
// radius R an aggressor at distance d adds 2^(R−d) units, and H_cnt is
// H_cnt·2^(R−1) units. Every such sum below 2^53 is exact in float64, so
// Pressure and Flip.Pressure equal the weighted count summed in float64 bit
// for bit. A tracker costs 4 bytes per row. It keeps no flip log: the
// caller receives each flip from Activate.
package hammer

import (
	"fmt"
	"math"
)

// MaxBlastRadius is the largest blast radius the model represents. It covers
// the paper's observed radius 6 and Fig 10's sweep of 1–5.
const MaxBlastRadius = 8

// Config describes the vulnerability of a DRAM device.
type Config struct {
	// HCnt is the minimum effective activation count that flips a bit in a
	// victim row (the paper sweeps 16K down to 2K).
	HCnt int
	// BlastRadius is the maximum aggressor-to-victim distance that still
	// causes disturbance. 1 is classic adjacent-only RH; the paper uses 3 as
	// the default and notes radius 6 has been observed.
	BlastRadius int
}

// DefaultConfig matches the paper's defaults: H_cnt 4K, blast radius 3
// (weighted aggressor sum W_sum = 3.5).
func DefaultConfig() Config {
	return Config{HCnt: 4096, BlastRadius: 3}
}

// Valid reports whether the model represents c: a positive H_cnt and a
// blast radius from 1 to MaxBlastRadius.
func (c Config) Valid() bool {
	return c.HCnt > 0 && c.BlastRadius > 0 && c.BlastRadius <= MaxBlastRadius
}

// Weight returns the disturbance weight of an aggressor at the given
// distance from a victim: 1 for adjacent, halved per extra row, zero outside
// the blast radius.
func (c Config) Weight(distance int) float64 {
	if distance < 1 || distance > c.BlastRadius {
		return 0
	}
	return math.Ldexp(1, 1-distance)
}

// WSum returns the paper's W_sum: the summed weight of every in-range
// aggressor position around a victim (both sides). For radius 3 it is 3.5.
func (c Config) WSum() float64 {
	s := 0.0
	for d := 1; d <= c.BlastRadius; d++ {
		s += 2 * c.Weight(d)
	}
	return s
}

// Flip records one RH-induced bit flip.
type Flip struct {
	Row      int     // DA row index within the subarray
	Pressure float64 // accumulated effective hammer count at flip time
	ByRow    int     // the aggressor DA row whose ACT completed the flip
}

// Subarray tracks hammer pressure for every DA row of one subarray. A row
// flips when an activation lifts its count from below H_cnt to H_cnt or
// above. Weights are positive and only a restore lowers a count (to zero),
// so a row flips at most once between restores.
type Subarray struct {
	cfg    Config
	flipAt uint64 // H_cnt in units
	// eff is each DA row's effective hammer count since its last restore, in
	// units of 2^(1−R). Auto-refresh restores every row at least once per
	// tREFW, and one ACT adds at most 2^(R−1) units to a row, so a count
	// stays below tREFW/tRC · 2^(MaxBlastRadius−1): 0.69M · 2^7 < 2^27 at
	// DDR4-2666, far below 2^32 (dram's TestCountBoundOverOneREFW). A count
	// that would pass 2^32−1 stays there instead of wrapping.
	eff []uint32
}

// NewSubarray returns a tracker for rows DA rows.
func NewSubarray(rows int, cfg Config) *Subarray {
	if rows <= 0 {
		panic(fmt.Sprintf("hammer: non-positive row count %d", rows))
	}
	if !cfg.Valid() {
		panic(fmt.Sprintf("hammer: invalid config %+v", cfg))
	}
	return &Subarray{ //shadowvet:ignore allocflow -- first-touch lazy subarray build, warm before steady state
		cfg:    cfg,
		flipAt: uint64(cfg.HCnt) << (cfg.BlastRadius - 1),
		eff:    make([]uint32, rows), //shadowvet:ignore allocflow -- first-touch lazy subarray build, warm before steady state
	}
}

// Rows returns the number of tracked rows.
func (s *Subarray) Rows() int { return len(s.eff) }

// Config returns the vulnerability configuration.
func (s *Subarray) Config() Config { return s.cfg }

// Activate records an activation of DA row r. The activated row itself is
// fully restored (its cells are sensed and rewritten), while neighbors
// within the blast radius accumulate weighted disturbance. It returns the
// flips triggered by this activation, if any.
func (s *Subarray) Activate(r int) []Flip {
	s.mustRow(r)
	// Activation restores the row's own charge.
	s.eff[r] = 0

	var out []Flip
	for d := 1; d <= s.cfg.BlastRadius; d++ {
		w := uint32(1) << (s.cfg.BlastRadius - d)
		for _, v := range [2]int{r - d, r + d} {
			if v < 0 || v >= len(s.eff) {
				continue
			}
			before := s.eff[v]
			after := before + w
			if after < before {
				after = math.MaxUint32
			}
			s.eff[v] = after
			if uint64(after) >= s.flipAt && uint64(before) < s.flipAt {
				out = append(out, Flip{Row: v, Pressure: s.pressure(after), ByRow: r}) //shadowvet:ignore allocflow -- flip result list, non-empty only on rare flip events, not steady-state work
			}
		}
	}
	return out
}

// Refresh records a full charge restore of DA row r (auto-refresh, TRR,
// incremental refresh, or being written by a row copy). It clears the
// accumulated pressure; a previously flipped row is considered rewritten
// with correct data from the perspective of future flips.
func (s *Subarray) Refresh(r int) {
	s.mustRow(r)
	s.eff[r] = 0
}

// Pressure returns the current effective hammer count of DA row r.
func (s *Subarray) Pressure(r int) float64 {
	s.mustRow(r)
	return s.pressure(s.eff[r])
}

// pressure converts a count in units to the weighted ACT count.
func (s *Subarray) pressure(units uint32) float64 {
	return math.Ldexp(float64(units), 1-s.cfg.BlastRadius)
}

func (s *Subarray) mustRow(r int) {
	if r < 0 || r >= len(s.eff) {
		panic(fmt.Sprintf("hammer: row %d out of range [0,%d)", r, len(s.eff)))
	}
}
