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
package hammer

import "fmt"

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

// Weight returns the disturbance weight of an aggressor at the given
// distance from a victim: 1 for adjacent, halved per extra row, zero outside
// the blast radius.
func (c Config) Weight(distance int) float64 {
	if distance < 1 || distance > c.BlastRadius {
		return 0
	}
	return 1.0 / float64(int(1)<<(distance-1))
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
// above. Weights are positive and only a restore or Reset lowers a count
// (to zero), so a row flips at most once between restores.
type Subarray struct {
	cfg   Config
	eff   []float64 // effective hammer count per DA row since last restore
	flips []Flip    // log of every flip since construction or Reset

	// Totals for experiment reporting.
	acts     int64
	restores int64
}

// NewSubarray returns a tracker for rows DA rows.
func NewSubarray(rows int, cfg Config) *Subarray {
	if rows <= 0 {
		panic(fmt.Sprintf("hammer: non-positive row count %d", rows))
	}
	if cfg.HCnt <= 0 || cfg.BlastRadius <= 0 {
		panic(fmt.Sprintf("hammer: invalid config %+v", cfg))
	}
	return &Subarray{ //shadowvet:ignore allocflow -- first-touch lazy subarray build, warm before steady state
		cfg: cfg,
		eff: make([]float64, rows), //shadowvet:ignore allocflow -- first-touch lazy subarray build, warm before steady state
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
	s.acts++
	// Activation restores the row's own charge.
	s.eff[r] = 0

	var out []Flip
	h := float64(s.cfg.HCnt)
	for d := 1; d <= s.cfg.BlastRadius; d++ {
		w := s.cfg.Weight(d)
		for _, v := range [2]int{r - d, r + d} {
			if v < 0 || v >= len(s.eff) {
				continue
			}
			before := s.eff[v]
			s.eff[v] += w
			if s.eff[v] >= h && before < h {
				f := Flip{Row: v, Pressure: s.eff[v], ByRow: r}
				s.flips = append(s.flips, f) //shadowvet:ignore allocflow -- a row enters the flip list once per crossing of H_cnt, at most once between restores
				out = append(out, f)         //shadowvet:ignore allocflow -- flip result list, non-empty only on rare flip events, not steady-state work
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
	s.restores++
	s.eff[r] = 0
}

// Pressure returns the current effective hammer count of DA row r.
func (s *Subarray) Pressure(r int) float64 {
	s.mustRow(r)
	return s.eff[r]
}

// Flips returns the log of all flips recorded so far. The returned slice is
// owned by the tracker; callers must not modify it.
func (s *Subarray) Flips() []Flip { return s.flips }

// FlipCount returns the number of flips recorded so far.
func (s *Subarray) FlipCount() int { return len(s.flips) }

// Acts returns the total activations observed.
func (s *Subarray) Acts() int64 { return s.acts }

// Restores returns the total row restores observed (excluding those implied
// by activations).
func (s *Subarray) Restores() int64 { return s.restores }

// Reset clears all state including the flip log.
func (s *Subarray) Reset() {
	clear(s.eff)
	s.flips = nil
	s.acts = 0
	s.restores = 0
}

func (s *Subarray) mustRow(r int) {
	if r < 0 || r >= len(s.eff) {
		panic(fmt.Sprintf("hammer: row %d out of range [0,%d)", r, len(s.eff)))
	}
}
