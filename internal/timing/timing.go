// Package timing defines the simulation time base and the JEDEC DRAM timing
// parameter sets used throughout the SHADOW reproduction.
//
// Simulation time is expressed in Ticks (picoseconds). Timing parameters are
// stored in Ticks so code never has to care about the speed grade's clock
// period, but helpers are provided to convert to and from DRAM command-clock
// cycles (tCK units) because JEDEC specifies most constraints in cycles.
//
// Two speed grades from the paper are provided: DDR4-2666 (the actual-system
// configuration, Table IV) and DDR5-4800 (the architectural-simulation
// configuration). SHADOW-specific parameters (tRD_RM, tRCD', row-copy and
// row-shuffle service times, Section VI) are derived by Params.WithShadow
// from the circuit-model results.
package timing

import "fmt"

// Tick is one picosecond of simulated time. All absolute times and durations
// in the simulator are Ticks.
type Tick int64

// Common durations.
const (
	Picosecond  Tick = 1
	Nanosecond  Tick = 1000
	Microsecond Tick = 1000 * Nanosecond
	Millisecond Tick = 1000 * Microsecond
	Second      Tick = 1000 * Millisecond
)

// Forever is a sentinel meaning "never" for next-event computations.
const Forever Tick = 1<<63 - 1

// Nanoseconds reports t as a float64 number of nanoseconds.
func (t Tick) Nanoseconds() float64 { return float64(t) / float64(Nanosecond) }

// String renders the tick in engineering units for logs and tests.
func (t Tick) String() string {
	switch {
	case t == Forever:
		return "forever"
	case t >= Second:
		return fmt.Sprintf("%.3fs", float64(t)/float64(Second))
	case t >= Millisecond:
		return fmt.Sprintf("%.3fms", float64(t)/float64(Millisecond))
	case t >= Microsecond:
		return fmt.Sprintf("%.3fus", float64(t)/float64(Microsecond))
	case t >= Nanosecond:
		return fmt.Sprintf("%.3fns", float64(t)/float64(Nanosecond))
	default:
		return fmt.Sprintf("%dps", int64(t))
	}
}

// NS converts a (possibly fractional) nanosecond count to Ticks.
func NS(ns float64) Tick { return Tick(ns*float64(Nanosecond) + 0.5) }

// Grade identifies a DRAM speed grade / standard generation.
type Grade int

// Supported speed grades.
const (
	DDR4_2666 Grade = iota
	DDR5_4800
)

// String implements fmt.Stringer.
func (g Grade) String() string {
	switch g {
	case DDR4_2666:
		return "DDR4-2666"
	case DDR5_4800:
		return "DDR5-4800"
	default:
		return fmt.Sprintf("Grade(%d)", int(g))
	}
}

// Params is a complete DRAM timing parameter set. All durations are Ticks.
// Field names follow JEDEC conventions with the leading "t" dropped.
type Params struct {
	Grade Grade
	TCK   Tick // command clock period

	// Core access timings.
	RCD Tick // ACT to internal RD/WR delay
	RP  Tick // PRE to ACT delay
	RAS Tick // ACT to PRE delay (row restoration)
	RC  Tick // ACT to ACT delay, same bank (RAS+RP)
	AA  Tick // RD to first data (CAS latency, a.k.a. tCL/tAA)
	WL  Tick // WR to first data in (write latency)
	BL  Tick // burst duration on the data bus

	// Intra-device spacing constraints.
	CCDL Tick // RD/WR to RD/WR, same bank group
	CCDS Tick // RD/WR to RD/WR, different bank group
	RRDL Tick // ACT to ACT, same bank group
	RRDS Tick // ACT to ACT, different bank group
	FAW  Tick // rolling window for four ACTs per rank
	WR   Tick // write recovery (last data-in to PRE)
	RTP  Tick // RD to PRE

	// Refresh and refresh management.
	REFI Tick // average periodic refresh interval
	RFC  Tick // refresh cycle time (all-bank REF busy time)
	REFW Tick // refresh window (every cell refreshed once per REFW)
	RFM  Tick // RFM command busy time (tRFM)

	// RFM interface configuration (JEDEC DDR5): an RFM command is issued by
	// the MC when a bank's Rolling Accumulated ACT (RAA) counter reaches
	// RAAIMT. Zero disables RFM.
	RAAIMT int
	// RAAMMT is the maximum RAA value; ACTs to a bank stall when its RAA
	// counter would exceed RAAMMT before an RFM is serviced.
	RAAMMT int

	// Shadow holds SHADOW-specific additions; nil for an unmodified device.
	Shadow *ShadowTimings
}

// ShadowTimings are the SHADOW-specific timing values of Sections V-VI,
// normally produced by the circuit model (package circuit, Table III).
type ShadowTimings struct {
	RDRM    Tick // tRD_RM: activate + read remapping-row (added to every ACT)
	RCDRM   Tick // tRCD_RM: remapping-row sensing time
	WRRM    Tick // tWR_RM: remapping-row write recovery
	RowCopy Tick // one intra-subarray row copy including precharge

	// CopyRestoreFrac is the fraction of tRAS needed to drive the row-buffer
	// contents into the destination row (0.55 from the SPICE analysis; the
	// conservative pre-SPICE value is 1.0).
	CopyRestoreFrac float64
}

// Cycles converts a cycle count at this grade's clock into Ticks.
func (p *Params) Cycles(n int) Tick { return Tick(n) * p.TCK }

// ToCycles converts a duration into a (rounded-up) number of command clocks.
func (p *Params) ToCycles(t Tick) int {
	if t <= 0 {
		return 0
	}
	return int((t + p.TCK - 1) / p.TCK)
}

// EffectiveRCD is the ACT-to-RD delay the memory controller must honor:
// tRCD' = tRCD + tRD_RM when SHADOW is present (Section VI-A), else tRCD.
func (p *Params) EffectiveRCD() Tick {
	if p.Shadow != nil {
		return p.RCD + p.Shadow.RDRM
	}
	return p.RCD
}

// ShuffleTime is the total service time of a SHADOW row-shuffle performed
// during an RFM: tRD_RM + (tRAS + tRP) for the incremental refresh followed
// by two row-copies at (1+CopyRestoreFrac)*tRAS each plus a tRP after each
// copy (Section VI-B as revised by the SPICE results in Section VII-B:
// tRD_RM + tRAS + tRP + 3.1*tRAS + 2*tRP for CopyRestoreFrac = 0.55).
func (p *Params) ShuffleTime() Tick {
	s := p.Shadow
	if s == nil {
		return 0
	}
	copyPair := Tick(float64(2*p.RAS)*(1+s.CopyRestoreFrac)) + 2*p.RP
	return s.RDRM + p.RAS + p.RP + copyPair
}

// Validate checks internal consistency of the parameter set.
func (p *Params) Validate() error {
	switch {
	case p.TCK <= 0:
		return fmt.Errorf("timing: TCK must be positive, got %v", p.TCK)
	case p.RC != p.RAS+p.RP:
		return fmt.Errorf("timing: RC (%v) != RAS+RP (%v)", p.RC, p.RAS+p.RP)
	case p.RCD <= 0 || p.RP <= 0 || p.RAS <= 0:
		return fmt.Errorf("timing: core timings must be positive")
	case p.REFI <= 0 || p.RFC <= 0 || p.REFW <= 0:
		return fmt.Errorf("timing: refresh timings must be positive")
	case p.RFC >= p.REFI:
		return fmt.Errorf("timing: RFC (%v) must be below REFI (%v)", p.RFC, p.REFI)
	case p.RAAIMT < 0:
		return fmt.Errorf("timing: RAAIMT must be non-negative")
	case p.RAAIMT > 0 && p.RAAMMT < p.RAAIMT:
		return fmt.Errorf("timing: RAAMMT (%d) below RAAIMT (%d)", p.RAAMMT, p.RAAIMT)
	}
	if s := p.Shadow; s != nil {
		if s.RDRM <= 0 || s.RowCopy <= 0 {
			return fmt.Errorf("timing: shadow timings must be positive")
		}
		if s.CopyRestoreFrac <= 0 || s.CopyRestoreFrac > 1 {
			return fmt.Errorf("timing: CopyRestoreFrac out of (0,1]: %g", s.CopyRestoreFrac)
		}
		if p.ShuffleTime() > p.RFM {
			return fmt.Errorf("timing: shuffle time %v exceeds tRFM %v", p.ShuffleTime(), p.RFM)
		}
	}
	return nil
}

// Clone returns a deep copy of p so experiments can mutate parameters freely.
func (p *Params) Clone() *Params {
	q := *p
	if p.Shadow != nil {
		s := *p.Shadow
		q.Shadow = &s
	}
	return &q
}

// WithShadow returns a copy of p carrying the given SHADOW timings.
func (p *Params) WithShadow(s ShadowTimings) *Params {
	q := p.Clone()
	q.Shadow = &s
	return q
}

// WithRAAIMT returns a copy of p with the RFM threshold set. RAAMMT is set
// to the JEDEC-typical 3x RAAIMT.
func (p *Params) WithRAAIMT(raaimt int) *Params {
	q := p.Clone()
	q.RAAIMT = raaimt
	q.RAAMMT = 3 * raaimt
	return q
}

// WithRefreshScale returns a copy of p with tREFI divided by factor. Used to
// emulate the double-refresh-rate (DRR) baseline (factor 2) and the paper's
// RFM-emulation-by-extra-refresh methodology (Equation 1).
func (p *Params) WithRefreshScale(factor float64) *Params {
	q := p.Clone()
	q.REFI = Tick(float64(q.REFI) / factor)
	return q
}

// NewParams returns the timing parameter set for a speed grade. The values
// follow the paper's Table IV for DDR4-2666 (19-19-19, tRFC 467 tCK, tREFI
// 10400 tCK) and JEDEC DDR5-4800B for DDR5.
func NewParams(g Grade) *Params {
	switch g {
	case DDR4_2666:
		tck := NS(0.75)
		p := &Params{
			Grade: g,
			TCK:   tck,
			RCD:   19 * tck,
			RP:    19 * tck,
			AA:    19 * tck,
			WL:    18 * tck,
			RAS:   43 * tck, // 32.25 ns
			BL:    4 * tck,  // BL8, DDR
			CCDL:  7 * tck,
			CCDS:  4 * tck,
			RRDL:  7 * tck,
			RRDS:  4 * tck,
			FAW:   28 * tck,
			WR:    20 * tck,
			RTP:   10 * tck,
			REFI:  10400 * tck, // 7.8 us
			RFC:   467 * tck,   // 350 ns (16Gb)
			REFW:  32 * Millisecond,
			RFM:   NS(195.0), // JEDEC DDR5-style tRFM; the shuffle (178ns) fits
		}
		p.RC = p.RAS + p.RP
		return p
	case DDR5_4800:
		tck := NS(1.0 / 2.4) // 0.41666 ns
		p := &Params{
			Grade: g,
			TCK:   tck,
			RCD:   NS(16.0),
			RP:    NS(16.0),
			AA:    NS(16.0),
			WL:    NS(15.0),
			RAS:   NS(32.0),
			BL:    8 * tck, // BL16, DDR
			CCDL:  NS(5.0),
			CCDS:  8 * tck,
			RRDL:  NS(5.0),
			RRDS:  8 * tck,
			FAW:   NS(13.333),
			WR:    NS(30.0),
			RTP:   NS(7.5),
			REFI:  NS(3900.0), // fine-granularity refresh, per-bank pace
			RFC:   NS(295.0),  // tRFC1 16Gb
			REFW:  32 * Millisecond,
			RFM:   NS(195.0), // JEDEC tRFM (16Gb); the shuffle (186ns) fits
		}
		p.RC = p.RAS + p.RP
		return p
	default:
		panic(fmt.Sprintf("timing: unknown grade %d", int(g)))
	}
}
