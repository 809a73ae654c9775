package hammer

import (
	"fmt"
	"math"
	"slices"
	"testing"
	"testing/quick"

	"shadow/internal/rng"
)

func TestWeight(t *testing.T) {
	c := Config{HCnt: 100, BlastRadius: 3}
	cases := []struct {
		d    int
		want float64
	}{
		{0, 0}, {1, 1}, {2, 0.5}, {3, 0.25}, {4, 0}, {-1, 0},
	}
	for _, cse := range cases {
		if got := c.Weight(cse.d); got != cse.want {
			t.Errorf("Weight(%d) = %g, want %g", cse.d, got, cse.want)
		}
	}
}

// TestValidateBlastRadius: the model represents blast radii 1 to
// MaxBlastRadius. Past 63 Weight's old integer divisor went negative and
// then zero, and such a run reported thousands of flips.
func TestValidateBlastRadius(t *testing.T) {
	for r := 1; r <= MaxBlastRadius; r++ {
		if !(Config{HCnt: 4096, BlastRadius: r}).Valid() {
			t.Errorf("radius %d rejected", r)
		}
	}
	for _, c := range []Config{
		{HCnt: 4096, BlastRadius: 0},
		{HCnt: 4096, BlastRadius: MaxBlastRadius + 1},
		{HCnt: 4096, BlastRadius: 64},
		{HCnt: 4096, BlastRadius: 65},
		{HCnt: 0, BlastRadius: 3},
	} {
		if c.Valid() {
			t.Errorf("%+v accepted", c)
		}
	}
}

// TestWSumDefault: the paper sets W_sum = 3.5 for the default blast radius 3.
func TestWSumDefault(t *testing.T) {
	if got := DefaultConfig().WSum(); math.Abs(got-3.5) > 1e-12 {
		t.Fatalf("WSum() = %g, want 3.5", got)
	}
	if got := (Config{HCnt: 1, BlastRadius: 1}).WSum(); got != 2 {
		t.Fatalf("radius-1 WSum = %g, want 2", got)
	}
}

func TestSingleSidedFlip(t *testing.T) {
	s := NewSubarray(16, Config{HCnt: 100, BlastRadius: 1})
	var flips []Flip
	for i := 0; i < 99; i++ {
		flips = append(flips, s.Activate(5)...)
	}
	if len(flips) != 0 {
		t.Fatalf("flipped after 99 ACTs with HCnt 100: %v", flips)
	}
	flips = s.Activate(5)
	if len(flips) != 2 {
		t.Fatalf("expected both neighbors to flip on ACT 100, got %v", flips)
	}
	rows := map[int]bool{flips[0].Row: true, flips[1].Row: true}
	if !rows[4] || !rows[6] {
		t.Fatalf("flipped rows %v, want 4 and 6", rows)
	}
	for _, f := range flips {
		if f.ByRow != 5 {
			t.Errorf("flip attributed to row %d, want 5", f.ByRow)
		}
		if f.Pressure < 100 {
			t.Errorf("flip pressure %g below HCnt", f.Pressure)
		}
	}
}

func TestDoubleSidedFlipTwiceAsFast(t *testing.T) {
	// Alternating ACTs on rows 4 and 6 hammer row 5 from both sides: the
	// victim accumulates 1 per ACT, so it flips after HCnt total ACTs.
	s := NewSubarray(16, Config{HCnt: 100, BlastRadius: 1})
	n := 0
	for i := 0; ; i++ {
		r := 4
		if i%2 == 1 {
			r = 6
		}
		n++
		if flips := s.Activate(r); len(flips) > 0 {
			if flips[0].Row != 5 {
				t.Fatalf("flipped row %d, want 5", flips[0].Row)
			}
			break
		}
		if n > 101 {
			t.Fatal("no flip after 101 double-sided ACTs")
		}
	}
	if n != 100 {
		t.Fatalf("double-sided flip after %d ACTs, want 100", n)
	}
}

// TestBlastRadiusDistanceHalving: a victim at distance d needs 2^(d-1) times
// the ACT count (threat model item 2), up to MaxBlastRadius. Beyond distance
// 1 the ACT that completes the flip adds a fractional weight.
func TestBlastRadiusDistanceHalving(t *testing.T) {
	for _, radius := range []int{3, MaxBlastRadius} {
		for d := 1; d <= radius; d++ {
			s := NewSubarray(32, Config{HCnt: 64, BlastRadius: radius})
			aggr, victim := 16, 16+d
			want := 64 * (1 << (d - 1))
			for acts := 1; acts <= want; acts++ {
				var hit []Flip
				for _, f := range s.Activate(aggr) {
					if f.Row == victim {
						hit = append(hit, f)
					}
				}
				if acts < want && len(hit) > 0 {
					t.Fatalf("radius %d distance %d: flip after %d ACTs, want %d", radius, d, acts, want)
				}
				if acts == want && (len(hit) != 1 || hit[0].Pressure != 64 || hit[0].ByRow != aggr) {
					t.Fatalf("radius %d distance %d: ACT %d flipped %v, want one flip at pressure 64", radius, d, acts, hit)
				}
			}
		}
	}
}

func TestRefreshResetsPressure(t *testing.T) {
	s := NewSubarray(16, Config{HCnt: 100, BlastRadius: 1})
	for i := 0; i < 99; i++ {
		s.Activate(5)
	}
	s.Refresh(4)
	if got := s.Pressure(4); got != 0 {
		t.Fatalf("pressure after refresh = %g", got)
	}
	// Row 6 was not refreshed and flips on the next ACT; row 4 does not.
	flips := s.Activate(5)
	if len(flips) != 1 || flips[0].Row != 6 {
		t.Fatalf("flips = %v, want only row 6", flips)
	}
}

// TestActivationRestoresSelf: activating the victim itself resets its
// pressure (ACT-PRE restores the charge).
func TestActivationRestoresSelf(t *testing.T) {
	s := NewSubarray(16, Config{HCnt: 100, BlastRadius: 1})
	for i := 0; i < 99; i++ {
		s.Activate(5)
	}
	if s.Pressure(6) != 99 {
		t.Fatalf("pressure = %g, want 99", s.Pressure(6))
	}
	s.Activate(6) // victim activated: restored (and hammers its own neighbors)
	if s.Pressure(6) != 0 {
		t.Fatalf("pressure after self-ACT = %g, want 0", s.Pressure(6))
	}
}

func TestFlipReportedOncePerRestoreCycle(t *testing.T) {
	s := NewSubarray(16, Config{HCnt: 10, BlastRadius: 1})
	total := 0
	for i := 0; i < 30; i++ {
		total += len(s.Activate(5))
	}
	// Rows 4 and 6 each flip exactly once (they stay flipped; pressure keeps
	// accumulating but no duplicate reports).
	if total != 2 {
		t.Fatalf("%d flips reported, want 2", total)
	}
	// After a refresh the row can flip again.
	s.Refresh(4)
	for i := 0; i < 10; i++ {
		total += len(s.Activate(5))
	}
	if total != 3 {
		t.Fatalf("%d flips reported after refresh cycle, want 3", total)
	}
}

func TestEdgeRowsClamped(t *testing.T) {
	s := NewSubarray(4, Config{HCnt: 5, BlastRadius: 3})
	// Activating row 0 must not panic; victims only on the high side.
	flips := 0
	for i := 0; i < 10; i++ {
		flips += len(s.Activate(0))
		flips += len(s.Activate(3))
	}
	if flips == 0 {
		t.Fatal("expected flips near array edges")
	}
}

func TestSubarrayBoundaryIsolation(t *testing.T) {
	// Two independent subarrays model threat item 3: hammering one never
	// touches the other.
	a := NewSubarray(8, Config{HCnt: 2, BlastRadius: 3})
	b := NewSubarray(8, Config{HCnt: 2, BlastRadius: 3})
	for i := 0; i < 100; i++ {
		a.Activate(7) // last row of a; in a flat layout rows 8,9 would suffer
	}
	if totalPressure(b) != 0 {
		t.Fatal("disturbance crossed subarray boundary")
	}
}

// TestPressureConservation (property): total pressure added by one ACT in
// the middle of the array equals WSum.
func TestPressureConservation(t *testing.T) {
	cfg := Config{HCnt: 1 << 30, BlastRadius: 3}
	f := func(seed uint8) bool {
		s := NewSubarray(64, cfg)
		r := 8 + int(seed)%48 // keep away from edges
		before := totalPressure(s)
		s.Activate(r)
		after := totalPressure(s)
		return math.Abs((after-before)-cfg.WSum()) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func totalPressure(s *Subarray) float64 {
	sum := 0.0
	for i := 0; i < s.Rows(); i++ {
		sum += s.Pressure(i)
	}
	return sum
}

func TestPanicsOnBadInput(t *testing.T) {
	s := NewSubarray(8, DefaultConfig())
	for _, fn := range []func(){
		func() { s.Activate(-1) },
		func() { s.Activate(8) },
		func() { s.Refresh(100) },
		func() { NewSubarray(0, DefaultConfig()) },
		func() { NewSubarray(8, Config{HCnt: 0, BlastRadius: 1}) },
		func() { NewSubarray(8, Config{HCnt: 1, BlastRadius: MaxBlastRadius + 1}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}

// flaggedOracle is the reference tracker: float64 pressures summed from
// Config.Weight, and a per-row flipped flag, set at the first report and
// cleared by a restore, that guards a second report while the row stays at
// or above H_cnt.
type flaggedOracle struct {
	cfg     Config
	eff     []float64
	flipped []bool
	flips   []Flip
}

func newFlaggedOracle(rows int, cfg Config) *flaggedOracle {
	return &flaggedOracle{cfg: cfg, eff: make([]float64, rows), flipped: make([]bool, rows)}
}

func (s *flaggedOracle) Activate(r int) []Flip {
	s.eff[r], s.flipped[r] = 0, false
	var out []Flip
	for d := 1; d <= s.cfg.BlastRadius; d++ {
		w := s.cfg.Weight(d)
		for _, v := range [2]int{r - d, r + d} {
			if v < 0 || v >= len(s.eff) {
				continue
			}
			s.eff[v] += w
			if s.eff[v] >= float64(s.cfg.HCnt) && !s.flipped[v] {
				f := Flip{Row: v, Pressure: s.eff[v], ByRow: r}
				s.flipped[v] = true
				s.flips = append(s.flips, f)
				out = append(out, f)
			}
		}
	}
	return out
}

func (s *flaggedOracle) Refresh(r int) {
	s.eff[r], s.flipped[r] = 0, false
}

// TestSubarrayMatchesFlaggedOracle drives Subarray and the flagged oracle
// with generated Activate/Refresh sequences over subarray sizes 1 to 600 and
// blast radii 1 to MaxBlastRadius, each at two H_cnt values: a small one,
// so rows flip, keep being hammered past H_cnt, are restored and flip
// again, and 1<<30, the value the figures pass to disable flips. A sticky
// aggressor moves within a narrow window. After every operation the two
// must agree on the flips it returned and, with ==, on the pressure of
// every row it touched.
func TestSubarrayMatchesFlaggedOracle(t *testing.T) {
	// fractional counts, per blast radius, the flips completed by an
	// aggressor beyond distance 1, whose weight is a fraction of an ACT.
	var fractional [MaxBlastRadius + 1]int
	for _, rows := range []int{1, 2, 3, 5, 8, 13, 64, 129, 513, 600} {
		for blast := 1; blast <= MaxBlastRadius; blast++ {
			t.Run(fmt.Sprintf("rows%d/blast%d", rows, blast), func(t *testing.T) {
				src := rng.NewCSPRNG(uint64(rows<<4 | blast))
				for _, hcnt := range []int{2 + rng.Intn(src, 10), 1 << 30} {
					cfg := Config{HCnt: hcnt, BlastRadius: blast}
					s, ref := NewSubarray(rows, cfg), newFlaggedOracle(rows, cfg)
					window := min(rows, 2*blast+3)
					base := rng.Intn(src, rows-window+1)
					reflips := 0
					aggr := base
					for op := 0; op < 4000; op++ {
						// The aggressor sticks for runs of ~8 ACTs, long
						// enough to lift a neighbor past H_cnt on its own.
						if rng.Intn(src, 8) == 0 {
							aggr = base + rng.Intn(src, window)
						}
						r := aggr
						if rng.Intn(src, 20) == 0 {
							r = rng.Intn(src, rows)
						}
						what := "Activate"
						if rng.Intn(src, 10) == 0 {
							what = "Refresh"
							s.Refresh(r)
							ref.Refresh(r)
						} else {
							got, want := s.Activate(r), ref.Activate(r)
							if !slices.Equal(got, want) {
								t.Fatalf("H_cnt %d op %d: Activate(%d) = %v, want %v", hcnt, op, r, got, want)
							}
							for _, f := range want {
								if slices.ContainsFunc(ref.flips[:len(ref.flips)-len(want)], func(g Flip) bool { return g.Row == f.Row }) {
									reflips++
								}
								if f.Row-f.ByRow > 1 || f.ByRow-f.Row > 1 {
									fractional[blast]++
								}
							}
						}
						for v := max(0, r-blast); v <= min(rows-1, r+blast); v++ {
							if got, want := s.Pressure(v), ref.eff[v]; got != want {
								t.Fatalf("H_cnt %d op %d (%s %d): Pressure(%d) = %g, want %g", hcnt, op, what, r, v, got, want)
							}
						}
					}
					switch {
					case hcnt == 1<<30 && len(ref.flips) > 0:
						t.Errorf("%d flips at H_cnt 1<<30", len(ref.flips))
					case hcnt < 1<<30 && rows > 1 && reflips == 0:
						t.Errorf("H_cnt %d: no row flipped again after a restore (%d flips): the sequence misses the case", hcnt, len(ref.flips))
					}
				}
			})
		}
	}
	for blast := 2; blast <= MaxBlastRadius; blast++ {
		if fractional[blast] == 0 {
			t.Errorf("blast %d: no flip was completed by a fractional weight", blast)
		}
	}
}

// TestCountSaturates: a count that would pass 2^32−1 units stays there, so
// a row past H_cnt is not reported again, and the crossing below it still
// is.
func TestCountSaturates(t *testing.T) {
	s := NewSubarray(4, Config{HCnt: 1 << 29, BlastRadius: 3})
	s.eff[1] = math.MaxUint32 - 2
	if flips := s.Activate(0); len(flips) != 0 {
		t.Fatalf("saturating count reported %v", flips)
	}
	if got, want := s.Pressure(1), math.Ldexp(math.MaxUint32, -2); got != want {
		t.Fatalf("saturated Pressure = %g, want %g", got, want)
	}
	s.eff[1] = 1<<31 - 1
	if flips := s.Activate(0); len(flips) != 1 || flips[0].Row != 1 || flips[0].Pressure != 1<<29+0.75 {
		t.Fatalf("crossing H_cnt reported %v, want row 1 at %g", flips, 1<<29+0.75)
	}
}
