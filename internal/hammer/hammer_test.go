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
// the ACT count (threat model item 2).
func TestBlastRadiusDistanceHalving(t *testing.T) {
	for d := 1; d <= 3; d++ {
		s := NewSubarray(32, Config{HCnt: 64, BlastRadius: 3})
		aggr := 16
		victim := 16 + d
		acts := 0
		for s.Pressure(victim) < 64 {
			s.Activate(aggr)
			acts++
			if acts > 64*8+1 {
				t.Fatalf("distance %d: no flip after %d ACTs", d, acts)
			}
		}
		want := 64 * (1 << (d - 1))
		if acts != want {
			t.Errorf("distance %d: flip after %d ACTs, want %d", d, acts, want)
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
	if s.FlipCount() != 3 {
		t.Fatalf("FlipCount = %d, want 3", s.FlipCount())
	}
}

func TestEdgeRowsClamped(t *testing.T) {
	s := NewSubarray(4, Config{HCnt: 5, BlastRadius: 3})
	// Activating row 0 must not panic; victims only on the high side.
	for i := 0; i < 10; i++ {
		s.Activate(0)
		s.Activate(3)
	}
	if s.FlipCount() == 0 {
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
	if b.FlipCount() != 0 || b.Pressure(0) != 0 {
		t.Fatal("disturbance crossed subarray boundary")
	}
}

func TestCountersAndReset(t *testing.T) {
	s := NewSubarray(8, Config{HCnt: 3, BlastRadius: 1})
	s.Activate(2)
	s.Activate(2)
	s.Refresh(1)
	if s.Acts() != 2 || s.Restores() != 1 {
		t.Fatalf("acts/restores = %d/%d, want 2/1", s.Acts(), s.Restores())
	}
	s.Reset()
	if s.Acts() != 0 || s.Restores() != 0 || s.FlipCount() != 0 || s.Pressure(1) != 0 {
		t.Fatal("Reset did not clear state")
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

// flaggedOracle is the reference tracker: a per-row flipped flag, set at
// the first report and cleared by a restore, guards a second report while
// the row stays at or above H_cnt.
type flaggedOracle struct {
	cfg            Config
	eff            []float64
	flipped        []bool
	flips          []Flip
	acts, restores int64
}

func newFlaggedOracle(rows int, cfg Config) *flaggedOracle {
	return &flaggedOracle{cfg: cfg, eff: make([]float64, rows), flipped: make([]bool, rows)}
}

func (s *flaggedOracle) Activate(r int) []Flip {
	s.acts++
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
	s.restores++
	s.eff[r], s.flipped[r] = 0, false
}

func (s *flaggedOracle) Reset() {
	clear(s.eff)
	clear(s.flipped)
	s.flips = nil
	s.acts, s.restores = 0, 0
}

// TestSubarrayMatchesFlaggedOracle drives Subarray and the flagged oracle
// with generated Activate/Refresh/Reset sequences over subarray sizes 1 to
// 600 and blast radii 1 to 6. H_cnt is small and a sticky aggressor moves
// within a narrow window, so rows flip, keep being hammered past H_cnt, are
// restored and flip again. After every operation the two must agree on the
// flips it reported, the flip log, the pressure of every row it touched,
// and the counters.
func TestSubarrayMatchesFlaggedOracle(t *testing.T) {
	for _, rows := range []int{1, 2, 3, 5, 8, 13, 64, 129, 513, 600} {
		for blast := 1; blast <= 6; blast++ {
			t.Run(fmt.Sprintf("rows%d/blast%d", rows, blast), func(t *testing.T) {
				src := rng.NewCSPRNG(uint64(rows<<3 | blast))
				cfg := Config{HCnt: 2 + rng.Intn(src, 10), BlastRadius: blast}
				s, ref := NewSubarray(rows, cfg), newFlaggedOracle(rows, cfg)
				window := min(rows, 2*blast+3)
				base := rng.Intn(src, rows-window+1)
				reflips := 0
				aggr := base
				for op := 0; op < 4000; op++ {
					// The aggressor sticks for runs of ~8 ACTs, long enough
					// to lift a neighbor past H_cnt on its own.
					if rng.Intn(src, 8) == 0 {
						aggr = base + rng.Intn(src, window)
					}
					r := aggr
					if rng.Intn(src, 20) == 0 {
						r = rng.Intn(src, rows)
					}
					var what string
					switch k := rng.Intn(src, 1000); {
					case k < 900:
						what = "Activate"
						got, want := s.Activate(r), ref.Activate(r)
						if !slices.Equal(got, want) {
							t.Fatalf("op %d: Activate(%d) = %v, want %v", op, r, got, want)
						}
						for _, f := range want {
							if slices.ContainsFunc(ref.flips[:len(ref.flips)-len(want)], func(g Flip) bool { return g.Row == f.Row }) {
								reflips++
							}
						}
					case k < 998:
						what = "Refresh"
						s.Refresh(r)
						ref.Refresh(r)
					default:
						what = "Reset"
						s.Reset()
						ref.Reset()
					}
					for v := max(0, r-blast); v <= min(rows-1, r+blast); v++ {
						if got, want := s.Pressure(v), ref.eff[v]; got != want {
							t.Fatalf("op %d (%s %d): Pressure(%d) = %g, want %g", op, what, r, v, got, want)
						}
					}
					if !slices.Equal(s.Flips(), ref.flips) || s.FlipCount() != len(ref.flips) ||
						s.Acts() != ref.acts || s.Restores() != ref.restores {
						t.Fatalf("op %d (%s %d): flips %d/%d, acts %d/%d, restores %d/%d (tracker/oracle)",
							op, what, r, s.FlipCount(), len(ref.flips), s.Acts(), ref.acts, s.Restores(), ref.restores)
					}
				}
				if rows > 1 && reflips == 0 {
					t.Errorf("no row flipped again after a restore (%d flips): the sequence misses the case", len(ref.flips))
				}
			})
		}
	}
}
