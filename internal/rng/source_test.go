package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestIntnRange(t *testing.T) {
	src := NewCSPRNG(42)
	f := func(n uint16) bool {
		m := int(n%1000) + 1
		v := Intn(src, m)
		return v >= 0 && v < m
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestIntnPanicsOnBadN(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(src, 0) did not panic")
		}
	}()
	Intn(NewCSPRNG(1), 0)
}

// TestIntnUniform does a chi-square-style check: 513 bins (the SHADOW
// subarray row count) over many draws must all be populated evenly.
func TestIntnUniform(t *testing.T) {
	src := NewCSPRNG(7)
	const bins, draws = 513, 513 * 400
	counts := make([]int, bins)
	for i := 0; i < draws; i++ {
		counts[Intn(src, bins)]++
	}
	expect := float64(draws) / bins
	chi2 := 0.0
	for _, c := range counts {
		d := float64(c) - expect
		chi2 += d * d / expect
	}
	// dof = 512; mean 512, sd = sqrt(2*512) ~= 32. Allow 6 sigma.
	if chi2 > 512+6*32 {
		t.Errorf("chi-square = %.1f, too high for uniform (dof 512)", chi2)
	}
	for i, c := range counts {
		if c == 0 {
			t.Fatalf("bin %d never drawn", i)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	src := NewLFSR(99)
	for i := 0; i < 10000; i++ {
		v := Float64(src)
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of range: %g", v)
		}
	}
}

func TestPermIsPermutation(t *testing.T) {
	src := NewCSPRNG(3)
	for _, n := range []int{0, 1, 2, 16, 513} {
		p := Perm(src, n)
		if len(p) != n {
			t.Fatalf("Perm(%d) length %d", n, len(p))
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("Perm(%d) invalid: %v", n, p)
			}
			seen[v] = true
		}
	}
}

func TestCSPRNGDeterministic(t *testing.T) {
	a, b := NewCSPRNG(1234), NewCSPRNG(1234)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed produced different streams")
		}
	}
	c := NewCSPRNG(1235)
	same := 0
	for i := 0; i < 100; i++ {
		if NewCSPRNG(1234).Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("adjacent seeds collide %d/100 times", same)
	}
}

// TestCSPRNGStreamPinned pins the first outputs of two seeds. Every PARFM
// and RRS draw, every SHADOW shuffle and every generated workload comes from
// this stream, so a change to the cipher or the seed expansion shows here
// first.
func TestCSPRNGStreamPinned(t *testing.T) {
	pins := []struct {
		seed uint64
		want [16]uint64
	}{
		{1, [16]uint64{
			0xa64b515e9f6e6fcd, 0xea84ca1269db5b93, 0xccae67205c03ee9b, 0x2f219faceaab8c18,
			0x4bfd7892af0ba0ae, 0x6a4b3ba06d2f4cbd, 0x2d67ec2a65e7b73b, 0xd333900392599f78,
			0xa934072dd748a99b, 0x40feb498c5439e8b, 0x7f8f404057529b5e, 0x37c8f944064a85d6,
			0x6dc8d41898da5e24, 0x0b91c609aeb87a43, 0x04fe2d95611130af, 0xe1076d81bc51bb60,
		}},
		{0xdeadbeef, [16]uint64{
			0xff525e492345f997, 0xab0b52c51cdf08a8, 0xf42833a9ee145c61, 0xe873bb8367ae7ee2,
			0x5bfbefef5b615dd7, 0x38779f3e3b544dcb, 0x19709b0a09c68286, 0x26166fa98416b72a,
			0x40e63174e8bd5d25, 0x06aea3078ee6ac44, 0x30d485edc3715847, 0xebc8b21c6611a072,
			0x66cb606f7beb91b4, 0x3e8009682d7492c5, 0xcd68300f48959344, 0x1ef2a9f3c25e6ebe,
		}},
	}
	for _, p := range pins {
		src := NewCSPRNG(p.seed)
		for i, want := range p.want {
			if got := src.Uint64(); got != want {
				t.Errorf("seed %#x output %d = %#016x, want %#016x", p.seed, i, got, want)
			}
		}
	}
}

func TestCSPRNGReseedChangesStream(t *testing.T) {
	a := NewCSPRNG(1)
	first := a.Uint64()
	a.Reseed(2)
	b := NewCSPRNG(2)
	if a.Uint64() != b.Uint64() {
		t.Fatal("Reseed(2) stream differs from NewCSPRNG(2)")
	}
	_ = first
}

// TestCSPRNGBitBalance: each of the 64 output bit positions should be set
// about half the time.
func TestCSPRNGBitBalance(t *testing.T) {
	src := NewCSPRNG(2024)
	const draws = 20000
	var ones [64]int
	for i := 0; i < draws; i++ {
		v := src.Uint64()
		for b := 0; b < 64; b++ {
			if v&(1<<b) != 0 {
				ones[b]++
			}
		}
	}
	for b, c := range ones {
		frac := float64(c) / draws
		if math.Abs(frac-0.5) > 0.02 {
			t.Errorf("bit %d set fraction %.3f, want ~0.5", b, frac)
		}
	}
}

func TestLFSRNonZeroAndDeterministic(t *testing.T) {
	l := NewLFSR(0) // zero seed must be remapped
	if l.state == 0 {
		t.Fatal("zero state accepted")
	}
	a, b := NewLFSR(77), NewLFSR(77)
	for i := 0; i < 50; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("LFSR not deterministic")
		}
	}
}

// TestLFSRPeriodLongEnough: the register must not revisit its initial state
// within a large number of steps (maximal-length polynomial sanity check).
func TestLFSRPeriodLongEnough(t *testing.T) {
	l := NewLFSR(0xDEADBEEF)
	start := l.state
	for i := 0; i < 1_000_000; i++ {
		l.step()
		if l.state == start {
			t.Fatalf("LFSR state repeated after %d steps", i+1)
		}
	}
}

func TestReseededLFSR(t *testing.T) {
	plain := NewLFSR(5)
	reseeded := NewReseededLFSR(5, NewCSPRNG(9), 4)
	// First 4 outputs identical, then the reseeded one diverges.
	for i := 0; i < 4; i++ {
		if plain.Uint64() != reseeded.Uint64() {
			t.Fatalf("output %d diverged before reseed", i)
		}
	}
	if plain.Uint64() == reseeded.Uint64() {
		t.Fatal("reseed did not change the stream")
	}
}

func TestLFSRBitBalance(t *testing.T) {
	src := NewLFSR(31337)
	const draws = 20000
	total := 0
	for i := 0; i < draws; i++ {
		v := src.Uint64()
		for d := v; d != 0; d &= d - 1 {
			total++
		}
	}
	frac := float64(total) / (draws * 64)
	if math.Abs(frac-0.5) > 0.01 {
		t.Errorf("LFSR ones fraction %.4f, want ~0.5", frac)
	}
}

func BenchmarkCSPRNGUint64(b *testing.B) {
	src := NewCSPRNG(1)
	var s uint64
	for i := 0; i < b.N; i++ {
		s ^= src.Uint64()
	}
	sink = s
}

func BenchmarkLFSRUint64(b *testing.B) {
	src := NewLFSR(1)
	var s uint64
	for i := 0; i < b.N; i++ {
		s ^= src.Uint64()
	}
	sink = s
}
