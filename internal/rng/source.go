package rng

// Source is the random-bit interface consumed by the SHADOW controller and
// the simulators. Implementations are deterministic given their seed so
// every experiment is reproducible.
type Source interface {
	// Uint64 returns the next 64 uniformly random bits.
	Uint64() uint64
}

// SplitMix is a fast non-cryptographic source (SplitMix64) for workload
// generation and other simulation plumbing where speed matters and
// unpredictability does not. The SHADOW controller itself must use the
// PRINCE-based CSPRNG: its randomness is security-relevant.
type SplitMix struct{ state uint64 }

var _ Source = (*SplitMix)(nil)

// NewSplitMix returns a SplitMix64 source.
func NewSplitMix(seed uint64) *SplitMix { return &SplitMix{state: seed} }

// Uint64 implements Source.
func (s *SplitMix) Uint64() uint64 { return splitmix(&s.state) }

// Intn returns a uniform integer in [0, n) drawn from src, using rejection
// sampling so the result is exactly uniform (the controller draws row
// indices from small ranges; modulo bias would skew the shuffle analysis).
// It panics if n <= 0.
func Intn(src Source, n int) int {
	if n <= 0 {
		panic("rng: Intn called with non-positive n")
	}
	un := uint64(n)
	// Largest multiple of n that fits in 64 bits.
	limit := (^uint64(0) / un) * un
	for {
		v := src.Uint64()
		if v < limit {
			return int(v % un)
		}
	}
}

// Float64 returns a uniform float64 in [0, 1).
func Float64(src Source) float64 {
	return float64(src.Uint64()>>11) / (1 << 53)
}

// Perm returns a uniform random permutation of [0, n) drawn from src.
func Perm(src Source, n int) []int {
	p := make([]int, n)
	for i := range p {
		j := Intn(src, i+1)
		p[i] = p[j]
		p[j] = i
	}
	return p
}
