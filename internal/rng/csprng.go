package rng

// CSPRNG is the paper's default per-chip random-number unit: PRINCE in
// counter (CTR) mode. Each 64-bit output block is Encrypt(nonce XOR ctr);
// the hardware version buffers blocks inside each bank's SHADOW controller
// in advance to hide generation latency, which is why throughput (>1 Gbit/s
// per instance, Section VIII) rather than latency is what matters.
type CSPRNG struct {
	cipher *Prince
	nonce  uint64
	ctr    uint64
}

var _ Source = (*CSPRNG)(nil)

// NewCSPRNG returns a PRINCE-CTR generator keyed and seeded from the given
// 64-bit seed. The seed is expanded into independent key halves and a nonce
// with a SplitMix64-style finalizer so that nearby seeds produce unrelated
// streams.
func NewCSPRNG(seed uint64) *CSPRNG {
	k0 := splitmix(&seed)
	k1 := splitmix(&seed)
	nonce := splitmix(&seed)
	return &CSPRNG{cipher: NewPrince(k0, k1), nonce: nonce}
}

// splitmix is the SplitMix64 output function, used only for seed expansion.
func splitmix(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Uint64 implements Source.
func (c *CSPRNG) Uint64() uint64 {
	v := c.cipher.Encrypt(c.nonce ^ c.ctr)
	c.ctr++
	return v
}

// Reseed rekeys the generator, modelling the periodic key/counter
// re-initialization strategy of Section VIII.
func (c *CSPRNG) Reseed(seed uint64) {
	*c = *NewCSPRNG(seed)
}
