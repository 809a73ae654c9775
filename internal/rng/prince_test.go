package rng

import (
	"testing"
	"testing/quick"
)

// TestPrinceVectors checks the five published test vectors from Appendix A
// of the PRINCE paper (Borghoff et al., ASIACRYPT 2012).
func TestPrinceVectors(t *testing.T) {
	vectors := []struct {
		k0, k1, pt, ct uint64
	}{
		{0x0000000000000000, 0x0000000000000000, 0x0000000000000000, 0x818665aa0d02dfda},
		{0x0000000000000000, 0x0000000000000000, 0xffffffffffffffff, 0x604ae6ca03c20ada},
		{0xffffffffffffffff, 0x0000000000000000, 0x0000000000000000, 0x9fb51935fc3df524},
		{0x0000000000000000, 0xffffffffffffffff, 0x0000000000000000, 0x78a54cbe737bb7ef},
		{0x0000000000000000, 0xfedcba9876543210, 0x0123456789abcdef, 0xae25ad3ca8fa9ccf},
	}
	for i, v := range vectors {
		p := NewPrince(v.k0, v.k1)
		if got := p.Encrypt(v.pt); got != v.ct {
			t.Errorf("vector %d: Encrypt(%016x) = %016x, want %016x", i, v.pt, got, v.ct)
		}
		if got := p.Decrypt(v.ct); got != v.pt {
			t.Errorf("vector %d: Decrypt(%016x) = %016x, want %016x", i, v.ct, got, v.pt)
		}
	}
}

func TestPrinceRoundTrip(t *testing.T) {
	f := func(k0, k1, m uint64) bool {
		p := NewPrince(k0, k1)
		return p.Decrypt(p.Encrypt(m)) == m
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// The bit-serial specification form of PRINCE: every layer applied on its
// own, round by round. It is the oracle the table-driven core is checked
// against.

func subBytes(s uint64, box *[16]uint64) uint64 {
	var out uint64
	for i := 0; i < 16; i++ {
		out |= box[(s>>(60-4*i))&0xF] << (60 - 4*i)
	}
	return out
}

func specCore(s, k1 uint64) uint64 {
	s ^= k1 ^ roundConst[0]
	for i := 1; i <= 5; i++ {
		s = subBytes(s, &sbox)
		s = doShiftRows(mPrime(s), &shiftRows)
		s ^= roundConst[i] ^ k1
	}
	s = subBytes(s, &sbox)
	s = mPrime(s)
	s = subBytes(s, &sboxInv)
	for i := 6; i <= 10; i++ {
		s ^= roundConst[i] ^ k1
		s = mPrime(doShiftRows(s, &shiftRowsInv))
		s = subBytes(s, &sboxInv)
	}
	return s ^ k1 ^ roundConst[11]
}

func specK0p(k0 uint64) uint64 { return k0>>1 | k0<<63 ^ k0>>63 }

func specEncrypt(k0, k1, m uint64) uint64 {
	return specCore(m^k0, k1) ^ specK0p(k0)
}

// specDecrypt is the alpha reflection: encryption under (k0', k0, k1^alpha).
func specDecrypt(k0, k1, c uint64) uint64 {
	return specCore(c^specK0p(k0), k1^alpha) ^ k0
}

func TestPrinceMatchesSpec(t *testing.T) {
	f := func(k0, k1, m uint64) bool {
		p := NewPrince(k0, k1)
		return p.Encrypt(m) == specEncrypt(k0, k1, m) && p.Decrypt(m) == specDecrypt(k0, k1, m)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20000}); err != nil {
		t.Error(err)
	}
}

// TestPrinceAlphaReflection verifies the defining FX property on the spec
// form: D(k0,k0',k1) inverts E(k0,k0',k1).
func TestPrinceAlphaReflection(t *testing.T) {
	f := func(k0, k1, m uint64) bool {
		return specDecrypt(k0, k1, specEncrypt(k0, k1, m)) == m
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMPrimeInvolution(t *testing.T) {
	f := func(s uint64) bool { return mPrime(mPrime(s)) == s }
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSboxBijective(t *testing.T) {
	var seen [16]bool
	for _, v := range sbox {
		if seen[v] {
			t.Fatalf("S-box value %x repeated", v)
		}
		seen[v] = true
	}
	for i := uint64(0); i < 16; i++ {
		if sboxInv[sbox[i]] != i {
			t.Fatalf("sboxInv[sbox[%x]] = %x", i, sboxInv[sbox[i]])
		}
	}
}

func TestShiftRowsPermutation(t *testing.T) {
	var seen [16]bool
	for _, v := range shiftRows {
		if seen[v] {
			t.Fatalf("shiftRows input %d used twice", v)
		}
		seen[v] = true
	}
	f := func(s uint64) bool {
		return doShiftRows(doShiftRows(s, &shiftRows), &shiftRowsInv) == s
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestPrinceDiffusion is a light avalanche check: flipping one plaintext bit
// should flip roughly half the ciphertext bits on average.
func TestPrinceDiffusion(t *testing.T) {
	p := NewPrince(0x0011223344556677, 0x8899aabbccddeeff)
	base := p.Encrypt(0)
	total := 0
	for b := 0; b < 64; b++ {
		diff := base ^ p.Encrypt(1<<b)
		n := 0
		for d := diff; d != 0; d &= d - 1 {
			n++
		}
		if n < 10 {
			t.Errorf("bit %d: only %d output bits flipped", b, n)
		}
		total += n
	}
	avg := float64(total) / 64
	if avg < 28 || avg > 36 {
		t.Errorf("average avalanche = %.1f bits, want ~32", avg)
	}
}

func BenchmarkPrinceEncrypt(b *testing.B) {
	p := NewPrince(0x0011223344556677, 0x8899aabbccddeeff)
	var s uint64
	for i := 0; i < b.N; i++ {
		s = p.Encrypt(s)
	}
	sink = s
}

var sink uint64
