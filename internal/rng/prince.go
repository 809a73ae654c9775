// Package rng provides the random-number generation substrate of SHADOW's
// controller (Section V-C and Section VIII).
//
// The default generator is a CSPRNG built from the PRINCE block cipher in
// counter mode, matching the paper's choice ("cryptographically secure PRNG
// based on the PRINCE block cipher is used as default"). PRINCE is
// implemented from the specification (Borghoff et al., ASIACRYPT 2012) and
// verified against the published test vectors. A linear-feedback shift
// register (LFSR) generator with periodic reseeding is provided as the
// low-area alternative the paper discusses.
package rng

import "math/bits"

// Prince implements the PRINCE 64-bit block cipher with a 128-bit key
// (k0 || k1). PRINCE is a low-latency cipher designed for exactly the kind
// of in-DRAM hardware unit SHADOW uses; a single instance sustains more than
// 1 Gbit/s even at DRAM core frequencies (Section VIII).
type Prince struct {
	k0, k0p uint64
	// enc keys the core for Encrypt; dec is its alpha reflection, which
	// Decrypt runs.
	enc, dec coreKey
}

// coreKey is the PRINCE-core key k1 with its image L(k1), L = M'∘SR⁻¹ (the
// linear half of a backward round): the backward rounds add the key after
// L, so the tables below see it as L(k1).
type coreKey struct {
	k1, lk1 uint64
}

// alpha is the PRINCE reflection constant: RC[i] XOR RC[11-i] = alpha.
const alpha = 0xc0ac29b7c97c50dd

// roundConst are the PRINCE round constants RC0..RC11 (digits of pi).
var roundConst = [12]uint64{
	0x0000000000000000,
	0x13198a2e03707344,
	0xa4093822299f31d0,
	0x082efa98ec4e6c89,
	0x452821e638d01377,
	0xbe5466cf34e90c6c,
	0x7ef84f78fd955cb1,
	0x85840851f1ac43aa,
	0xc882d32f25323c54,
	0x64a51195e0e3610d,
	0xd3b5a399ca0c2399,
	0xc0ac29b7c97c50dd,
}

// sbox is the PRINCE S-box; sboxInv its inverse.
var sbox = [16]uint64{0xB, 0xF, 0x3, 0x2, 0xA, 0xC, 0x9, 0x1, 0x6, 0x7, 0x8, 0x0, 0xE, 0x5, 0xD, 0x4}

var sboxInv = func() [16]uint64 {
	var inv [16]uint64
	for i, v := range sbox {
		inv[v] = uint64(i)
	}
	return inv
}()

// shiftRows maps output nibble position i (0 = most significant) to the
// input nibble it takes, exactly AES ShiftRows on the 4x4 nibble array.
var shiftRows = [16]int{0, 5, 10, 15, 4, 9, 14, 3, 8, 13, 2, 7, 12, 1, 6, 11}

var shiftRowsInv = func() [16]int {
	var inv [16]int
	for i, v := range shiftRows {
		inv[v] = i
	}
	return inv
}()

// mPrimeRows is the 64x64 GF(2) matrix of the involutive M' layer, one
// uint64 row mask per output bit, with bit index 0 denoting the most
// significant state bit (the paper's bit ordering). Built at init from the
// block structure M' = diag(M̂0, M̂1, M̂1, M̂0), where each 16x16 M̂ is a 4x4
// arrangement of the 4x4 matrices m_k (identity with diagonal element k
// zeroed): block (R,C) of M̂0 is m_{(R+C) mod 4} and of M̂1 is
// m_{(R+C+1) mod 4}.
var mPrimeRows = func() [64]uint64 {
	var rows [64]uint64
	for chunk := 0; chunk < 4; chunk++ {
		offset := 0
		if chunk == 1 || chunk == 2 {
			offset = 1 // M̂1 for the middle two chunks
		}
		for br := 0; br < 4; br++ { // block row within the 16x16 M̂
			for bc := 0; bc < 4; bc++ { // block column
				k := (br + bc + offset) % 4
				// m_k is identity with row k zeroed: output bit r of the
				// block depends on input bit r unless r == k.
				for r := 0; r < 4; r++ {
					if r == k {
						continue
					}
					outBit := chunk*16 + br*4 + r // 0 = MSB
					inBit := chunk*16 + bc*4 + r
					rows[outBit] |= 1 << (63 - inBit)
				}
			}
		}
	}
	return rows
}()

// NewPrince returns a PRINCE instance for the 128-bit key (k0, k1).
func NewPrince(k0, k1 uint64) *Prince {
	return &Prince{
		k0:  k0,
		k0p: bits.RotateLeft64(k0, -1) ^ (k0 >> 63),
		enc: newCoreKey(k1),
		dec: newCoreKey(k1 ^ alpha),
	}
}

func newCoreKey(k1 uint64) coreKey { return coreKey{k1: k1, lk1: backwardLinear(k1)} }

// mPrime applies the M' layer bit-serially: one parity per output bit.
// Only the table construction below uses it.
func mPrime(s uint64) uint64 {
	var out uint64
	for i := 0; i < 64; i++ {
		out |= uint64(bits.OnesCount64(s&mPrimeRows[i])&1) << (63 - i)
	}
	return out
}

func doShiftRows(s uint64, perm *[16]int) uint64 {
	var out uint64
	for i := 0; i < 16; i++ {
		nib := (s >> (60 - 4*perm[i])) & 0xF
		out |= nib << (60 - 4*i)
	}
	return out
}

// backwardLinear is L = M'∘SR⁻¹, the linear layer of rounds 6-10.
func backwardLinear(s uint64) uint64 { return mPrime(doShiftRows(s, &shiftRowsInv)) }

// roundTable holds one round's S-box and linear layer folded together: entry
// [i][v] is the layer's output for nibble value v at nibble i (counting from
// the least significant nibble) with every other nibble zero. The layer is
// linear after the S-box, so a round is the XOR of 16 entries.
type roundTable [16][16]uint64

func newRoundTable(box *[16]uint64, linear func(uint64) uint64) *roundTable {
	var t roundTable
	for i := range t {
		for v := range t[i] {
			t[i][v] = linear(box[v] << (4 * i))
		}
	}
	return &t
}

func (t *roundTable) apply(s uint64) uint64 {
	return t[0][s&0xF] ^ t[1][s>>4&0xF] ^ t[2][s>>8&0xF] ^ t[3][s>>12&0xF] ^
		t[4][s>>16&0xF] ^ t[5][s>>20&0xF] ^ t[6][s>>24&0xF] ^ t[7][s>>28&0xF] ^
		t[8][s>>32&0xF] ^ t[9][s>>36&0xF] ^ t[10][s>>40&0xF] ^ t[11][s>>44&0xF] ^
		t[12][s>>48&0xF] ^ t[13][s>>52&0xF] ^ t[14][s>>56&0xF] ^ t[15][s>>60]
}

var (
	// forward is S then M' then SR: rounds 1-5.
	forward = newRoundTable(&sbox, func(s uint64) uint64 { return doShiftRows(mPrime(s), &shiftRows) })
	// middle is S then M': the first half of the middle layer.
	middle = newRoundTable(&sbox, mPrime)
	// backward is S⁻¹ then L: the middle layer's S⁻¹ and rounds 6-9's S⁻¹
	// carried into the next round's linear layer.
	backward = newRoundTable(&sboxInv, backwardLinear)
)

// backwardConst holds L(RC_i) for the backward rounds 6-10.
var backwardConst = func() (c [12]uint64) {
	for i := 6; i <= 10; i++ {
		c[i] = backwardLinear(roundConst[i])
	}
	return c
}()

// core is PRINCE-core: the FX-free part keyed by k1. The specification's
// backward round is x ^= RC_i^k1 followed by S⁻¹(L(x)); since L is linear,
// it is computed as L(S⁻¹(y)) ^ L(RC_i) ^ L(k1) on the state y before the
// previous S⁻¹, which the backward table applies, and the last S⁻¹ runs on
// its own.
func core(s uint64, k *coreKey) uint64 {
	s ^= k.k1 ^ roundConst[0]
	for i := 1; i <= 5; i++ {
		s = forward.apply(s) ^ roundConst[i] ^ k.k1
	}
	s = middle.apply(s)
	for i := 6; i <= 10; i++ {
		s = backward.apply(s) ^ backwardConst[i] ^ k.lk1
	}
	var out uint64
	for i := 0; i < 64; i += 4 {
		out |= sboxInv[s>>i&0xF] << i
	}
	return out ^ k.k1 ^ roundConst[11]
}

// Encrypt enciphers one 64-bit block.
func (p *Prince) Encrypt(m uint64) uint64 {
	return core(m^p.k0, &p.enc) ^ p.k0p
}

// Decrypt deciphers one 64-bit block using PRINCE's alpha-reflection
// property: decryption under (k0, k0', k1) equals encryption under
// (k0', k0, k1 XOR alpha).
func (p *Prince) Decrypt(c uint64) uint64 {
	return core(c^p.k0p, &p.dec) ^ p.k0
}
