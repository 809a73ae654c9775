package dram

// Row is one DRAM row's payload: a remapping-row, or an ordinary row read
// out of its subarray's seed table. To keep multi-gigabyte ranks cheap to
// simulate, a row stores a 64-bit pattern seed until something needs the
// actual bytes (a bit flip, a remapping-row update, a payload read); the
// byte payload is materialized on demand from the seed and stays
// authoritative afterwards.
type Row struct {
	seed uint64
	data []byte
}

// patternByte derives byte i of the deterministic fill pattern for a seed,
// using a SplitMix64-style mix so every row and byte differ.
func patternByte(seed uint64, i int) byte {
	z := seed + 0x9e3779b97f4a7c15*uint64(i/8+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return byte(z >> (8 * (uint(i) % 8)))
}

// PatternBytes returns the full expected pattern for a seed — what a row
// initialized with SetSeed(seed) contains before any corruption.
func PatternBytes(seed uint64, n int) []byte {
	b := payload(n)
	for i := range b {
		b[i] = patternByte(seed, i)
	}
	return b
}

// payload allocates a row's byte buffer, the only allocation of row data.
func payload(n int) []byte {
	return make([]byte, n) //shadowvet:ignore allocflow -- a row's bytes, allocated once when they first materialize; rows keep their buffers thereafter
}

// SetSeed resets the row to the deterministic pattern for seed, dropping any
// materialized (possibly corrupted) data.
func (r *Row) SetSeed(seed uint64) {
	r.seed = seed
	r.data = nil
}

// Seed returns the row's pattern seed (meaningful only if the row has not
// been rewritten with explicit bytes).
func (r *Row) Seed() uint64 { return r.seed }

// Bytes materializes and returns the row's payload of length n. The returned
// slice is the row's backing store; mutations persist.
func (r *Row) Bytes(n int) []byte {
	if r.data == nil {
		r.data = PatternBytes(r.seed, n)
	}
	return r.data
}

// Materialized reports whether the payload has been materialized.
func (r *Row) Materialized() bool { return r.data != nil }

// FlipBit inverts bit `bit` (0 = LSB of byte 0) in a row of n bytes,
// materializing it first. It reports the byte index touched.
func (r *Row) FlipBit(bit, n int) int {
	b := r.Bytes(n)
	idx := (bit / 8) % n
	b[idx] ^= 1 << (uint(bit) % 8)
	return idx
}

// CopyFrom makes this row an exact copy of src (the row-copy primitive).
// When src is unmaterialized the copy stays cheap: only the seed moves.
func (r *Row) CopyFrom(src *Row, n int) {
	r.seed = src.seed
	if src.data == nil {
		r.data = nil
		return
	}
	if r.data == nil || len(r.data) != len(src.data) {
		r.data = payload(len(src.data))
	}
	copy(r.data, src.data)
}

// CorruptedBits counts the bits in the row that differ from the pattern the
// given seed would have produced — the integrity-check primitive used by the
// attack examples.
func (r *Row) CorruptedBits(seed uint64, n int) int {
	if r.data == nil {
		if r.seed == seed {
			return 0
		}
		// Different seed entirely: compare patterns.
		diff := 0
		for i := 0; i < n; i++ {
			diff += popcount8(patternByte(r.seed, i) ^ patternByte(seed, i))
		}
		return diff
	}
	diff := 0
	for i := 0; i < n; i++ {
		diff += popcount8(r.data[i] ^ patternByte(seed, i))
	}
	return diff
}

func popcount8(b byte) int {
	n := 0
	for ; b != 0; b &= b - 1 {
		n++
	}
	return n
}
