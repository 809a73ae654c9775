package flight

import (
	"math"
	"testing"

	"shadow/internal/timing"
)

// refNote is the byte-serial FNV-1a fold of one command: every byte of the
// four 8-byte little-endian words, zero bytes included. CmdHash.Note must
// match it, or every recorded command hash would change.
func refNote(sum uint64, kind, bank, row int, at timing.Tick) uint64 {
	for _, v := range [4]uint64{uint64(kind), uint64(bank), uint64(uint32(row)), uint64(at)} {
		for i := 0; i < 8; i++ {
			sum ^= (v >> (8 * i)) & 0xff
			sum *= fnvPrime
		}
	}
	return sum
}

// TestCmdHashMatchesByteSerial feeds generated commands to Note and to the
// byte-serial reference and compares the sums after every command. The
// fields take their extremes (bank -1 for an all-bank REF, row -1 for a
// command without one, at up to 2^63-1) and values with their highest set
// bit at every position, so every count of leading zero bytes is folded.
func TestCmdHashMatchesByteSerial(t *testing.T) {
	edges := []int64{0, -1, 1, math.MaxInt64, math.MinInt64}
	for b := 0; b < 63; b++ {
		edges = append(edges, 1<<b, 1<<b|1, 1<<(b+1)-1)
	}
	h := NewCmdHash()
	want := h.Sum()
	x := uint64(0x243F6A8885A308D3)
	next := func() uint64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
	// pick returns an edge a quarter of the time, else a value of random
	// bit length.
	pick := func() int64 {
		r := next()
		if r&3 == 0 {
			return edges[int(r>>2%uint64(len(edges)))]
		}
		return int64(next() & (1<<(r>>2%64) - 1))
	}
	for n := 0; n < 20000; n++ {
		kind, bank, row, at := int(next()%6), int(pick()), int(pick()), timing.Tick(pick())
		if at < 0 {
			at = math.MaxInt64 // the simulated clock never runs backwards
		}
		h.Note(kind, bank, row, at)
		want = refNote(want, kind, bank, row, at)
		if h.Sum() != want {
			t.Fatalf("command %d (%d, %d, %d, %d): Note sums %#016x, byte-serial %#016x", n, kind, bank, row, at, h.Sum(), want)
		}
	}
}

// TestCmdHashPinned pins the sum of a fixed 4-command log (an ACT, a RD, an
// all-bank REF and a PRE at the end of time), so the fold cannot drift with
// its reference.
func TestCmdHashPinned(t *testing.T) {
	h := NewCmdHash()
	h.Note(0, 3, 1234, 13500)
	h.Note(2, 3, -1, 27000)
	h.Note(4, -1, -1, 7_800_000)
	h.Note(1, 15, -1, math.MaxInt64)
	const want = 0xfee3ff824274dc7b
	if h.Sum() != want {
		t.Fatalf("Sum = %#016x, want %#016x", h.Sum(), uint64(want))
	}
}

// BenchmarkCmdHashNote measures folding one command into the hash, with
// the field sizes of a typical ACT: a small kind and bank, a row of a few
// thousand and a tick in the billions.
func BenchmarkCmdHashNote(b *testing.B) {
	h := NewCmdHash()
	for i := 0; i < b.N; i++ {
		h.Note(i&3, i&15, i&0xffff, timing.Tick(3_000_000_000+i*750))
	}
	if h.Sum() == 0 {
		b.Fatal("zero sum")
	}
}
