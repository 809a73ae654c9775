package shadow

import (
	"encoding/binary"
	"testing"
)

// swapOps encodes slot-index pairs as the little-endian uint16 stream
// FuzzRemapTable consumes.
func swapOps(slots ...int) []byte {
	ops := make([]byte, 0, 2*len(slots))
	for _, s := range slots {
		ops = binary.LittleEndian.AppendUint16(ops, uint16(s))
	}
	return ops
}

// FuzzRemapTable drives the remapping-row codec through input-driven slot
// swaps — the only mutation a row-shuffle makes — and checks the encoded
// table against a plain []int model after every step: the mapping stays a
// permutation, every slot decodes to the model's value, and the incremental
// refresh pointer packed in front of the slots is never disturbed (no entry
// bleeds into a neighbour's bits).
func FuzzRemapTable(f *testing.F) {
	// The paper's 512-row subarray plus Row_empt (10-bit entries), and the
	// power-of-two boundary on either side of a width change.
	f.Add(uint16(513), uint16(0xffff), swapOps(0, 512, 511, 1, 512, 512, 256, 0))
	f.Add(uint16(256), uint16(0xffff), swapOps(0, 255, 128, 127, 255, 255))
	f.Add(uint16(257), uint16(0), swapOps(0, 256, 256, 1, 255, 0))
	f.Fuzz(func(t *testing.T, rows, ptr uint16, ops []byte) {
		// Fold rows onto [2, 1025]; values already in range map to
		// themselves so corpus entries read as row counts.
		daRows := 2 + (int(rows)+1024-2)%1024
		tab := NewTable(daRows)
		data := make([]byte, tab.Bytes())
		tab.InitIdentity(data)
		// Any value the pointer entry can hold; all ones is the most
		// sensitive to a neighbouring write clearing its bits.
		wantPtr := int(ptr) & (1<<tab.width - 1)
		tab.SetIncrPtr(data, wantPtr)
		model := make([]int, daRows)
		for i := range model {
			model[i] = i
		}
		check := func(step int) {
			t.Helper()
			if err := tab.CheckPermutation(data); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
			for i, want := range model {
				if got := tab.Slot(data, i); got != want {
					t.Fatalf("step %d: slot %d = %d, model %d", step, i, got, want)
				}
			}
			if got := tab.IncrPtr(data); got != wantPtr {
				t.Fatalf("step %d: IncrPtr = %d, want %d", step, got, wantPtr)
			}
		}
		check(0)
		const maxSwaps = 64 // bounds each input's cost at O(64 * daRows)
		for step := 1; step <= maxSwaps && len(ops) >= 4; step++ {
			i := int(binary.LittleEndian.Uint16(ops)) % daRows
			j := int(binary.LittleEndian.Uint16(ops[2:])) % daRows
			ops = ops[4:]
			a, b := tab.Slot(data, i), tab.Slot(data, j)
			tab.SetSlot(data, i, b)
			tab.SetSlot(data, j, a)
			model[i], model[j] = model[j], model[i]
			check(step)
		}
	})
}
