// Package shadow implements the paper's contribution: SHADOW (Shuffling
// Aggressor DRAM Rows), an in-DRAM Row Hammer mitigation that randomizes the
// PA-to-DA mapping of every subarray by shuffling rows on each RFM command
// (Sections IV-VI).
//
// The controller plugs into the DRAM device as its Mitigator:
//
//   - Translate reads the per-subarray remapping-row — a real DRAM row in
//     the *paired* subarray (subarray pairing, Section V-B) — to resolve
//     which device row currently holds a PA row's data.
//   - OnACT reservoir-samples one aggressor row uniformly from the RAAIMT
//     activations since the last RFM, using the PRINCE CSPRNG; no SRAM/CAM
//     tracking table exists.
//   - OnRFM performs the DA-based incremental refresh and then the
//     row-shuffle: Row_rand is copied to Row_empt, Row_aggr to the old
//     location of Row_rand, and the old location of Row_aggr becomes the new
//     empty row; the remapping-row is rewritten to match (Section IV-B).
package shadow

import "fmt"

// Table is the decoded form of one subarray's remapping-row: the incremental
// refresh pointer plus the DA location of every logical slot. Slots
// 0..RowsPerSubarray-1 are the PA rows of the subarray; slot RowsPerSubarray
// (EmptySlot) tracks Row_empt. The encoded form lives in the paired
// subarray's remapping-row payload; this type only interprets those bytes.
type Table struct {
	slots int  // logical slots including the empty slot
	width uint // bits per entry
}

// NewTable describes the remapping-row layout for a subarray with the given
// number of DA rows (PA rows + empty rows).
func NewTable(daRows int) Table {
	return Table{slots: daRows, width: bitsFor(daRows)}
}

// bitsFor returns the number of bits needed to store values in [0, n).
// The paper uses 9 bits for 512-row subarrays; with the Row_empt slot the
// value range is 513 and one more bit is required — still comfortably within
// a 1 KB remapping-row (514 entries x 10 bits = 643 bytes).
func bitsFor(n int) uint {
	b := uint(1)
	for 1<<b < n {
		b++
	}
	return b
}

// EmptySlot returns the logical slot index tracking Row_empt.
func (t Table) EmptySlot() int { return t.slots - 1 }

// Bytes returns the encoded size of the table, which must fit in one row.
func (t Table) Bytes() int {
	bits := (t.slots + 1) * int(t.width) // +1 for the incremental pointer
	return (bits + 7) / 8
}

// entry offsets: entry 0 is the incremental refresh pointer, entry 1+i is
// logical slot i.

// windowWidth is the widest entry that a 24-bit little-endian window holds
// at any bit offset: an entry starts at most 7 bits into its first byte.
// bitsFor gives 17 bits to subarrays of up to 128K DA rows.
const windowWidth = 24 - 7

// get decodes one entry. Every ACT decodes one (Translate), so the entry is
// read as one 24-bit window, whole bytes at once; the bit loop serves only
// entries wider than the window and a window that would run past the end of
// data.
func (t Table) get(data []byte, entry int) int {
	off := uint(entry) * t.width
	if i := off / 8; t.width <= windowWidth && i+3 <= uint(len(data)) {
		w := uint32(data[i]) | uint32(data[i+1])<<8 | uint32(data[i+2])<<16
		return int(w >> (off % 8) & (1<<t.width - 1))
	}
	var v uint
	for b := uint(0); b < t.width; b++ {
		bit := off + b
		if data[bit/8]&(1<<(bit%8)) != 0 {
			v |= 1 << b
		}
	}
	return int(v)
}

// set encodes the low width bits of val into one entry, leaving every other
// bit of data as it was; it takes the same window as get.
func (t Table) set(data []byte, entry, val int) {
	off := uint(entry) * t.width
	if i := off / 8; t.width <= windowWidth && i+3 <= uint(len(data)) {
		s := off % 8
		mask := uint32(1<<t.width-1) << s
		w := uint32(data[i]) | uint32(data[i+1])<<8 | uint32(data[i+2])<<16
		w = w&^mask | uint32(val)<<s&mask
		data[i], data[i+1], data[i+2] = byte(w), byte(w>>8), byte(w>>16)
		return
	}
	for b := uint(0); b < t.width; b++ {
		bit := off + b
		mask := byte(1) << (bit % 8)
		if val&(1<<b) != 0 {
			data[bit/8] |= mask
		} else {
			data[bit/8] &^= mask
		}
	}
}

// IncrPtr reads the incremental refresh pointer from an encoded table.
func (t Table) IncrPtr(data []byte) int { return t.get(data, 0) }

// SetIncrPtr writes the incremental refresh pointer.
func (t Table) SetIncrPtr(data []byte, v int) { t.set(data, 0, v) }

// Slot reads the DA row of logical slot i.
func (t Table) Slot(data []byte, i int) int {
	t.mustSlot(i)
	return t.get(data, 1+i)
}

// SetSlot writes the DA row of logical slot i.
func (t Table) SetSlot(data []byte, i, da int) {
	t.mustSlot(i)
	if da < 0 || da >= t.slots {
		panic(fmt.Sprintf("shadow: DA %d out of range [0,%d)", da, t.slots))
	}
	t.set(data, 1+i, da)
}

// InitIdentity writes the power-on mapping: slot i lives at DA i (the empty
// slot at the extra row), pointer at 0.
func (t Table) InitIdentity(data []byte) {
	t.SetIncrPtr(data, 0)
	for i := 0; i < t.slots; i++ {
		t.SetSlot(data, i, i)
	}
}

// Mapping decodes the full slot->DA mapping (for tests and inspection).
func (t Table) Mapping(data []byte) []int {
	m := make([]int, t.slots)
	for i := range m {
		m[i] = t.Slot(data, i)
	}
	return m
}

// CheckPermutation verifies the decoded mapping is a bijection onto
// [0, slots) — the invariant every shuffle must preserve.
func (t Table) CheckPermutation(data []byte) error {
	seen := make([]bool, t.slots)
	for i := 0; i < t.slots; i++ {
		da := t.Slot(data, i)
		if da < 0 || da >= t.slots {
			return fmt.Errorf("shadow: slot %d maps to invalid DA %d", i, da)
		}
		if seen[da] {
			return fmt.Errorf("shadow: DA %d mapped twice", da)
		}
		seen[da] = true
	}
	return nil
}

func (t Table) mustSlot(i int) {
	if i < 0 || i >= t.slots {
		panic(fmt.Sprintf("shadow: slot %d out of range [0,%d)", i, t.slots))
	}
}
