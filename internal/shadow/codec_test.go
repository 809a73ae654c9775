package shadow

import (
	"bytes"
	"testing"
)

// refGet is the bit-serial entry decoder: the reference the windowed
// Table.get must agree with.
func refGet(t Table, data []byte, entry int) int {
	off := uint(entry) * t.width
	var v uint
	for b := uint(0); b < t.width; b++ {
		bit := off + b
		if data[bit/8]&(1<<(bit%8)) != 0 {
			v |= 1 << b
		}
	}
	return int(v)
}

// refSet is the bit-serial entry encoder: the reference for Table.set.
func refSet(t Table, data []byte, entry, val int) {
	off := uint(entry) * t.width
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

// TestTableCodecMatchesBitSerial checks the remapping-row codec against the
// bit-serial reference at every entry width from 1 to 17 bits. Each width
// takes the largest subarray of that width, so its entries end as late as
// the width allows, and four buffers: exactly Bytes() long (the last
// entries' window runs past the end), one and two bytes longer (the window
// boundary), and a 1 KB row payload, as a remapping-row holds, when the
// table fits one. Buffers start as the same noise, so a write that spills
// into a neighbour shows. Every entry up to the last is written in
// ascending order, then rewritten in descending order with other values;
// after each write the entry reads back exactly, the bytes around it match
// the reference's buffer, and at the end of each pass every entry reads as
// the reference reads it and the whole buffers match.
func TestTableCodecMatchesBitSerial(t *testing.T) {
	for width := uint(1); width <= windowWidth; width++ {
		daRows := 1<<(width-1) + 1
		if width == 1 {
			daRows = 2
		}
		tab := NewTable(daRows)
		if tab.width != width {
			t.Fatalf("NewTable(%d): %d-bit entries, want %d", daRows, tab.width, width)
		}
		if need := (daRows + 1) * int(width); tab.Bytes() != (need+7)/8 {
			t.Fatalf("width %d: Bytes() = %d, want %d", width, tab.Bytes(), (need+7)/8)
		}
		lens := []int{tab.Bytes(), tab.Bytes() + 1, tab.Bytes() + 2}
		if tab.Bytes() <= 1024 {
			lens = append(lens, 1024)
		}
		for _, n := range lens {
			checkCodec(t, tab, n)
		}
	}
}

// checkCodec runs the write and read passes of TestTableCodecMatchesBitSerial
// on one buffer length.
func checkCodec(t *testing.T, tab Table, n int) {
	t.Helper()
	got, want := make([]byte, n), make([]byte, n)
	noise := uint64(0x9E3779B97F4A7C15) ^ uint64(n)
	for i := range got {
		noise ^= noise << 13
		noise ^= noise >> 7
		noise ^= noise << 17
		got[i] = byte(noise)
	}
	copy(want, got)
	mask := 1<<tab.width - 1
	entries := tab.slots + 1 // the incremental pointer, then every slot
	write := func(entry, val int) {
		tab.set(got, entry, val)
		refSet(tab, want, entry, val)
		if v := tab.get(got, entry); v != val&mask {
			t.Fatalf("width %d, %dB: entry %d reads %d after writing %d", tab.width, n, entry, v, val&mask)
		}
		// The bytes an entry's write may touch, with one on either side.
		off := entry * int(tab.width) / 8
		lo, hi := max(off-1, 0), min(off+4, n)
		if !bytes.Equal(got[lo:hi], want[lo:hi]) {
			t.Fatalf("width %d, %dB: writing entry %d left bytes [%d,%d) = %x, the reference %x",
				tab.width, n, entry, lo, hi, got[lo:hi], want[lo:hi])
		}
	}
	readAll := func(pass string) {
		for e := 0; e < entries; e++ {
			if g, w := tab.get(got, e), refGet(tab, want, e); g != w {
				t.Fatalf("width %d, %dB, %s: entry %d reads %d, the reference %d", tab.width, n, pass, e, g, w)
			}
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("width %d, %dB, %s: buffers differ from the reference", tab.width, n, pass)
		}
	}
	readAll("before writing")
	for e := 0; e < entries; e++ {
		write(e, e*0x2545F491+int(tab.width))
	}
	readAll("ascending pass")
	for e := entries - 1; e >= 0; e-- {
		val := 0
		if e%2 == 0 {
			val = -1 // all ones, after the bits either side were written
		}
		write(e, val)
	}
	readAll("descending pass")
}
