package trace

import (
	"bytes"
	"strings"
	"testing"

	"shadow/internal/dram"
)

func TestEventRoundTrip(t *testing.T) {
	g := dram.TestGeometry()
	gen := NewSynth(SpecHigh[3], g, 9) // mcf
	var buf bytes.Buffer
	if err := WriteEvents(&buf, gen, 500); err != nil {
		t.Fatal(err)
	}
	events, err := ReadEvents(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 500 {
		t.Fatalf("%d events", len(events))
	}
	// Re-generate the same stream and compare.
	gen2 := NewSynth(SpecHigh[3], g, 9)
	for i, e := range events {
		if want := gen2.Next(); e != want {
			t.Fatalf("event %d = %+v, want %+v", i, e, want)
		}
	}
}

func TestReplayLoops(t *testing.T) {
	events := []Event{
		{Gap: 1, Bank: 0, Row: 1},
		{Gap: 2, Bank: 1, Row: 2, Write: true},
		{Gap: 3, Bank: 2, Row: 3},
	}
	r, err := NewReplay("rec", events)
	if err != nil {
		t.Fatal(err)
	}
	if r.Name() != "rec" {
		t.Fatal("name")
	}
	for i := 0; i < 7; i++ {
		got := r.Next()
		if got != events[i%3] {
			t.Fatalf("event %d = %+v", i, got)
		}
	}
	if r.Loops != 2 {
		t.Fatalf("Loops = %d, want 2", r.Loops)
	}
	if _, err := NewReplay("empty", nil); err == nil {
		t.Fatal("empty replay accepted")
	}
}

func TestReadEventsErrors(t *testing.T) {
	cases := []string{
		"",           // empty
		"x,y\n1,2\n", // bad header
		"gap,bank,row,col,write\na,0,0,0,false\n",  // bad gap
		"gap,bank,row,col,write\n1,0,0,0,maybe\n",  // bad bool
		"gap,bank,row,col,write\n0,0,0,0,false\n",  // gap < 1
		"gap,bank,row,col,write\n1,-1,0,0,false\n", // negative bank
	}
	for i, c := range cases {
		if _, err := ReadEvents(strings.NewReader(c)); err == nil {
			t.Errorf("case %d accepted: %q", i, c)
		}
	}
}

func TestClampEvents(t *testing.T) {
	events := []Event{
		{Gap: 1, Bank: 0, Row: 10},
		{Gap: 1, Bank: 17, Row: 9000},
	}
	n := ClampEvents(events, 16, 8192)
	if n != 1 {
		t.Fatalf("folded = %d, want 1", n)
	}
	if events[0].Bank != 0 || events[0].Row != 10 {
		t.Fatal("in-range event modified")
	}
	if events[1].Bank != 1 || events[1].Row != 808 {
		t.Fatalf("folded event = %+v", events[1])
	}
}
