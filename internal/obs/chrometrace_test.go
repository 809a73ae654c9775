package obs

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"shadow/internal/timing"
)

var update = flag.Bool("update", false, "rewrite golden files")

func sampleRecorder() *Recorder {
	rec := NewRecorder(Options{Events: true})
	p := rec.NewTrack("shadow/mix-high")
	p2 := rec.NewTrack("parfm/mix-high")
	us := timing.Microsecond
	p.Emit(Event{At: 1 * us, Dur: timing.NS(35), Kind: KindACT, Bank: 0, Row: 42})
	p.Emit(Event{At: 2 * us, Dur: timing.NS(15), Kind: KindRD, Bank: 0, Row: 42})
	p.Emit(Event{At: 3 * us, Dur: timing.NS(410), Kind: KindRFM, Bank: 2, Row: -1})
	p.Emit(Event{At: 3 * us, Kind: KindShuffle, Bank: 2, Row: 77, Aux: 1})
	p.Emit(Event{At: 4 * us, Dur: timing.NS(195), Kind: KindREF, Bank: -1, Row: -1})
	p.Emit(Event{At: 5 * us, Kind: KindThrottle, Bank: 1, Row: 9, Dur: timing.NS(1000)})
	p2.Emit(Event{At: 6 * us, Dur: timing.NS(35), Kind: KindACT, Bank: 3, Row: 8})
	p2.Emit(Event{At: 7 * us, Kind: KindFlip, Bank: 3, Row: 10, Aux: 0})
	return rec
}

func TestWriteChromeTraceGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := sampleRecorder().WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "chrometrace.golden.json")
	if *update {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("trace differs from golden (re-run with -update to refresh):\ngot:\n%s\nwant:\n%s", buf.Bytes(), want)
	}
}

// TestChromeTraceWellFormed validates the Perfetto-required fields: every
// event has a valid ph, a non-negative ts, and pid/tid consistent with the
// track and bank that produced it.
func TestChromeTraceWellFormed(t *testing.T) {
	var buf bytes.Buffer
	rec := sampleRecorder()
	if err := rec.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Ts   float64        `json:"ts"`
			Dur  float64        `json:"dur"`
			PID  *int           `json:"pid"`
			TID  *int           `json:"tid"`
			S    string         `json:"s"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	meta, slices, instants := 0, 0, 0
	names := map[string]bool{}
	for _, e := range doc.TraceEvents {
		if e.PID == nil || e.TID == nil {
			t.Fatalf("event %q missing pid/tid", e.Name)
		}
		switch e.Ph {
		case "M":
			meta++
			if e.Args["name"] == "" {
				t.Fatalf("metadata event without a name arg: %+v", e)
			}
		case "X":
			slices++
			if e.Dur <= 0 {
				t.Fatalf("complete event %q with non-positive dur", e.Name)
			}
		case "i":
			instants++
			if e.S != "t" {
				t.Fatalf("instant %q has scope %q, want thread scope", e.Name, e.S)
			}
		default:
			t.Fatalf("unexpected ph %q", e.Ph)
		}
		if e.Ts < 0 {
			t.Fatalf("event %q has negative ts", e.Name)
		}
		names[e.Name] = true
	}
	if meta == 0 || slices == 0 || instants == 0 {
		t.Fatalf("meta/slices/instants = %d/%d/%d, want all nonzero", meta, slices, instants)
	}
	for _, want := range []string{"ACT", "RFM", "shuffle", "process_name", "thread_name"} {
		if !names[want] {
			t.Errorf("trace missing %q events", want)
		}
	}
	// ACT at tick 1us on the base track must be ts=1.0us, pid 0, tid 1.
	found := false
	for _, e := range doc.TraceEvents {
		if e.Name == "ACT" && *e.PID == 0 {
			found = true
			if e.Ts != 1.0 || *e.TID != 1 {
				t.Fatalf("base ACT ts/tid = %g/%d, want 1.0/1", e.Ts, *e.TID)
			}
			if row, ok := e.Args["row"].(float64); !ok || row != 42 {
				t.Fatalf("base ACT row arg = %v, want 42", e.Args["row"])
			}
			break
		}
	}
	if !found {
		t.Fatal("no ACT event on the base track")
	}
}
