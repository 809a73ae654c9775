package flight

import (
	"strings"
	"testing"

	"shadow/internal/obs"
	"shadow/internal/obs/span"
	"shadow/internal/timing"
)

func TestWatchFreezesRingOnFirstTrip(t *testing.T) {
	r := NewRing(8)
	w := NewWatch(r)
	var fired []Trip
	w.OnTrip(func(tr Trip) { fired = append(fired, tr) })

	armed := false
	w.Add(Check{Name: "a", Probe: func(timing.Tick) (string, bool) { return "first", armed }})
	w.Add(Check{Name: "b", Probe: func(timing.Tick) (string, bool) { return "second", true }})

	r.Record(obs.Event{At: 1, Kind: obs.KindACT})
	// Check order: "a" is clean, so "b" trips first.
	tr := w.Check(100)
	if tr == nil || tr.Watchdog != "b" || tr.Detail != "second" || tr.AtPS != 100 {
		t.Fatalf("trip = %+v", tr)
	}
	if !r.Frozen() {
		t.Fatal("ring not frozen on trip")
	}
	// Once tripped, later checks change nothing — even if an earlier check
	// would now also trip.
	armed = true
	if tr2 := w.Check(200); tr2 != tr {
		t.Fatalf("second Check returned a new trip: %+v", tr2)
	}
	if got := w.Tripped(); got != tr {
		t.Fatalf("Tripped = %+v, want the original", got)
	}
	if len(fired) != 1 || fired[0].Watchdog != "b" {
		t.Fatalf("OnTrip fired %d times: %+v", len(fired), fired)
	}
}

func TestWatchCleanRunNeverTrips(t *testing.T) {
	w := NewWatch(NewRing(4))
	w.Add(Check{Name: "never", Probe: func(timing.Tick) (string, bool) { return "", false }})
	for now := timing.Tick(0); now < 10; now++ {
		if tr := w.Check(now); tr != nil {
			t.Fatalf("clean run tripped: %+v", tr)
		}
	}
	if w.Ring().Frozen() {
		t.Fatal("clean run froze the ring")
	}
}

func TestConservationCheck(t *testing.T) {
	agg := span.Aggregate{Spans: 3, Resident: 100}
	agg.Stall[span.CauseService] = 100
	c := Conservation(func() span.Aggregate { return agg })
	if detail, bad := c.Probe(0); bad {
		t.Fatalf("conserved aggregate tripped: %s", detail)
	}
	agg.Stall[span.CauseService] = 90 // break the invariant
	detail, bad := c.Probe(0)
	if !bad {
		t.Fatal("violated aggregate did not trip")
	}
	if !strings.Contains(detail, "90") || !strings.Contains(detail, "100") {
		t.Fatalf("detail lacks the mismatch: %q", detail)
	}
}

func TestFlipDetectorCheck(t *testing.T) {
	r := NewRing(2)
	c := FlipDetector(r)
	if _, bad := c.Probe(0); bad {
		t.Fatal("tripped with no flips")
	}
	r.Record(obs.Event{At: 1, Kind: obs.KindFlip, Bank: 0, Row: 7})
	// Rotate the flip event out of the window; the count must still trip.
	r.Record(obs.Event{At: 2, Kind: obs.KindACT})
	r.Record(obs.Event{At: 3, Kind: obs.KindACT})
	detail, bad := c.Probe(10)
	if !bad {
		t.Fatal("flip did not trip after rotating out of the window")
	}
	if !strings.Contains(detail, "1 Row Hammer") {
		t.Fatalf("detail = %q", detail)
	}
}

func TestCmdHashOrderSensitive(t *testing.T) {
	a, b := NewCmdHash(), NewCmdHash()
	a.Note(1, 2, 3, 4)
	a.Note(5, 6, 7, 8)
	b.Note(5, 6, 7, 8)
	b.Note(1, 2, 3, 4)
	if a.Sum() == b.Sum() {
		t.Fatal("command order does not affect the hash")
	}
	c := NewCmdHash()
	c.Note(1, 2, 3, 4)
	c.Note(5, 6, 7, 8)
	if a.Sum() != c.Sum() {
		t.Fatal("identical logs hash differently")
	}
	if a.Sum() == NewCmdHash().Sum() {
		t.Fatal("non-empty log matches the empty hash")
	}
	// Negative rows (rank-level commands) must not collide with small
	// positive ones.
	d, e := NewCmdHash(), NewCmdHash()
	d.Note(0, 0, -1, 0)
	e.Note(0, 0, 1, 0)
	if d.Sum() == e.Sum() {
		t.Fatal("row -1 and row 1 collide")
	}
}
