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

func TestStallSpikeCheck(t *testing.T) {
	r := NewRing(128)
	// 20 fast spans and one slow one, all completing near now=1000: with 21
	// samples the p99 rank (ceil(0.99*21) = 21) lands on the outlier.
	for i := 0; i < 20; i++ {
		r.Record(obs.Event{At: timing.Tick(900 + i), Dur: 10, Kind: obs.KindSpan, Aux: 50})
	}
	r.Record(obs.Event{At: 995, Dur: 5, Kind: obs.KindSpan, Aux: 5000})

	c := StallSpike(r, 500, 1000)
	detail, bad := c.Probe(1000)
	if !bad {
		t.Fatal("p99=5000 over limit 1000 did not trip")
	}
	if !strings.Contains(detail, "5000") {
		t.Fatalf("detail = %q", detail)
	}

	// A generous limit stays quiet.
	if detail, bad := StallSpike(r, 500, 10000).Probe(1000); bad {
		t.Fatalf("under-limit p99 tripped: %s", detail)
	}
	// Spans completed before the window don't count: from now=10000 the
	// window [9500,10000] is empty.
	if _, bad := c.Probe(10000); bad {
		t.Fatal("stale spans tripped outside the window")
	}
}

func TestStallSpikeIgnoresNonSpanEvents(t *testing.T) {
	r := NewRing(16)
	r.Record(obs.Event{At: 10, Kind: obs.KindACT, Aux: 1 << 40})
	if _, bad := StallSpike(r, 100, 1).Probe(20); bad {
		t.Fatal("non-span event fed the stall spike")
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
