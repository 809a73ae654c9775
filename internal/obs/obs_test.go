package obs

import (
	"strings"
	"testing"

	"shadow/internal/timing"
)

func TestNilProbeIsInert(t *testing.T) {
	var p *Probe
	if p.Enabled() {
		t.Fatal("nil probe reports Enabled")
	}
	p.Emit(Event{Kind: KindACT}) // must not panic
	p.Counter("c").Inc()
	p.Gauge("g").Set(7)
	p.Histogram("h").Observe(42)
	if got := p.Counter("c").Value(); got != 0 {
		t.Fatalf("nil counter Value = %d, want 0", got)
	}
	if got := p.Histogram("h").Mean(); got != 0 {
		t.Fatalf("nil histogram Mean = %g, want 0", got)
	}
}

func TestNilMetricsRegistry(t *testing.T) {
	// Events-only recorder: probe is live but the registry is nil, so
	// instruments must still be inert.
	rec := NewRecorder(Options{Events: true})
	p := rec.NewTrack("run")
	p.Counter("c").Inc()
	p.Histogram("h").Observe(1)
	if rec.Metrics() != nil {
		t.Fatal("events-only recorder has a metrics registry")
	}
}

func TestCounterGauge(t *testing.T) {
	rec := NewRecorder(Options{Metrics: true})
	p := rec.NewTrack("run")
	c := p.Counter("acts")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if got := p.Counter("acts"); got != c {
		t.Fatal("Counter does not return the same instrument for the same name")
	}
	g := p.Gauge("depth")
	g.Set(9)
	g.Set(3)
	if got := g.Value(); got != 3 {
		t.Fatalf("gauge = %d, want 3", got)
	}
}

func TestHistogramBuckets(t *testing.T) {
	var h Histogram
	for _, v := range []int64{0, 1, 1, 3, 4, 7, 1000} {
		h.Observe(v)
	}
	if h.Count() != 7 || h.Sum() != 1016 {
		t.Fatalf("count/sum = %d/%d, want 7/1016", h.Count(), h.Sum())
	}
	if h.Min() != 0 || h.Max() != 1000 {
		t.Fatalf("min/max = %d/%d, want 0/1000", h.Min(), h.Max())
	}
	want := []Bucket{
		{Lo: 0, Hi: 0, Count: 1},      // 0
		{Lo: 1, Hi: 1, Count: 2},      // 1, 1
		{Lo: 2, Hi: 3, Count: 1},      // 3
		{Lo: 4, Hi: 7, Count: 2},      // 4, 7
		{Lo: 512, Hi: 1023, Count: 1}, // 1000
	}
	got := h.Buckets()
	if len(got) != len(want) {
		t.Fatalf("buckets = %+v, want %+v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("bucket[%d] = %+v, want %+v", i, got[i], want[i])
		}
	}
}

// TestHistogramMerge: merging two histograms equals observing both sample
// sets into one, and a snapshot is a copy the registry no longer touches.
func TestHistogramMerge(t *testing.T) {
	var a, b, all Histogram
	for _, v := range []int64{-4, 0, 1, 9, 300} {
		a.Observe(v)
		all.Observe(v)
	}
	for _, v := range []int64{2, 9, 70000} {
		b.Observe(v)
		all.Observe(v)
	}
	var empty Histogram
	a.Merge(&empty)
	empty.Merge(&a)
	empty.Merge(&b)
	if empty != all {
		t.Fatalf("merged %+v, want %+v", empty, all)
	}

	m := newMetrics()
	m.Histogram("lat").Observe(5)
	m.Counter("n").Add(2)
	snap := m.Snapshot()
	m.Histogram("lat").Observe(6)
	m.Counter("n").Inc()
	if snap.Histograms[0].Count() != 1 || snap.Counters[0] != (Reading{Name: "n", Value: 2}) {
		t.Fatalf("snapshot moved with the registry: %+v", snap)
	}
}

func TestTrackPrefixesAndPIDs(t *testing.T) {
	rec := NewRecorder(Options{Metrics: true, Events: true})
	rec.NewTrack("run")
	p := rec.NewTrack("other")
	p.Counter("acts").Inc()
	p.Emit(Event{At: 5, Kind: KindACT, Bank: 0})
	if got := rec.Metrics().Counter("other/acts").Value(); got != 1 {
		t.Fatalf("other/acts = %d, want 1", got)
	}
	ev := rec.Events()
	if len(ev) != 1 || ev[0].PID != 1 {
		t.Fatalf("event PID = %+v, want pid 1", ev)
	}
	if got := rec.trackName(ev[0].PID); got != "other" {
		t.Fatalf("trackName = %q, want %q", got, "other")
	}
	if got := rec.trackName(2); got != "track 2" {
		t.Fatalf("unregistered trackName = %q, want %q", got, "track 2")
	}
}

func TestRecorderDropsAfterMaxEvents(t *testing.T) {
	rec := NewRecorder(Options{Events: true, MaxEvents: 2})
	p := rec.NewTrack("run")
	for i := 0; i < 5; i++ {
		p.Emit(Event{At: timing.Tick(i), Kind: KindACT})
	}
	if got := rec.EventCount(); got != 2 {
		t.Fatalf("EventCount = %d, want 2", got)
	}
	if got := rec.Dropped(); got != 3 {
		t.Fatalf("Dropped = %d, want 3", got)
	}
}

func TestMetricsDumpJSON(t *testing.T) {
	rec := NewRecorder(Options{Metrics: true})
	p := rec.NewTrack("run")
	p.Counter("acts").Add(12)
	p.Gauge("depth").Set(4)
	p.Histogram("lat").Observe(100)
	p.Histogram("lat").Observe(200)

	var js strings.Builder
	if err := rec.Metrics().WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`"run/acts": 12`,
		`"run/depth": 4`,
		`"count": 2`,
		`"mean": 150`,
	} {
		if !strings.Contains(js.String(), want) {
			t.Errorf("JSON dump missing %q:\n%s", want, js.String())
		}
	}

	// Nil registry: a valid empty document.
	var nilM *Metrics
	js.Reset()
	if err := nilM.WriteJSON(&js); err != nil || js.String() != "{}\n" {
		t.Fatalf("nil WriteJSON = %q, %v", js.String(), err)
	}
}

func TestKindStringAndCategory(t *testing.T) {
	cases := []struct {
		k   Kind
		s   string
		cat string
	}{
		{KindACT, "ACT", "cmd"},
		{KindRFM, "RFM", "cmd"},
		{KindShuffle, "shuffle", "mitigation"},
		{KindSwap, "swap", "mitigation"},
		{KindThrottle, "throttle", "mitigation"},
		{KindFlip, "flip", "fault"},
	}
	for _, c := range cases {
		if got := c.k.String(); got != c.s {
			t.Errorf("Kind(%d).String() = %q, want %q", c.k, got, c.s)
		}
		if got := c.k.Category(); got != c.cat {
			t.Errorf("Kind(%d).Category() = %q, want %q", c.k, got, c.cat)
		}
	}
	if got := Kind(250).String(); got != "Kind(250)" {
		t.Errorf("unknown kind String = %q", got)
	}
}
