package span

import (
	"testing"

	"shadow/internal/obs"
	"shadow/internal/timing"
)

// TestTimelineFolding drives one bank's cause timeline through a scripted
// sequence and checks a span enqueued mid-sequence sees exactly the segments
// that overlap its residency.
func TestTimelineFolding(t *testing.T) {
	tr := NewTracker(1, nil)

	tr.SetCause(0, 0, CauseService)
	tr.SetCause(0, 100, CauseBankBusy)  // [0,100) service
	sp := tr.Start(0, 0, 7, false, 130) // enqueue mid bank-busy segment
	tr.SetCause(0, 150, CauseRefresh)   // [100,150) bank-busy, span sees [130,150)
	tr.SetCause(0, 250, CauseService)   // [150,250) refresh
	sp.NoteACT(280)
	tr.Complete(sp, 300, 320) // [250,300) service

	want := map[Cause]timing.Tick{
		CauseBankBusy: 20,
		CauseRefresh:  100,
		CauseService:  50,
	}
	for c := Cause(0); c < NumCauses; c++ {
		if got := sp.Stall[c]; got != want[c] {
			t.Errorf("Stall[%s] = %d, want %d", c, got, want[c])
		}
	}
	if sp.StallTotal() != sp.Resident() {
		t.Errorf("conservation: StallTotal %d != Resident %d", sp.StallTotal(), sp.Resident())
	}
	if sp.RowHit {
		t.Error("span with an ACT stamp reported RowHit")
	}
	if sp.Blame() != CauseRefresh {
		t.Errorf("Blame = %s, want refresh", sp.Blame())
	}
}

// TestBackpressureConservation checks queue-full time extends the invariant
// to [FirstAttempt, CAS).
func TestBackpressureConservation(t *testing.T) {
	tr := NewTracker(1, nil)
	tr.SetCause(0, 0, CauseService)
	sp := tr.Start(0, 0, 3, true, 500)
	sp.NoteBackpressure(420)
	tr.Complete(sp, 600, 650)

	if sp.FirstAttempt != 420 {
		t.Fatalf("FirstAttempt = %d, want 420", sp.FirstAttempt)
	}
	if got := sp.Stall[CauseQueueFull]; got != 80 {
		t.Errorf("Stall[queue-full] = %d, want 80", got)
	}
	if sp.Resident() != 180 {
		t.Errorf("Resident = %d, want 180", sp.Resident())
	}
	if sp.StallTotal() != sp.Resident() {
		t.Errorf("conservation: StallTotal %d != Resident %d", sp.StallTotal(), sp.Resident())
	}

	// A no-op backpressure note (firstAttempt >= Enqueue) must not corrupt
	// the span.
	sp2 := tr.Start(0, 0, 3, false, 700)
	sp2.NoteBackpressure(700)
	if sp2.FirstAttempt != 700 || sp2.Stall[CauseQueueFull] != 0 {
		t.Error("NoteBackpressure with firstAttempt == Enqueue mutated the span")
	}
}

// TestBusyWindows checks NoteBusy/BusyCause resolve bank-readiness blame to
// the open window's cause, falling back to the default once it closes.
func TestBusyWindows(t *testing.T) {
	tr := NewTracker(2, nil)
	tr.NoteBusy(1, 100, 400, CauseShuffle)
	if got := tr.BusyCause(1, 250, CauseBankBusy); got != CauseShuffle {
		t.Errorf("BusyCause inside window = %s, want shuffle", got)
	}
	if got := tr.BusyCause(1, 400, CauseBankBusy); got != CauseBankBusy {
		t.Errorf("BusyCause at window close = %s, want bank-busy", got)
	}
	if got := tr.BusyCause(0, 250, CauseBankBusy); got != CauseBankBusy {
		t.Errorf("BusyCause on unnoted bank = %s, want bank-busy", got)
	}
}

// TestAggregateMergeAndConserved exercises the aggregate arithmetic: a read
// and a write on two banks roll up into one conserved aggregate, read
// through the Collector.
func TestAggregateMergeAndConserved(t *testing.T) {
	col := NewCollector()
	tr := col.Tracker(2, nil)
	if col.Tracker(2, nil) != tr {
		t.Fatal("Collector.Tracker built a second tracker")
	}
	for bank := 0; bank < 2; bank++ {
		tr.SetCause(bank, 0, CauseService)
		sp := tr.Start(bank, bank, 1, bank == 1, 10)
		tr.SetCause(bank, 40, CauseBus)
		tr.Complete(sp, 60, 90)
	}
	if got := len(col.Spans()); got != 2 {
		t.Fatalf("collector retained %d spans, want 2", got)
	}
	agg := col.Aggregate()
	if agg.Spans != 2 || agg.Reads != 1 || agg.Writes != 1 {
		t.Fatalf("agg counts = %d spans / %d reads / %d writes, want 2/1/1", agg.Spans, agg.Reads, agg.Writes)
	}
	if agg.Resident != 100 {
		t.Errorf("Resident = %d, want 100", agg.Resident)
	}
	if agg.Stall[CauseService] != 60 || agg.Stall[CauseBus] != 40 {
		t.Errorf("Stall split = service %d / bus %d, want 60/40", agg.Stall[CauseService], agg.Stall[CauseBus])
	}
	if !agg.Conserved() {
		t.Error("aggregate not conserved")
	}
}

// TestRetentionCap checks spans past maxSpans are dropped individually but
// stay accounted in the aggregate.
func TestRetentionCap(t *testing.T) {
	tr := NewTracker(1, nil)
	tr.SetCause(0, 0, CauseService)
	const n = maxSpans + 3
	for i := 0; i < n; i++ {
		sp := tr.Start(0, 0, i, false, timing.Tick(i*100))
		tr.Complete(sp, timing.Tick(i*100+50), timing.Tick(i*100+60))
	}
	if got := len(tr.Spans()); got != maxSpans {
		t.Errorf("retained %d spans, want %d", got, maxSpans)
	}
	agg := tr.Aggregate()
	if agg.Spans != n || agg.Dropped != 3 {
		t.Errorf("agg = %d spans / %d dropped, want %d/3", agg.Spans, agg.Dropped, n)
	}
	if !agg.Conserved() {
		t.Error("aggregate not conserved across dropped spans")
	}
}

// TestLaneAssignment checks the Perfetto lane allocator: overlapping spans
// take distinct lanes, a freed lane is reused first-fit, and saturation
// falls back to the earliest-free lane.
func TestLaneAssignment(t *testing.T) {
	tr := NewTracker(1, nil)
	mk := func(enq, done timing.Tick) *Span {
		return &Span{Core: 0, Enqueue: enq, Done: done}
	}
	if got := tr.lane(mk(0, 100)); got != 0 {
		t.Errorf("first span lane = %d, want 0", got)
	}
	if got := tr.lane(mk(50, 150)); got != 1 {
		t.Errorf("overlapping span lane = %d, want 1", got)
	}
	if got := tr.lane(mk(100, 200)); got != 0 {
		t.Errorf("span after lane 0 freed = %d, want 0 (first-fit)", got)
	}
	// Saturate all lanes with overlapping spans, then confirm the fallback
	// picks the earliest-free one.
	tr2 := NewTracker(1, nil)
	for i := 0; i < obs.ReqLanes; i++ {
		tr2.lane(mk(0, timing.Tick(1000+i)))
	}
	if got := tr2.lane(mk(10, 5000)); got != 0 {
		t.Errorf("saturated fallback lane = %d, want 0 (earliest free)", got)
	}
}

// TestNilSafety calls every method on nil receivers; the unprobed hot path
// relies on all of them being inert.
func TestNilSafety(t *testing.T) {
	var tr *Tracker
	var col *Collector
	var sp *Span
	tr.SetCause(0, 0, CauseRefresh)
	tr.SetAllCauses(0, CauseRefresh)
	tr.NoteBusy(0, 0, 10, CauseRFM)
	tr.NoteAllBusy(0, 10, CauseRefresh)
	if got := tr.BusyCause(0, 5, CauseBankBusy); got != CauseBankBusy {
		t.Errorf("nil BusyCause = %s, want default", got)
	}
	if tr.Start(0, 0, 0, false, 0) != nil {
		t.Error("nil tracker returned a span")
	}
	tr.Complete(nil, 0, 0)
	if agg := tr.Aggregate(); agg.Spans != 0 {
		t.Error("nil tracker aggregate not empty")
	}
	if tr.Spans() != nil {
		t.Error("nil tracker returned spans")
	}
	sp.NoteBackpressure(0)
	sp.NoteACT(0)
	if col.Tracker(4, nil) != nil {
		t.Error("nil collector returned a tracker")
	}
	if col.Spans() != nil {
		t.Error("nil collector returned spans")
	}
	if agg := col.Aggregate(); agg.Spans != 0 {
		t.Error("nil collector aggregate not empty")
	}
}

// TestBlameTieBreak checks ties break toward the lower-numbered cause and an
// all-zero span blames service.
func TestBlameTieBreak(t *testing.T) {
	var sp Span
	if sp.Blame() != CauseService {
		t.Errorf("zero span Blame = %s, want service", sp.Blame())
	}
	sp.Stall[CauseRefresh] = 50
	sp.Stall[CauseShuffle] = 50
	if sp.Blame() != CauseRefresh {
		t.Errorf("tie Blame = %s, want refresh (lower-numbered)", sp.Blame())
	}
}

// TestNoteACTFirstWins checks a precharge-conflict re-activation cannot move
// the ACT stamp.
func TestNoteACTFirstWins(t *testing.T) {
	sp := &Span{}
	sp.NoteACT(100)
	sp.NoteACT(200)
	if sp.ACT != 100 {
		t.Errorf("ACT = %d, want 100 (first wins)", sp.ACT)
	}
}

// TestCauseStrings pins the cause labels the blame reports and Perfetto
// labels key on.
func TestCauseStrings(t *testing.T) {
	want := []string{
		"service", "bank-busy", "act-spacing", "bus", "refresh", "rfm",
		"shuffle", "swap", "throttle", "queue-full",
	}
	for c := Cause(0); c < NumCauses; c++ {
		if got := c.String(); got != want[c] {
			t.Errorf("Cause(%d).String() = %q, want %q", c, got, want[c])
		}
	}
	if got := NumCauses.String(); got != "Cause(10)" {
		t.Errorf("out-of-range String = %q", got)
	}
}

// TestProbeEmission checks a probed tracker emits one KindSpan duration
// event per completed request, on a per-core lane TID, labeled by blame.
func TestProbeEmission(t *testing.T) {
	rec := obs.NewRecorder(obs.Options{Events: true})
	probe := rec.NewTrack("spans")
	tr := NewTracker(1, probe)
	tr.SetCause(0, 0, CauseService)
	sp := tr.Start(2, 0, 9, false, 100)
	tr.SetCause(0, 140, CauseRefresh)
	tr.Complete(sp, 200, 240)

	evs := rec.Events()
	if len(evs) != 1 {
		t.Fatalf("got %d events, want 1", len(evs))
	}
	e := evs[0]
	if e.Kind != obs.KindSpan {
		t.Errorf("Kind = %v, want KindSpan", e.Kind)
	}
	if e.At != 100 || e.Dur != 140 {
		t.Errorf("At/Dur = %d/%d, want 100/140", e.At, e.Dur)
	}
	if e.TID != obs.ReqTID(2, 0) {
		t.Errorf("TID = %d, want ReqTID(2,0) = %d", e.TID, obs.ReqTID(2, 0))
	}
	if e.Label != "req:refresh" {
		t.Errorf("Label = %q, want req:refresh", e.Label)
	}
	if e.Aux != int64(sp.StallTotal()) {
		t.Errorf("Aux = %d, want StallTotal %d", e.Aux, sp.StallTotal())
	}
}
