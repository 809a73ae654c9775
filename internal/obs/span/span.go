// Package span is shadowtap: request-lifecycle span tracing with exact
// stall-cause attribution. A Tracker follows every memory request from core
// issue to data return, recording the enqueue/ACT/CAS/complete timestamps
// and attributing each tick the request spent waiting to exactly one cause
// (bank busy, ACT spacing, refresh, RFM, SHADOW shuffle blocking, RRS swap
// blocking, BlockHammer throttling, queue-full backpressure, ...).
//
// Attribution is conservation-exact by construction. Each bank carries a
// cause timeline — a current cause, the instant it started, and a cumulative
// per-cause tick array — and the memory controller moves the timeline at its
// scheduling decision points. A span snapshots the cumulative array when the
// request enqueues and again when its column command issues; the difference
// splits the request's entire wait into per-cause ticks that sum exactly to
// CAS - Enqueue (every tick of the interval belongs to exactly one timeline
// segment). Queue-full backpressure before a successful enqueue is accounted
// separately, so the full invariant is
//
//	sum(Span.Stall) == Span.CAS - Span.FirstAttempt
//
// for every completed span, enforced by regression tests across all
// mitigation schemes.
//
// Like shadowscope (package obs), the tracker is nil-safe: a nil *Tracker or
// *Collector is valid and inert, so the unprobed hot path costs one nil
// check, and span-tracked same-seed runs stay bit-identical to untracked
// ones. Nothing here reads the wall clock or unseeded entropy; the package
// is policed by the shadowvet determinism analyzer.
package span

import (
	"fmt"

	"shadow/internal/obs"
	"shadow/internal/timing"
)

// Cause labels one reason a queued request was not making progress. Every
// tick of a bank's timeline belongs to exactly one Cause.
type Cause uint8

// The attribution taxonomy. CauseService is the "no one to blame" bucket:
// the bank was actively working demand traffic (its own tRCD, column
// bursts, and the requests queued ahead).
const (
	// CauseService: the bank was serving demand work — row activation in
	// flight, column bursts, or earlier queued requests draining.
	CauseService Cause = iota
	// CauseBankBusy: precharge/recovery timing (tRP, tRAS) before the bank
	// could open the needed row.
	CauseBankBusy
	// CauseActSpacing: rank-level activation spacing (tRRD_S/L, tFAW).
	CauseActSpacing
	// CauseBus: column-command spacing or data-bus occupancy (tCCD_S/L,
	// burst collision).
	CauseBus
	// CauseRefresh: auto-refresh (REF) drain and busy windows.
	CauseRefresh
	// CauseRFM: RFM busy time and RAA-saturation ACT holds for TRR-backed
	// schemes (PARFM, Mithril), plus the generic DDR5 RFM interface.
	CauseRFM
	// CauseShuffle: SHADOW's in-DRAM work inside tRFM — row shuffling and
	// incremental refresh blocking the bank.
	CauseShuffle
	// CauseSwap: RRS row-swap channel blocking.
	CauseSwap
	// CauseThrottle: BlockHammer delaying the activation.
	CauseThrottle
	// CauseQueueFull: backpressure — the core's request was rejected by a
	// full bank queue before it could enqueue.
	CauseQueueFull

	// NumCauses sizes per-cause arrays.
	NumCauses
)

// String implements fmt.Stringer.
func (c Cause) String() string {
	switch c {
	case CauseService:
		return "service"
	case CauseBankBusy:
		return "bank-busy"
	case CauseActSpacing:
		return "act-spacing"
	case CauseBus:
		return "bus"
	case CauseRefresh:
		return "refresh"
	case CauseRFM:
		return "rfm"
	case CauseShuffle:
		return "shuffle"
	case CauseSwap:
		return "swap"
	case CauseThrottle:
		return "throttle"
	case CauseQueueFull:
		return "queue-full"
	}
	return fmt.Sprintf("Cause(%d)", int(c)) //shadowvet:ignore allocflow -- unreachable fallback: every defined Cause returns a constant above
}

// Attributor lets a mitigation scheme claim the blame for the RFM busy
// windows it fills: SHADOW returns CauseShuffle (the window is spent
// shuffling rows and incrementally refreshing), TRR-backed schemes return
// CauseRFM. The device and controller resolve it once at construction via a
// type assertion on the installed mitigator.
type Attributor interface {
	RFMBlame() Cause
}

// Span is the lifecycle record of one memory request. Timestamps are absolute
// simulated ticks; a zero ACT means the request was served from an already
// open row (RowHit).
type Span struct {
	Core  int
	Bank  int
	Row   int
	Write bool

	// FirstAttempt is when the core first tried to enqueue (equals Enqueue
	// unless the bank queue rejected it), Enqueue when the request entered
	// the controller queue, ACT when its own activation issued (0 on a row
	// hit), CAS when the column command issued, and Done when data was fully
	// returned (reads) or the write was accepted.
	FirstAttempt timing.Tick
	Enqueue      timing.Tick
	ACT          timing.Tick
	CAS          timing.Tick
	Done         timing.Tick
	RowHit       bool

	// Stall attributes every tick of [FirstAttempt, CAS) to one cause:
	// sum(Stall) == CAS - FirstAttempt, exactly.
	Stall [NumCauses]timing.Tick

	// base is the bank timeline snapshot taken at Enqueue.
	base [NumCauses]timing.Tick
}

// Resident returns the request's total wait, first enqueue attempt to column
// issue.
func (sp *Span) Resident() timing.Tick { return sp.CAS - sp.FirstAttempt }

// StallTotal sums the per-cause attribution; equals Resident for every
// completed span (the conservation invariant).
func (sp *Span) StallTotal() timing.Tick {
	var t timing.Tick
	for _, v := range sp.Stall {
		t += v
	}
	return t
}

// Blame returns the dominant stall cause (CauseService when nothing
// dominates; ties break toward the lower-numbered cause).
func (sp *Span) Blame() Cause {
	best, bestV := CauseService, timing.Tick(0)
	for c := Cause(0); c < NumCauses; c++ {
		if sp.Stall[c] > bestV {
			best, bestV = c, sp.Stall[c]
		}
	}
	return best
}

// NoteBackpressure records that the core first tried to enqueue at
// firstAttempt and was rejected until the eventual Enqueue; the rejected
// window is attributed to CauseQueueFull. Safe on a nil receiver.
func (sp *Span) NoteBackpressure(firstAttempt timing.Tick) {
	if sp == nil || firstAttempt >= sp.Enqueue {
		return
	}
	sp.FirstAttempt = firstAttempt
	sp.Stall[CauseQueueFull] = sp.Enqueue - firstAttempt
}

// NoteACT stamps the request's own activation (first one wins; a precharge
// conflict can re-activate without moving the stamp). Safe on a nil
// receiver.
func (sp *Span) NoteACT(now timing.Tick) {
	if sp != nil && sp.ACT == 0 {
		sp.ACT = now
	}
}

// Aggregate is the rolled-up blame of a set of completed spans.
type Aggregate struct {
	Spans   int64
	Reads   int64
	Writes  int64
	RowHits int64
	// Dropped counts spans past the retention cap; they are still fully
	// accounted in the aggregate, only their individual records are gone.
	Dropped int64
	// Resident sums CAS - FirstAttempt; Stall[c] sums per-cause attribution.
	// sum(Stall) == Resident (conservation).
	Resident timing.Tick
	Stall    [NumCauses]timing.Tick
}

func (a *Aggregate) add(sp *Span) {
	a.Spans++
	if sp.Write {
		a.Writes++
	} else {
		a.Reads++
	}
	if sp.RowHit {
		a.RowHits++
	}
	a.Resident += sp.Resident()
	for c, v := range sp.Stall {
		a.Stall[c] += v
	}
}

// StallTotal sums the per-cause attribution.
func (a Aggregate) StallTotal() timing.Tick {
	var t timing.Tick
	for _, v := range a.Stall {
		t += v
	}
	return t
}

// Conserved reports the conservation invariant: attributed ticks sum exactly
// to total wait ticks.
func (a Aggregate) Conserved() bool { return a.StallTotal() == a.Resident }

// Violation returns "" while the conservation invariant holds, otherwise a
// description of the mismatch. The flight-recorder conservation watchdog
// trips on a non-empty result.
func (a Aggregate) Violation() string {
	if a.Conserved() {
		return ""
	}
	return fmt.Sprintf("span conservation violated: attributed %d ticks != resident %d ticks over %d spans (delta %+d)",
		a.StallTotal(), a.Resident, a.Spans, a.StallTotal()-a.Resident)
}

// bankTimeline attributes a bank's time: every tick since `since` belongs to
// `cause`; earlier ticks are folded into cum.
type bankTimeline struct {
	cause Cause
	since timing.Tick
	cum   [NumCauses]timing.Tick
}

// snapshot returns cumulative per-cause ticks as of now, without mutating.
func (tl *bankTimeline) snapshot(now timing.Tick) [NumCauses]timing.Tick {
	s := tl.cum
	if now > tl.since {
		s[tl.cause] += now - tl.since
	}
	return s
}

// set folds the elapsed segment and starts a new one.
func (tl *bankTimeline) set(now timing.Tick, c Cause) {
	if now > tl.since {
		tl.cum[tl.cause] += now - tl.since
		tl.since = now
	}
	tl.cause = c
}

// busyNote marks a bank-busy window whose blame is known in advance (REF,
// RFM): while the window is open, ACT waits on the bank are
// attributed to its cause rather than generic bank-busy.
type busyNote struct {
	until timing.Tick
	cause Cause
}

// defaultMaxSpans bounds per-tracker span retention (~4 MB per tracker at
// full capacity); the aggregate keeps counting past the cap.
const defaultMaxSpans = 1 << 16

// Tracker traces the requests of one channel. All methods are safe on a nil
// receiver (inert), so simulation code threads it unconditionally.
type Tracker struct {
	maxSpans int
	probe    *obs.Probe
	banks    []bankTimeline
	busy     []busyNote
	agg      Aggregate
	spans    []*Span
	// free recycles spans dropped past the retention cap: once retention is
	// full every new span is aggregate-only, so Start can reuse the dropped
	// object (after a whole-struct reset) instead of allocating — the span
	// path of a long run reaches a zero-allocation steady state.
	free []*Span
	// lanes assigns completed spans to per-core Perfetto rows: a request
	// takes the first lane free at its enqueue time, so concurrent requests
	// render as parallel flame rows.
	lanes [][]timing.Tick
}

// NewTracker builds a tracker for one channel of `banks` banks. maxSpans
// bounds individual span retention (0 = default 65536; the aggregate is
// unaffected). probe, when non-nil, receives one duration event per
// completed request on a per-core lane track.
func NewTracker(banks, maxSpans int, probe *obs.Probe) *Tracker {
	if maxSpans <= 0 {
		maxSpans = defaultMaxSpans
	}
	return &Tracker{
		maxSpans: maxSpans,
		probe:    probe,
		banks:    make([]bankTimeline, banks),
		busy:     make([]busyNote, banks),
	}
}

// SetCause moves bank's timeline to cause c at time now. The controller
// calls this at every scheduling decision point; between calls the cause
// holds steady (the limiting factor identified at a quiescent instant stays
// the limiting factor until the next event).
func (t *Tracker) SetCause(bank int, now timing.Tick, c Cause) {
	if t == nil {
		return
	}
	t.banks[bank].set(now, c)
}

// SetAllCauses moves every bank's timeline to cause c (refresh drains, RRS
// channel blocking).
func (t *Tracker) SetAllCauses(now timing.Tick, c Cause) {
	if t == nil {
		return
	}
	for i := range t.banks {
		t.banks[i].set(now, c)
	}
}

// NoteBusy opens a pre-attributed busy window on bank until `until` and
// moves the timeline to its cause. The device calls it when REF/RFM
// commands start their busy time.
func (t *Tracker) NoteBusy(bank int, now, until timing.Tick, c Cause) {
	if t == nil {
		return
	}
	t.busy[bank] = busyNote{until: until, cause: c}
	t.banks[bank].set(now, c)
}

// NoteAllBusy opens a pre-attributed busy window on every bank (all-bank
// REF).
func (t *Tracker) NoteAllBusy(now, until timing.Tick, c Cause) {
	if t == nil {
		return
	}
	for i := range t.banks {
		t.busy[i] = busyNote{until: until, cause: c}
		t.banks[i].set(now, c)
	}
}

// BusyCause resolves the blame for an ACT blocked on bank readiness at time
// now: the open busy window's cause if one covers now, else def (generic
// precharge/restore recovery).
func (t *Tracker) BusyCause(bank int, now timing.Tick, def Cause) Cause {
	if t == nil {
		return def
	}
	if n := t.busy[bank]; now < n.until {
		return n.cause
	}
	return def
}

// Start opens a span for a request entering bank's queue at time now.
// Returns nil on a nil tracker.
func (t *Tracker) Start(core, bank, row int, write bool, now timing.Tick) *Span {
	if t == nil {
		return nil
	}
	var sp *Span
	if n := len(t.free); n > 0 {
		sp = t.free[n-1]
		t.free = t.free[:n-1]
	} else {
		sp = &Span{} //shadowvet:ignore allocflow -- slab refill when the free list is empty; live spans are bounded, so steady state always pops
	}
	*sp = Span{
		Core: core, Bank: bank, Row: row, Write: write,
		FirstAttempt: now, Enqueue: now,
	}
	sp.base = t.banks[bank].snapshot(now)
	return sp
}

// Complete closes a span at its column issue (cas) with completion time
// done: the bank timeline delta since Enqueue becomes the span's stall
// attribution, the aggregate absorbs it, and — when a probe is attached — a
// per-request duration event lands on the span's core lane track.
func (t *Tracker) Complete(sp *Span, cas, done timing.Tick) {
	if t == nil || sp == nil {
		return
	}
	snap := t.banks[sp.Bank].snapshot(cas)
	for c := range snap {
		sp.Stall[c] += snap[c] - sp.base[c]
	}
	sp.CAS, sp.Done = cas, done
	sp.RowHit = sp.ACT == 0
	t.agg.add(sp)
	recycle := false
	if len(t.spans) < t.maxSpans {
		t.spans = append(t.spans, sp) //shadowvet:ignore allocflow -- bounded by maxSpans; once full, spans recycle through the free list
	} else {
		t.agg.Dropped++
		recycle = true
	}
	if t.probe != nil {
		t.probe.Emit(obs.Event{
			At: sp.Enqueue, Dur: done - sp.Enqueue,
			Kind: obs.KindSpan,
			TID:  obs.ReqTID(sp.Core, t.lane(sp)),
			Bank: sp.Bank, Row: sp.Row,
			Aux:   int64(sp.StallTotal()),
			Label: "req:" + sp.Blame().String(), //shadowvet:ignore allocflow -- span-trace label, built only with a probe attached; the probed dynamic gate still holds 0 allocs/op
		})
	}
	if recycle {
		// Recycle only after the probe has read the span; the caller's
		// Request no longer references it (requests reset their Span
		// pointer when recycled themselves).
		t.free = append(t.free, sp) //shadowvet:ignore allocflow -- free-list push reuses capacity released by earlier pops
	}
}

// lane picks the first per-core flame row free at the span's enqueue time
// (deterministic first-fit; rows are bounded by obs.ReqLanes, matching the
// cores' MSHR-bounded parallelism).
func (t *Tracker) lane(sp *Span) int {
	for len(t.lanes) <= sp.Core {
		t.lanes = append(t.lanes, nil) //shadowvet:ignore allocflow -- lanes grow to the core count on first touch only
	}
	rows := t.lanes[sp.Core]
	for i, busyUntil := range rows {
		if busyUntil <= sp.Enqueue {
			t.lanes[sp.Core][i] = sp.Done
			return i
		}
	}
	if len(rows) < obs.ReqLanes {
		t.lanes[sp.Core] = append(rows, sp.Done) //shadowvet:ignore allocflow -- per-core lane rows bounded by obs.ReqLanes; first-touch growth only
		return len(rows)
	}
	// All lanes busy: reuse the earliest-free one (slices may overlap).
	best := 0
	for i := 1; i < len(rows); i++ {
		if rows[i] < rows[best] {
			best = i
		}
	}
	t.lanes[sp.Core][best] = sp.Done
	return best
}

// Aggregate returns the tracker's rolled-up blame.
func (t *Tracker) Aggregate() Aggregate {
	if t == nil {
		return Aggregate{}
	}
	return t.agg
}

// Spans returns the retained spans in completion order.
func (t *Tracker) Spans() []*Span {
	if t == nil {
		return nil
	}
	return t.spans
}

// Collector owns span tracking for one run: the Tracker the simulator
// threads through its controller and device, created on demand. A nil
// *Collector is valid and hands out a nil tracker.
type Collector struct {
	maxSpans int
	tracker  *Tracker
}

// NewCollector builds a collector. maxSpans bounds span retention
// (0 = default).
func NewCollector(maxSpans int) *Collector {
	return &Collector{maxSpans: maxSpans}
}

// Tracker creates (or returns) the run's tracker. Safe on a nil receiver
// (returns a nil, inert tracker).
func (c *Collector) Tracker(banks int, probe *obs.Probe) *Tracker {
	if c == nil {
		return nil
	}
	if c.tracker == nil {
		c.tracker = NewTracker(banks, c.maxSpans, probe)
	}
	return c.tracker
}

// Aggregate returns the run's rolled-up blame.
func (c *Collector) Aggregate() Aggregate {
	if c == nil {
		return Aggregate{}
	}
	return c.tracker.Aggregate()
}

// Spans returns the retained spans in completion order.
func (c *Collector) Spans() []*Span {
	if c == nil {
		return nil
	}
	return c.tracker.Spans()
}
