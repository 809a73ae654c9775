// Package memctrl implements the memory controller: per-bank FR-FCFS
// request scheduling with an open-page policy, full JEDEC timing enforcement
// (tRCD/tRP/tRAS/tCCD_L/S/tRRD_L/S/tFAW/bus occupancy), auto-refresh, the
// DDR5 RFM interface (per-bank RAA counters, RFM issue at RAAIMT, stall at
// RAAMMT), and the MC-side mitigation hooks (BlockHammer throttling, RRS row
// swaps with channel blocking, the Section VIII RFM filter).
//
// The controller is event-driven: Step(now) issues at most one DRAM command
// at `now` and returns the earliest future instant at which anything could
// change, so multi-millisecond refresh windows simulate quickly.
package memctrl

import (
	"fmt"
	"math/bits"

	"shadow/internal/dram"
	"shadow/internal/mitigate"
	"shadow/internal/obs"
	"shadow/internal/obs/span"
	"shadow/internal/timing"
)

// Request is one memory transaction (a 64-byte line).
type Request struct {
	Core   int
	Bank   int
	Row    int
	Col    int
	Write  bool
	Arrive timing.Tick
	// Done is the completion time: data fully returned for reads, command
	// accepted for (posted) writes. Zero until completed.
	Done timing.Tick
	// Span is the request's shadowtap lifecycle record, opened at Enqueue
	// when span tracking is on (nil otherwise).
	Span *span.Span
}

// Stats aggregates controller activity.
type Stats struct {
	Acts, Reads, Writes, Pres int64
	Refs, RFMs, SkippedRFMs   int64
	Swaps                     int64
	RowHits, RowMisses        int64
	ReadLatency               timing.Tick // sum over completed reads (arrive -> data)
	CompletedReads            int64
	CompletedWrites           int64
	BlockedTime               timing.Tick // channel blocked by swaps
}

// Cmd is one DRAM command issued by the controller, as reported to the
// OnCommand hook (package cmdtrace validates streams of these against the
// JEDEC constraints independently of the device's own checking).
type Cmd struct {
	Kind CmdKind
	Bank int // -1 for rank-level commands (REF)
	Row  int // physical row for ACT; -1 otherwise
	At   timing.Tick
}

// CmdKind enumerates DRAM command types.
type CmdKind int

// Command kinds.
const (
	CmdACT CmdKind = iota
	CmdPRE
	CmdRD
	CmdWR
	CmdREF
	CmdRFM
)

// String implements fmt.Stringer.
func (k CmdKind) String() string {
	switch k {
	case CmdACT:
		return "ACT"
	case CmdPRE:
		return "PRE"
	case CmdRD:
		return "RD"
	case CmdWR:
		return "WR"
	case CmdREF:
		return "REF"
	case CmdRFM:
		return "RFM"
	}
	return fmt.Sprintf("CmdKind(%d)", int(k))
}

// queueCap bounds each bank's request queue.
const queueCap = 64

// Options configures a controller.
type Options struct {
	// MCSide is the controller-side mitigation policy (defaults to none).
	MCSide mitigate.MCSide
	// RFMFilter optionally gates RFM issue (Section VIII extension).
	RFMFilter *mitigate.RFMFilter
	// ClosedPage precharges a bank as soon as no hits are queued, so every
	// access is an activation — the behaviour an attacker induces with
	// cache-flushing access sequences, used by the attack simulator.
	ClosedPage bool
	// OnComplete, when set, is invoked for every completed request.
	OnComplete func(*Request)
	// OnCommand, when set, observes every DRAM command the controller
	// issues (protocol validation, command-trace dumps).
	OnCommand func(Cmd)
	// Probe, when set, attaches shadowscope instrumentation: the command
	// stream as trace events plus read-latency / queue-depth / row-locality
	// histograms and ACT/RFM rate series. Nil costs one check per command.
	Probe *obs.Probe
	// Spans, when set, attaches shadowtap request-lifecycle tracing: every
	// request gets a Span with conservation-exact stall-cause attribution.
	// Nil costs one check per scheduling decision.
	Spans *span.Tracker
}

type bankCtl struct {
	queue   []*Request
	open    bool
	openRow int // physical (post-MC-translation) row that is open
	raa     int
	// actFor, in closed-page mode, is the single request the current
	// activation was issued for; once served the row closes.
	actFor *Request
	// hit caches oldestHit while the bank is open: the queue index of the
	// oldest request hitting the open row, hitNone, or hitUnknown. An ACT,
	// a PRE (an RRS swap's included) and a dequeue void it; Enqueue records
	// a new hit when none is cached.
	hit int
	// colsSinceAct / actSeen track the column-per-activation streak for the
	// row-buffer locality histogram.
	colsSinceAct int
	actSeen      bool
}

// Values of bankCtl.hit besides a queue index.
const (
	hitNone    = -1 // no queued request hits the open row
	hitUnknown = -2 // not computed since the queue or the open row last changed
)

// MaxBanks bounds the banks of one rank: Step collects the due banks into a
// 64-bit mask. New panics above it; sim.Run and sim.RunAttack reject such a
// geometry with an error first.
const MaxBanks = 64

// Controller drives one rank.
type Controller struct {
	dev *dram.Device
	p   *timing.Params
	geo dram.Geometry
	opt Options
	mc  mitigate.MCSide

	banks []bankCtl

	// Channel-global timing state.
	cmdBusFreeAt timing.Tick
	colGlobalAt  timing.Tick    // next column cmd (tCCD_S)
	colGroupAt   []timing.Tick  // per bank group (tCCD_L)
	rrdGlobalAt  timing.Tick    // next ACT (tRRD_S)
	rrdGroupAt   []timing.Tick  // per bank group (tRRD_L)
	actWindow    [4]timing.Tick // tFAW ring
	actWindowIdx int
	busFreeAt    timing.Tick // data bus
	blockedUntil timing.Tick // RRS swap channel blocking

	// Event-driven scheduling state. ready holds each bank's earliest
	// possibly-actionable tick — always a lower bound on the bank's true
	// next-action time, so stale entries cost an extra (behavior-neutral)
	// wakeup, never a missed command. A bank whose binding ACT constraint is
	// the MC-side throttle is keyed no later than the policy's next event
	// (BlockHammer's allowed-at moves earlier only at an epoch rotation).
	// live has bit i set exactly when ready[i] < Forever: the banks a Step
	// can collect. setKey, the only writer of ready, keeps it in step.
	// bankNext and throttled are per-Step scratch.
	ready     []timing.Tick
	live      uint64
	bankNext  []timing.Tick
	throttled []bool
	// watch, when spans are attached, marks the non-idle banks as of their
	// last full evaluation. A global event (a REF drain, an RFM, a swap
	// block, another bank's command) can change a waiting bank's blame
	// cause, so every Step evaluates the watched banks and every command
	// re-keys them at its instant: the cause timeline moves at the first
	// Step after the event, not at the bank's next cached instant.
	watch uint64
	// cmdBank is the bank of the last command logged (-1 for an all-bank
	// REF); afterCmd re-keys it once the command's state updates are done.
	cmdBank int

	nextRefreshAt timing.Tick
	refreshDrain  bool

	// nextAt is the channel's bound (NextAt): Step's last return, lowered by
	// every Enqueue since.
	nextAt timing.Tick

	// shadowscope instruments, resolved once at construction; all are
	// nil-inert when no probe is attached.
	probe *obs.Probe
	// emitEvents caches Probe.EventsOn at construction: metrics-only runs
	// (the always-on flight-less config) skip per-command Event building.
	emitEvents bool
	latHist    *obs.Histogram
	depthHist  *obs.Histogram
	localHist  *obs.Histogram
	actCount   *obs.Counter
	rfmCount   *obs.Counter
	blockCount *obs.Counter

	// shadowtap span tracker (nil-inert) and the blame the installed
	// mitigator claims for RFM windows and RAA-saturation holds (SHADOW
	// shuffles inside them, PARFM and Mithril refresh victims).
	spans    *span.Tracker
	rfmCause span.Cause

	Stats Stats
}

// New builds a controller for the device.
func New(dev *dram.Device, opt Options) *Controller {
	mc := opt.MCSide
	if mc == nil {
		mc = mitigate.NopMCSide{}
	}
	if dev.Banks() > MaxBanks {
		panic(fmt.Sprintf("memctrl: %d banks; a rank has at most %d", dev.Banks(), MaxBanks))
	}
	groups := (dev.Banks() + 3) / 4
	c := &Controller{
		dev:           dev,
		p:             dev.Params(),
		geo:           dev.Geometry(),
		opt:           opt,
		mc:            mc,
		banks:         make([]bankCtl, dev.Banks()),
		colGroupAt:    make([]timing.Tick, groups),
		rrdGroupAt:    make([]timing.Tick, groups),
		nextRefreshAt: dev.Params().REFI,
	}
	n := dev.Banks()
	c.ready = make([]timing.Tick, n) // all 0: the first Step classifies every bank
	c.live = 1<<uint(n) - 1
	for i := range c.banks {
		c.banks[i].hit = hitUnknown
	}
	c.bankNext = make([]timing.Tick, n)
	c.throttled = make([]bool, n)
	dev.SetBusyNotifier(c.liftBusy)
	for i := range c.actWindow {
		c.actWindow[i] = -dev.Params().FAW
	}
	c.probe = opt.Probe
	c.emitEvents = c.probe.EventsOn()
	c.latHist = c.probe.Histogram("mc/read_latency_ticks")
	c.depthHist = c.probe.Histogram("mc/queue_depth")
	c.localHist = c.probe.Histogram("mc/row_hits_per_act")
	c.actCount = c.probe.Counter("mc/acts")
	c.rfmCount = c.probe.Counter("mc/rfms")
	c.blockCount = c.probe.Counter("mc/blocked_ticks")
	c.spans = opt.Spans
	c.rfmCause = span.CauseRFM
	if a, ok := dev.Mitigator().(span.Attributor); ok {
		c.rfmCause = a.RFMBlame()
	}
	return c
}

// RestartStats zeroes Stats and the probe instruments that mirror it, so
// that from now on they count a new measurement window: sim.Run calls it at
// the end of a warm-up.
func (c *Controller) RestartStats() {
	c.Stats = Stats{}
	c.actCount.Reset()
	c.rfmCount.Reset()
	c.blockCount.Reset()
	c.latHist.Reset()
	c.depthHist.Reset()
	c.localHist.Reset()
}

// Device returns the attached rank.
func (c *Controller) Device() *dram.Device { return c.dev }

// bankGroup maps a bank to its bank group (4 banks per group, per DDR4/5).
func bankGroup(bank int) int { return bank / 4 }

// Enqueue adds a request. It reports false when the bank queue is full (the
// core must retry later). A bank not yet due is filed no later than its
// floor at the arrival, taken once the request is queued and its hit
// recorded. The channel's bound (NextAt) falls to that key, gated by the
// command-bus and swap-blocking windows: the new request changes no other
// bank, and nothing issues inside those windows.
func (c *Controller) Enqueue(r *Request) bool {
	if r.Bank < 0 || r.Bank >= len(c.banks) {
		panic(fmt.Sprintf("memctrl: bank %d out of range", r.Bank))
	}
	b := &c.banks[r.Bank]
	if len(b.queue) >= queueCap {
		return false
	}
	b.queue = append(b.queue, r) //shadowvet:ignore allocflow -- bank queue bounded by queueCap; capacity is retained across request recycling, so growth stops after warmup
	if b.open && b.hit == hitNone && c.mc.TranslateRow(r.Bank, r.Row) == b.openRow {
		b.hit = len(b.queue) - 1
	}
	switch {
	case c.spans != nil:
		// The bank's next evaluation may change its blame cause.
		c.dirty(r.Bank, r.Arrive)
	case c.ready[r.Bank] > r.Arrive:
		// A bank already due keeps its key: the next Step collects it.
		// Any other is filed at its floor.
		c.setKey(r.Bank, minTick(c.ready[r.Bank], c.floor(r.Bank, r.Arrive)))
	}
	c.nextAt = minTick(c.nextAt, maxTick(maxTick(c.ready[r.Bank], c.cmdBusFreeAt), c.blockedUntil))
	c.depthHist.Observe(int64(len(b.queue)))
	if c.spans != nil {
		r.Span = c.spans.Start(r.Core, r.Bank, r.Row, r.Write, r.Arrive)
	}
	return true
}

// QueuedRequests returns the total number of requests waiting.
func (c *Controller) QueuedRequests() int {
	n := 0
	for i := range c.banks {
		n += len(c.banks[i].queue)
	}
	return n
}

// Step attempts to issue one command at time `now` and returns the earliest
// time at which the controller could act next. When the return value equals
// now, call Step again (more work is possible at this instant).
//
// A return after now is the channel's whole bound: never below
// NextReadyAt(now), and equal to it after a command. Step also stores it as
// NextAt, so a driver can sleep until NextAt without asking NextReadyAt.
func (c *Controller) Step(now timing.Tick) timing.Tick {
	c.nextAt = c.step(now)
	return c.nextAt
}

// NextAt returns the channel's bound: Step's last return, lowered by every
// Enqueue since to the new request's bank key (gated as Enqueue says). A
// Step before it is a no-op, so a driver steps the controller while NextAt
// is at or before now and then sleeps until it. It starts at 0.
func (c *Controller) NextAt() timing.Tick { return c.nextAt }

// step is Step without storing its return.
func (c *Controller) step(now timing.Tick) timing.Tick {
	if now < c.blockedUntil {
		return c.bound(now, c.blockedUntil)
	}
	if now < c.cmdBusFreeAt {
		return c.bound(now, c.cmdBusFreeAt)
	}

	// 1. Refresh has top priority once due: drain open banks, then REF.
	if now >= c.nextRefreshAt {
		c.refreshDrain = true
	}
	if c.refreshDrain {
		// Every bank's ACT progress is held by the drain; column traffic that
		// still completes below flips its bank back to service at the same
		// instant (zero-length segment), keeping attribution exact.
		c.spans.SetAllCauses(now, span.CauseRefresh)
		t, issued := c.tryRefresh(now)
		if !issued {
			// While draining, do not start new row activity; allow column
			// traffic to finish only for open rows.
			d := c.tryDrainColumns(now)
			issued = d == now
			t = minTick(t, d)
		}
		if issued {
			return c.bound(now, c.afterCmd(now))
		}
		return c.bound(now, t)
	}
	return c.stepEvent(now)
}

// bound folds the channel's cached bound into a raw Step return from one of
// the rare paths (swap blocking, bus echo, refresh drain, REF): their max is
// still a sound lower bound on the next action, and it skips the wakeups
// the raw return would force. A raw return at or before now (more work at
// this instant) keeps the raw value.
func (c *Controller) bound(now, raw timing.Tick) timing.Tick {
	if raw <= now {
		return raw
	}
	return maxTick(raw, c.NextReadyAt(now))
}

// settled finishes NextReadyAt from keys, the minimum of the refresh
// deadline and every bank's readiness key: it folds in the device's and the
// MC-side policy's timers and gates the result by the command-bus and
// swap-blocking windows. Keys at or before the bus window cannot move the
// result, so the timers are not asked then.
func (c *Controller) settled(now, keys timing.Tick) timing.Tick {
	if keys > c.cmdBusFreeAt {
		keys = minTick(keys, c.dev.NextDeadline(now))
		keys = minTick(keys, c.mc.NextEventAt(now))
	}
	return maxTick(maxTick(keys, c.cmdBusFreeAt), c.blockedUntil)
}

// stepEvent runs phases 2-3 over only the banks that could act: every bank
// whose key has arrived, plus the watched banks under spans. One ascending
// pass over the live banks collects them into a mask while folding the other
// live banks' keys into their minimum. Each phase walks the mask in
// ascending bank order before the next phase starts, which decides which
// command issues when several are legal at the same tick: RFM before
// demand, lower bank first. The RFM phase visits only the due banks whose
// RFM it would not defer (rfmWanted); it has nothing to do on the others.
func (c *Controller) stepEvent(now timing.Tick) timing.Tick {
	// The MC-side policy's own timer (BlockHammer's filter-epoch rotation,
	// which releases throttled rows) bounds the next Step, so a release is
	// seen at its epoch boundary rather than at whichever Step follows it.
	event := c.mc.NextEventAt(now)
	var due uint64
	rest := timing.Forever
	for m := c.live; m != 0; m &= m - 1 {
		i := bits.TrailingZeros64(m)
		t := c.ready[i]
		// d is 1 when the key has arrived (t <= now): the sign bit of now-t,
		// inverted. It cannot overflow: now >= 0 and 0 <= t <= Forever.
		d := uint64(now-t)>>63 ^ 1
		due |= d << uint(i)
		// A collected key joins the bound through its bank's evaluation
		// instead: fold Forever in its place.
		rest = minTick(rest, (t|timing.Tick(-int64(d)))&timing.Forever)
	}
	due |= c.watch
	// Refresh is not draining here (Step returned if it were), so its
	// deadline is still ahead.
	keys := minTick(rest, c.nextRefreshAt)
	if due == 0 {
		return maxTick(minTick(keys, event), c.settled(now, keys))
	}
	for m := due; m != 0; m &= m - 1 {
		i := bits.TrailingZeros64(m)
		c.bankNext[i] = timing.Forever
		c.throttled[i] = false
	}
	for m := due; m != 0; m &= m - 1 {
		i := bits.TrailingZeros64(m)
		if !c.rfmWanted(i) {
			continue
		}
		t, issued := c.tryRFM(now, i)
		if issued {
			return c.issuedDuringScan(now, due, 0, keys)
		}
		c.bankNext[i] = minTick(c.bankNext[i], t)
	}
	for m := due; m != 0; m &= m - 1 {
		i := bits.TrailingZeros64(m)
		t, issued := c.tryDemand(now, i)
		if issued {
			// Demand is the last phase: due banks below i are fully
			// evaluated and keep their computed readiness.
			return c.issuedDuringScan(now, due, due&(1<<uint(i)-1), keys)
		}
		c.bankNext[i] = minTick(c.bankNext[i], t)
	}
	// Nothing issued: re-cache each scanned bank (every non-issue time from
	// the phases is strictly greater than now, so the Step loop cannot spin)
	// and fold its key into the bound.
	for m := due; m != 0; m &= m - 1 {
		i := bits.TrailingZeros64(m)
		c.recacheBank(i, now)
		keys = minTick(keys, c.ready[i])
	}
	raw := minTick(keys, event)
	// keys is now the minimum NextReadyAt scans for. The scan may have
	// released the policy's last throttled row (an epoch rotation), which
	// moves its timer past the one folded into raw; the max keeps the later.
	return maxTick(raw, c.settled(now, keys))
}

// recacheBank files bank i, evaluated at now by every phase without issuing,
// under its computed next-action time. A throttle-bound bank is filed no
// later than the MC-side policy's next event, the only instant its allowed-at
// can move earlier. Under spans, the bank joins or leaves the watched set.
func (c *Controller) recacheBank(i int, now timing.Tick) {
	t := c.bankNext[i]
	if c.throttled[i] {
		t = minTick(t, c.mc.NextEventAt(now))
	}
	c.setKey(i, t)
	if c.spans != nil {
		bit := uint64(1) << uint(i)
		if c.bankIdle(i) {
			c.watch &^= bit
		} else {
			c.watch |= bit
		}
	}
}

// issuedDuringScan finishes a Step that issued a command mid-scan. The banks
// in the mask keep were evaluated by every phase, and their computed times
// stay valid lower bounds across the issued command — a command only adds
// constraints, so it can raise but never lower another bank's next-action
// time — so they re-cache at their computed readiness. Their partial minima
// are never trusted for the banks the evaluation did not finish (the
// issuing bank and those above it, plus every bank when the issue happened
// in the RFM phase): each is re-keyed at its floor taken after the command,
// a bound from its state alone (with spans attached it stays due, as rekey
// says). afterCmd re-keys the commanded bank.
//
// The return is NextReadyAt(now) without its scan. keys holds the refresh
// deadline and the keys of every bank outside due, which the command left
// alone: it re-keys only due banks, and its busy window (an RFM's) lifts
// only its own; under spans it also re-keys the watched banks, which are
// due. So folding in the due banks' keys as they now stand gives the
// minimum over every key.
func (c *Controller) issuedDuringScan(now timing.Tick, due, keep uint64, keys timing.Tick) timing.Tick {
	for m := keep; m != 0; m &= m - 1 {
		c.recacheBank(bits.TrailingZeros64(m), now)
	}
	for m := due &^ keep &^ (1 << uint(c.cmdBank)); m != 0; m &= m - 1 {
		c.rekey(bits.TrailingZeros64(m), now)
	}
	c.afterCmd(now)
	for ; due != 0; due &= due - 1 {
		keys = minTick(keys, c.ready[bits.TrailingZeros64(due)])
	}
	return c.settled(now, keys)
}

// Volatile reports false: every bank's key is an exact lower bound, so no
// channel needs stepping at every wakeup. Nothing in this module calls it.
// perfbench's attack replay (perfbench/replay.go) still folds it into its
// wakeup rule, so it stays until that replay drives sim.RunAttack (ROADMAP
// item 1).
func (c *Controller) Volatile() bool { return false }

// NextReadyAt returns a sound lower bound on the next instant this channel
// can issue a command or otherwise change observable state, assuming no new
// requests arrive: the earliest of the refresh deadline, the cached per-bank
// readiness minimum, the device's busy-window deadlines, and the mitigation
// timers on both sides of the channel — gated by the command-bus and
// swap-blocking windows, before which nothing can issue. A bound <= now
// means "due now" (e.g. mid refresh drain). Between now and the returned
// bound every Step is a pure no-op, so a wheel may skip those Steps without
// changing any issued command or, under spans, any blame segment.
//
// Step returns this bound or a later one (after a command in the bank scan
// it computes the bound from its own scan), so the simulator's drivers do
// not call it. It serves replay drivers that fold it themselves and tests
// that check Step against it.
func (c *Controller) NextReadyAt(now timing.Tick) timing.Tick {
	next := c.nextRefreshAt
	for m := c.live; m != 0; m &= m - 1 {
		next = minTick(next, c.ready[bits.TrailingZeros64(m)])
	}
	return c.settled(now, next)
}

// setKey files bank i under readiness key t and keeps live in step. Every
// write of ready goes through it.
func (c *Controller) setKey(i int, t timing.Tick) {
	c.ready[i] = t
	bit := uint64(1) << uint(i)
	if t < timing.Forever {
		c.live |= bit
	} else {
		c.live &^= bit
	}
}

// dirty lowers a bank's cached readiness to time at, so that its next Step
// evaluates it. Under spans, Enqueue and every command call it on the banks
// whose blame cause may move; without spans Enqueue files the bank at its
// floor instead. Events that only RAISE times (other banks' ACT/column
// spacing, all-bank REF, swap blocking) need no invalidation: the cached
// lower bound stays valid and costs at most one extra behavior-neutral
// wakeup.
//
// The key is lowered to the event time, never raised: every future Step runs
// at now >= at, so the bank is collected on the very next evaluation either
// way.
func (c *Controller) dirty(bank int, at timing.Tick) {
	if c.ready[bank] > at {
		c.setKey(bank, at)
	}
}

// rekey files bank i, commanded at now, under its floor. The command may
// have lowered the bank's next-action time (opened or closed a row, drained
// RAA), so its old key is void; the floor, taken after all of the command's
// state updates, replaces it and lets NextReadyAt see past the command's
// one-tCK bus echo.
//
// With spans attached the bank stays due at the next Step instead: its
// next evaluation may change its blame cause, an observable event that the
// floor does not bound.
func (c *Controller) rekey(i int, now timing.Tick) {
	if i < 0 {
		return
	}
	if c.spans != nil {
		c.dirty(i, now)
		return
	}
	c.setKey(i, c.floor(i, now))
}

// floor returns a lower bound on the next command the phases can issue on
// bank i, from the bank's and the channel's timing state as they stand.
// Every input only rises until the bank's next command or, for an idle bank
// and an open bank's hit, its next Enqueue (which leaves a due bank due and
// files any other no later than its floor at the arrival), so the bound
// holds until then:
//
//   - idle (bankIdle): Forever, since every phase returns Forever for it;
//   - open, in the simple state (open page, raa < RAAIMT): tryDemand alone
//     can issue, a column command (colReadyAt) when a queued request hits
//     the open row, else a conflict PRE (NextPREReady);
//   - open otherwise: a column command or a PRE (conflict, RFM, closed-page
//     close), whichever is legal first;
//   - closed: an ACT or an RFM, neither before the bank's own
//     NextACTReady. The ACT spacing (tRRD_S, tRRD_L, tFAW) raises the
//     bound only when no RFM can be due (raa < RAAIMT), because RFM ignores
//     it.
//
// With an RFM filter and an RFM due, the bank's next evaluation may take a
// counted filter skip without issuing, so the floor is now.
func (c *Controller) floor(i int, now timing.Tick) timing.Tick {
	if c.bankIdle(i) {
		return timing.Forever
	}
	b := &c.banks[i]
	rfmDue := c.rfmDue(i)
	if rfmDue && c.opt.RFMFilter != nil {
		return now
	}
	d := c.dev.Bank(i)
	if b.open {
		if !rfmDue && !c.opt.ClosedPage {
			if req, _ := c.oldestHit(i); req == nil {
				return d.NextPREReady()
			}
			t, _ := c.colReadyAt(now, i)
			return t
		}
		t, _ := c.colReadyAt(now, i)
		return minTick(t, d.NextPREReady())
	}
	t := d.NextACTReady()
	if !rfmDue {
		t = maxTick(t, c.actSpacingAt(i))
	}
	return t
}

// actSpacingAt returns the earliest instant the channel's ACT spacing allows
// an ACT on bank i: tRRD_S, tRRD_L within its bank group, and 4 ACTs per
// tFAW.
func (c *Controller) actSpacingAt(i int) timing.Tick {
	t := maxTick(c.rrdGlobalAt, c.rrdGroupAt[bankGroup(i)])
	return maxTick(t, c.actWindow[c.actWindowIdx]+c.p.FAW)
}

// liftBusy raises a bank's cached readiness to the end of a device-side
// busy window (REF/RFM): the bank is closed for the whole window, so
// no command on it can be legal earlier and the lift cannot skip work.
func (c *Controller) liftBusy(bank int, until timing.Tick) {
	if c.ready[bank] < until {
		c.setKey(bank, until)
	}
}

// bankIdle reports that bank i can neither issue a command nor produce a
// span cause segment: nothing queued, no closed-page row to close, and no
// pending RFM obligation. Skipping idle banks is exact — every scheduling
// phase returns Forever for them without side effects.
func (c *Controller) bankIdle(i int) bool {
	b := &c.banks[i]
	return len(b.queue) == 0 && !(c.opt.ClosedPage && b.open) && !c.rfmDue(i)
}

// rfmDue reports that bank i's RAA counter has reached RAAIMT: the RFM phase
// has work for it.
func (c *Controller) rfmDue(i int) bool {
	return c.p.RAAIMT > 0 && c.banks[i].raa >= c.p.RAAIMT
}

// rfmWanted reports that the RFM phase has work for bank i: an RFM is due,
// and either no demand is queued or the counter could pass RAAMMT within
// another RAAIMT ACTs. Otherwise the RFM is deferred (see tryRFM) and demand
// continues; a later Step retries once the queue drains or the counter grows
// urgent.
func (c *Controller) rfmWanted(i int) bool {
	b := &c.banks[i]
	return c.rfmDue(i) && (len(b.queue) == 0 || b.raa+c.p.RAAIMT > c.p.RAAMMT)
}

// precharge issues a PRE on bank i at time at: it closes the open row,
// counts the command and logs it.
func (c *Controller) precharge(i int, at timing.Tick) {
	if err := c.dev.Precharge(i, at); err != nil {
		panic(fmt.Sprintf("memctrl: PRE on bank %d: %v", i, err))
	}
	b := &c.banks[i]
	b.open = false
	b.hit = hitUnknown
	c.Stats.Pres++
	c.log(CmdPRE, i, -1, at)
}

// afterCmd accounts for command-bus occupancy, re-keys the commanded bank
// and the watched banks (a REF, with no commanded bank, included) and
// returns the next instant.
func (c *Controller) afterCmd(now timing.Tick) timing.Tick {
	c.rekey(c.cmdBank, now)
	for m := c.watch; m != 0; m &= m - 1 {
		c.dirty(bits.TrailingZeros64(m), now)
	}
	c.cmdBusFreeAt = now + c.p.TCK
	return c.cmdBusFreeAt
}

// log reports an issued command to the OnCommand hook and the probe, and
// notes its bank for afterCmd's re-key.
func (c *Controller) log(kind CmdKind, bank, row int, at timing.Tick) {
	c.cmdBank = bank
	if c.opt.OnCommand != nil {
		c.opt.OnCommand(Cmd{Kind: kind, Bank: bank, Row: row, At: at}) //shadowvet:ignore allocflow -- optional OnCommand hook; nil in the measured zero-alloc configurations
	}
	if c.probe == nil {
		return
	}
	var k obs.Kind
	var dur timing.Tick
	switch kind {
	case CmdACT:
		k, dur = obs.KindACT, c.p.RCD
		c.actCount.Inc()
	case CmdPRE:
		k, dur = obs.KindPRE, c.p.RP
	case CmdRD:
		k, dur = obs.KindRD, c.p.AA+c.p.BL
	case CmdWR:
		k, dur = obs.KindWR, c.p.WL+c.p.BL
	case CmdREF:
		k, dur = obs.KindREF, c.p.RFC
	case CmdRFM:
		k, dur = obs.KindRFM, c.p.RFM
		c.rfmCount.Inc()
	}
	if !c.emitEvents {
		return
	}
	c.probe.Emit(obs.Event{At: at, Dur: dur, Kind: k, Bank: bank, Row: row})
}

// tryRefresh advances the refresh drain: precharge open banks, then issue
// REF. Returns (nextTime, issuedCommand).
func (c *Controller) tryRefresh(now timing.Tick) (timing.Tick, bool) {
	next := timing.Forever
	allClosed := true
	for i := range c.banks {
		b := &c.banks[i]
		if !b.open {
			continue
		}
		allClosed = false
		ready := c.dev.Bank(i).NextPREReady()
		if now >= ready {
			c.precharge(i, now)
			return now, true
		}
		next = minTick(next, ready)
	}
	if !allClosed {
		return next, false
	}
	// All banks closed: REF when every bank is out of its busy window.
	ready := now
	for i := 0; i < c.dev.Banks(); i++ {
		ready = maxTick(ready, c.dev.Bank(i).NextACTReady())
	}
	if now < ready {
		return ready, false
	}
	if err := c.dev.Refresh(now); err != nil {
		panic(fmt.Sprintf("memctrl: REF: %v", err))
	}
	c.Stats.Refs++
	c.log(CmdREF, -1, -1, now)
	c.nextRefreshAt += c.p.REFI
	c.refreshDrain = false
	return now, true
}

// tryDrainColumns lets already-open rows finish pending hits during a
// refresh drain so PRE becomes legal sooner. Returns now if it issued.
func (c *Controller) tryDrainColumns(now timing.Tick) timing.Tick {
	next := timing.Forever
	for i := range c.banks {
		b := &c.banks[i]
		if !b.open {
			continue
		}
		req, idx := c.oldestHit(i)
		if req == nil {
			// No hits: PRE handled by tryRefresh next round.
			continue
		}
		// Cause stays CauseRefresh (set by Step's drain block): the drain is
		// why only column traffic may proceed.
		t, _ := c.colReadyAt(now, i)
		if now >= t {
			c.issueColumn(now, i, req, idx)
			return now
		}
		next = minTick(next, t)
	}
	return next
}

// tryRFM issues a pending RFM for bank i. Per JEDEC the MC may defer the RFM
// while the RAA counter stays below RAAMMT, so we issue opportunistically
// when the bank is idle and only force it (stalling ACTs) when the counter
// could overrun within another interval. Returns (nextTime, issued). The RFM
// phase calls it only for a bank whose RFM is not deferred (rfmWanted).
func (c *Controller) tryRFM(now timing.Tick, i int) (timing.Tick, bool) {
	b := &c.banks[i]
	// Section VIII filter: skip the RFM when no row is hot.
	if c.opt.RFMFilter != nil && !c.opt.RFMFilter.ShouldRFM(i, now) {
		b.raa -= c.p.RAAIMT
		c.dev.Bank(i).RAA = b.raa
		c.Stats.SkippedRFMs++
		return timing.Forever, false
	}
	if b.open {
		ready := c.dev.Bank(i).NextPREReady()
		if now < ready {
			c.spans.SetCause(i, now, c.rfmCause)
			return ready, false
		}
		c.precharge(i, now)
		c.spans.SetCause(i, now, c.rfmCause)
		return now, true
	}
	ready := c.dev.Bank(i).NextACTReady()
	if now < ready {
		c.spans.SetCause(i, now, c.rfmCause)
		return ready, false
	}
	if err := c.dev.RFM(i, now); err != nil {
		panic(fmt.Sprintf("memctrl: RFM: %v", err))
	}
	b.raa -= c.p.RAAIMT
	c.Stats.RFMs++
	c.log(CmdRFM, i, -1, now)
	return now, true
}

// oldestHit returns the oldest queued request hitting the open row of bank i
// and its queue index. The FR-FCFS walk runs only when the cached answer
// (bankCtl.hit) is void.
func (c *Controller) oldestHit(i int) (*Request, int) {
	b := &c.banks[i]
	if b.hit == hitUnknown {
		b.hit = hitNone
		for idx, r := range b.queue {
			if c.mc.TranslateRow(i, r.Row) == b.openRow {
				b.hit = idx
				break
			}
		}
	}
	if b.hit == hitNone {
		return nil, -1
	}
	return b.queue[b.hit], b.hit
}

// colReadyAt returns the earliest legal column-command time for bank i and
// the stall cause of the limiting constraint (CauseService when the bank's
// own tRCD is the limit — the bank is working for the request).
func (c *Controller) colReadyAt(now timing.Tick, i int) (timing.Tick, span.Cause) {
	cause := span.CauseService
	t := now
	if r := c.dev.Bank(i).NextRDReady(); r > t {
		t = r // the bank's own tRCD: service, nobody to blame
	}
	if c.colGlobalAt > t {
		t = c.colGlobalAt
		cause = span.CauseBus
	}
	if r := c.colGroupAt[bankGroup(i)]; r > t {
		t = r
		cause = span.CauseBus
	}
	// Data must find the bus free: RD data occupies [t+AA, t+AA+BL].
	if c.busFreeAt > t+c.p.AA {
		t = c.busFreeAt - c.p.AA
		cause = span.CauseBus
	}
	return t, cause
}

// issueColumn sends the RD/WR for req (at queue position idx) on bank i.
func (c *Controller) issueColumn(now timing.Tick, i int, req *Request, idx int) {
	var err error
	if req.Write {
		err = c.dev.Write(i, now)
		req.Done = now + c.p.WL + c.p.BL
		c.busFreeAt = now + c.p.WL + c.p.BL
		c.Stats.Writes++
		c.Stats.CompletedWrites++
	} else {
		err = c.dev.Read(i, now)
		req.Done = now + c.p.AA + c.p.BL
		c.busFreeAt = now + c.p.AA + c.p.BL
		c.Stats.Reads++
		c.Stats.CompletedReads++
		c.Stats.ReadLatency += req.Done - req.Arrive
		c.latHist.Observe(int64(req.Done - req.Arrive))
	}
	if err != nil {
		panic(fmt.Sprintf("memctrl: column: %v", err))
	}
	if req.Write {
		c.log(CmdWR, i, -1, now)
	} else {
		c.log(CmdRD, i, -1, now)
	}
	c.colGlobalAt = now + c.p.CCDS
	c.colGroupAt[bankGroup(i)] = now + c.p.CCDL
	b := &c.banks[i]
	b.colsSinceAct++
	b.queue = append(b.queue[:idx], b.queue[idx+1:]...) //shadowvet:ignore allocflow -- in-place deletion: appending into the same backing array never grows it
	b.hit = hitUnknown
	if b.actFor == req {
		// Drop the served request's pointer: callers may recycle Request
		// objects, and a stale actFor must never match a reused one.
		b.actFor = nil
	}
	c.spans.Complete(req.Span, now, req.Done)
	c.spans.SetCause(i, now, span.CauseService)
	if c.opt.OnComplete != nil {
		c.opt.OnComplete(req) //shadowvet:ignore allocflow -- OnComplete is wired to the simulator's request-recycle, which the dynamic gate measures at 0 allocs/op
	}
}

// actReadyAt returns the earliest legal ACT time for physical row physRow of
// bank i and the stall cause of the limiting constraint. The mitigation
// policy's ACTAllowedAt is consulted exactly once (it may mutate per-query
// state, e.g. BlockHammer's CBF epoch rotation), so span-tracked runs stay
// bit-identical to untracked ones.
func (c *Controller) actReadyAt(now timing.Tick, i, physRow int) (timing.Tick, span.Cause) {
	cause := span.CauseService
	t := now
	if r := c.dev.Bank(i).NextACTReady(); r > t {
		t = r
		// The bank may be busy with its own tRP/tRAS recovery (generic
		// bank-busy) or inside a pre-attributed REF/RFM window.
		cause = c.spans.BusyCause(i, now, span.CauseBankBusy)
	}
	if r := c.actSpacingAt(i); r > t {
		t = r
		cause = span.CauseActSpacing
	}
	if r := c.mc.ACTAllowedAt(i, physRow, t); r > t {
		t = r
		cause = span.CauseThrottle
		// The policy may allow the ACT earlier after its next event (an
		// epoch rotation), with no bank event: recacheBank bounds the key.
		c.throttled[i] = true
	}
	// Hold ACTs when the RAA counter is at its maximum.
	if c.p.RAAIMT > 0 && c.banks[i].raa >= c.p.RAAMMT {
		return timing.Forever, c.rfmCause // an RFM will drain it first
	}
	return t, cause
}

// tryDemand schedules FR-FCFS work for bank i: column hit first, else PRE on
// conflict, else ACT for the oldest request.
func (c *Controller) tryDemand(now timing.Tick, i int) (timing.Tick, bool) {
	b := &c.banks[i]
	if len(b.queue) == 0 {
		// Closed-page policy: shut the row once nothing is queued for it.
		if c.opt.ClosedPage && b.open {
			t := c.dev.Bank(i).NextPREReady()
			if now >= t {
				c.precharge(i, now)
				return now, true
			}
			return t, false
		}
		return timing.Forever, false
	}
	if b.open {
		req, idx := c.oldestHit(i)
		if c.opt.ClosedPage {
			// Only the request this activation was for may use the row.
			if b.actFor == nil {
				req = nil
			} else if req != b.actFor {
				req = nil
				for j, r := range b.queue {
					if r == b.actFor {
						req, idx = r, j
						break
					}
				}
			}
		}
		if req != nil {
			t, cause := c.colReadyAt(now, i)
			if now >= t {
				if c.opt.ClosedPage {
					b.actFor = nil
				}
				c.issueColumn(now, i, req, idx)
				return now, true
			}
			c.spans.SetCause(i, now, cause)
			return t, false
		}
		// Conflict: precharge. The head request waits on the bank's own
		// recovery.
		t := c.dev.Bank(i).NextPREReady()
		if now >= t {
			c.precharge(i, now)
			c.spans.SetCause(i, now, span.CauseBankBusy)
			return now, true
		}
		c.spans.SetCause(i, now, span.CauseBankBusy)
		return t, false
	}
	// Closed: activate for the oldest request.
	req := b.queue[0]
	phys := c.mc.TranslateRow(i, req.Row)
	t, cause := c.actReadyAt(now, i, phys)
	if t == timing.Forever {
		c.spans.SetCause(i, now, cause)
		return timing.Forever, false
	}
	if now < t {
		c.spans.SetCause(i, now, cause)
		return t, false
	}
	if err := c.dev.Activate(i, phys, now); err != nil {
		panic(fmt.Sprintf("memctrl: ACT: %v", err))
	}
	c.log(CmdACT, i, phys, now)
	c.spans.SetCause(i, now, span.CauseService)
	req.Span.NoteACT(now)
	if b.actSeen {
		c.localHist.Observe(int64(b.colsSinceAct))
	}
	b.actSeen = true
	b.colsSinceAct = 0
	b.open = true
	b.openRow = phys
	b.hit = hitUnknown
	b.actFor = req
	b.raa++
	c.Stats.Acts++
	c.Stats.RowMisses++ // the head request needed this ACT
	// The rank-global ACT spacing state: tRRD_S, tRRD_L and the tFAW ring.
	c.rrdGlobalAt = now + c.p.RRDS
	c.rrdGroupAt[bankGroup(i)] = now + c.p.RRDL
	c.actWindow[c.actWindowIdx] = now
	c.actWindowIdx = (c.actWindowIdx + 1) % len(c.actWindow)
	if c.opt.RFMFilter != nil {
		c.opt.RFMFilter.Observe(i, phys, now)
	}
	// MC-side mitigation observation; may demand a row swap.
	if s := c.mc.OnACT(i, phys, now); s != nil {
		c.performSwap(s, now)
	}
	return now, true
}

// performSwap executes an RRS swap: after the current ACT completes its
// minimal cycle, the channel is blocked while the MC moves both rows.
func (c *Controller) performSwap(s *mitigate.SwapRequest, now timing.Tick) {
	// Close the bank first (the swap uses its own ACTs internally).
	preAt := maxTick(c.dev.Bank(s.Bank).NextPREReady(), now)
	c.precharge(s.Bank, preAt)
	if err := c.dev.SwapRows(s.Bank, s.RowA, s.RowB); err != nil {
		panic(fmt.Sprintf("memctrl: swap: %v", err))
	}
	until := maxTick(preAt, now) + s.BlockFor
	c.blockedUntil = maxTick(c.blockedUntil, until)
	c.Stats.BlockedTime += until - now
	c.Stats.Swaps++
	// The swap blocks the whole channel: every queued request waits on it.
	c.spans.SetAllCauses(now, span.CauseSwap)
	if c.emitEvents {
		c.probe.Emit(obs.Event{
			At: now, Dur: until - now, Kind: obs.KindSwap,
			Bank: s.Bank, Row: s.RowA, Aux: int64(s.RowB),
		})
	}
	c.blockCount.Add(int64(until - now))
}

// RowHitRate returns the fraction of column commands served without an ACT.
func (s *Stats) RowHitRate() float64 {
	total := s.Reads + s.Writes
	if total == 0 {
		return 0
	}
	return 1 - float64(s.RowMisses)/float64(total)
}

// AvgReadLatency returns the mean arrive-to-data latency.
func (s *Stats) AvgReadLatency() timing.Tick {
	if s.CompletedReads == 0 {
		return 0
	}
	return s.ReadLatency / timing.Tick(s.CompletedReads)
}

func minTick(a, b timing.Tick) timing.Tick {
	if a < b {
		return a
	}
	return b
}

func maxTick(a, b timing.Tick) timing.Tick {
	if a > b {
		return a
	}
	return b
}
