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
	Swaps, TRRs               int64
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

// Options configures a controller.
type Options struct {
	// MCSide is the controller-side mitigation policy (defaults to none).
	MCSide mitigate.MCSide
	// RFMFilter optionally gates RFM issue (Section VIII extension).
	RFMFilter *mitigate.RFMFilter
	// QueueCap bounds each bank's request queue (0 = 64).
	QueueCap int
	// ClosedPage precharges a bank as soon as no hits are queued, so every
	// access is an activation — the behaviour an attacker induces with
	// cache-flushing access sequences, used by the attack simulator.
	ClosedPage bool
	// SameBankRefresh uses DDR5 REFsb commands instead of all-bank REF: one
	// bank refreshes every tREFI/banks while the others keep serving,
	// trading rank-wide stalls for more frequent, cheaper ones. Requires a
	// parameter set with tRFCsb (DDR5).
	SameBankRefresh bool
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
	// FullRescan reverts Step to the pre-event-driven scheduler that
	// re-evaluates every bank on every call instead of consulting the
	// per-bank readiness cache. It exists so the scheduler-equivalence
	// regression test can prove the cached path bit-identical; simulation
	// entry points expose it for the same purpose only.
	FullRescan bool
}

type bankCtl struct {
	queue   []*Request
	open    bool
	openRow int // physical (post-MC-translation) row that is open
	raa     int
	// actFor, in closed-page mode, is the single request the current
	// activation was issued for; once served the row closes.
	actFor *Request
	// trr queues victim rows awaiting an MC-side target-row-refresh
	// (an ACT-PRE cycle issued by the controller itself).
	trr []int
	// trrOpen marks the open row as a TRR activation: no column traffic,
	// precharge as soon as tRAS allows.
	trrOpen bool
	// colsSinceAct / actSeen track the column-per-activation streak for the
	// row-buffer locality histogram.
	colsSinceAct int
	actSeen      bool
}

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

	// Event-driven scheduling state (nil ready == FullRescan). ready holds
	// each non-volatile bank's earliest possibly-actionable tick — always a
	// lower bound on the bank's true next-action time, so stale entries cost
	// an extra (behavior-neutral) wakeup, never a missed command. Volatile
	// banks hold Forever in ready and are re-evaluated every Step: banks
	// whose binding ACT constraint is the MC-side throttle (BlockHammer's
	// allowed-at can move EARLIER at an epoch rotation, with no bank event
	// to invalidate on) and, when spans are attached, every non-idle bank
	// (a global event can change a waiting bank's blame cause, and the
	// cause timeline must move at the same Step the full rescan would move
	// it). scan/bankNext are per-Step scratch.
	ready     []timing.Tick
	scan      []int
	bankNext  []timing.Tick
	vol       []bool
	volCount  int // number of banks currently in the volatile set
	throttled []bool

	nextRefreshAt timing.Tick
	refreshDrain  bool
	refreshBank   int // next REFsb target when SameBankRefresh is on

	// shadowscope instruments, resolved once at construction; all are
	// nil-inert when no probe is attached.
	probe *obs.Probe
	// emitEvents caches Probe.EventsOn at construction: metrics-only runs
	// (the always-on flight-less config) skip per-command Event building.
	emitEvents  bool
	latHist     *obs.Histogram
	depthHist   *obs.Histogram
	localHist   *obs.Histogram
	actSeries   *obs.Series
	rfmSeries   *obs.Series
	blockSeries *obs.Series

	// shadowtap span tracker (nil-inert) and the blame the installed
	// mitigator claims for RFM windows and RAA-saturation holds (SHADOW
	// shuffles inside them, TRR-backed schemes refresh).
	spans    *span.Tracker
	rfmCause span.Cause

	Stats Stats
}

// New builds a controller for the device.
func New(dev *dram.Device, opt Options) *Controller {
	if opt.QueueCap == 0 {
		opt.QueueCap = 64
	}
	mc := opt.MCSide
	if mc == nil {
		mc = mitigate.NopMCSide{}
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
	if !opt.FullRescan {
		n := dev.Banks()
		c.ready = make([]timing.Tick, n) // all 0: the first Step classifies every bank
		c.scan = make([]int, 0, n)
		c.bankNext = make([]timing.Tick, n)
		c.vol = make([]bool, n)
		c.throttled = make([]bool, n)
		dev.SetBusyNotifier(c.liftBusy)
	}
	if opt.SameBankRefresh {
		if dev.Params().RFCsb <= 0 {
			panic("memctrl: SameBankRefresh requires a parameter set with tRFCsb")
		}
		// Per-bank refresh paces banks*x faster at 1/banks the work each.
		c.nextRefreshAt = dev.Params().REFI / timing.Tick(dev.Banks())
	}
	for i := range c.actWindow {
		c.actWindow[i] = -dev.Params().FAW
	}
	c.probe = opt.Probe
	c.emitEvents = c.probe.EventsOn()
	c.latHist = c.probe.Histogram("mc/read_latency_ticks")
	c.depthHist = c.probe.Histogram("mc/queue_depth")
	c.localHist = c.probe.Histogram("mc/row_hits_per_act")
	c.actSeries = c.probe.Series("mc/acts")
	c.rfmSeries = c.probe.Series("mc/rfms")
	c.blockSeries = c.probe.Series("mc/blocked_ticks")
	c.spans = opt.Spans
	c.rfmCause = span.CauseRFM
	if a, ok := dev.Mitigator().(span.Attributor); ok {
		c.rfmCause = a.RFMBlame()
	}
	return c
}

// Device returns the attached rank.
func (c *Controller) Device() *dram.Device { return c.dev }

// bankGroup maps a bank to its bank group (4 banks per group, per DDR4/5).
func bankGroup(bank int) int { return bank / 4 }

// Enqueue adds a request. It reports false when the bank queue is full (the
// core must retry later).
func (c *Controller) Enqueue(r *Request) bool {
	if r.Bank < 0 || r.Bank >= len(c.banks) {
		panic(fmt.Sprintf("memctrl: bank %d out of range", r.Bank))
	}
	b := &c.banks[r.Bank]
	if len(b.queue) >= c.opt.QueueCap {
		return false
	}
	b.queue = append(b.queue, r) //shadowvet:ignore allocflow -- bank queue bounded by QueueCap; capacity is retained across request recycling, so growth stops after warmup
	c.dirty(r.Bank, r.Arrive)
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

// Pending reports whether any request is queued.
func (c *Controller) Pending() bool { return c.QueuedRequests() > 0 }

// Step attempts to issue one command at time `now` and returns the earliest
// time at which the controller could act next. When the return value equals
// now, call Step again (more work is possible at this instant).
func (c *Controller) Step(now timing.Tick) timing.Tick {
	if now < c.blockedUntil {
		return c.blockedUntil
	}
	if now < c.cmdBusFreeAt {
		return c.cmdBusFreeAt
	}

	next := timing.Forever

	// 1. Refresh has top priority once due: drain open banks, then REF.
	if now >= c.nextRefreshAt {
		c.refreshDrain = true
	} else {
		next = minTick(next, c.nextRefreshAt)
	}
	if c.refreshDrain {
		// Every bank's ACT progress is held by the drain; column traffic that
		// still completes below flips its bank back to service at the same
		// instant (zero-length segment), keeping attribution exact.
		c.spans.SetAllCauses(now, span.CauseRefresh)
		if t, issued := c.tryRefresh(now); issued {
			return c.afterCmd(now)
		} else if t != timing.Forever {
			next = minTick(next, t)
		}
		if c.refreshDrain {
			// While draining, do not start new row activity; allow column
			// traffic to finish below only for open rows.
			if t := c.tryDrainColumns(now); t == now {
				return c.afterCmd(now)
			} else {
				return minTick(next, t)
			}
		}
	}

	if c.ready == nil {
		return c.stepRescan(now, next)
	}
	return c.stepEvent(now, next)
}

// stepRescan is the pre-event-driven scheduler: phases 2-4 re-evaluate every
// bank on every Step. Kept verbatim behind Options.FullRescan as the
// reference the equivalence test measures the cached path against.
func (c *Controller) stepRescan(now, next timing.Tick) timing.Tick {
	// 2. Per-bank RFM when the RAA counter demands it.
	for i := range c.banks {
		t, issued := c.tryRFM(now, i)
		if issued {
			return c.afterCmd(now)
		}
		next = minTick(next, t)
	}

	// 3. MC-side target-row-refreshes (Graphene, PARA).
	for i := range c.banks {
		t, issued := c.tryTRR(now, i)
		if issued {
			return c.afterCmd(now)
		}
		next = minTick(next, t)
	}

	// 4. Demand traffic, FR-FCFS.
	for i := range c.banks {
		t, issued := c.tryDemand(now, i)
		if issued {
			return c.afterCmd(now)
		}
		next = minTick(next, t)
	}
	return next
}

// stepEvent runs phases 2-4 over only the banks that could act: the volatile
// set plus every bank whose cached readiness has arrived. One ascending pass
// collects them while folding the other banks' cached minimum, so the
// (phase, bank) consultation order — and therefore which command issues when
// several are legal at the same tick — matches stepRescan by construction.
func (c *Controller) stepEvent(now, next timing.Tick) timing.Tick {
	scan := c.scan[:0]
	rest := timing.Forever
	for i, t := range c.ready {
		if t <= now || c.vol[i] {
			scan = append(scan, i) //shadowvet:ignore allocflow -- c.scan is reused via [:0]; capacity tops out at the bank count
		} else if t < rest {
			rest = t
		}
	}
	c.scan = scan
	next = minTick(next, rest)
	for _, i := range scan {
		c.bankNext[i] = timing.Forever
		c.throttled[i] = false
	}
	for _, i := range scan {
		t, issued := c.tryRFM(now, i)
		if issued {
			return c.issuedDuringScan(now, 0)
		}
		c.bankNext[i] = minTick(c.bankNext[i], t)
	}
	for _, i := range scan {
		t, issued := c.tryTRR(now, i)
		if issued {
			return c.issuedDuringScan(now, 0)
		}
		c.bankNext[i] = minTick(c.bankNext[i], t)
	}
	for s, i := range scan {
		t, issued := c.tryDemand(now, i)
		if issued {
			// Demand is the last phase: banks earlier in the scan are fully
			// evaluated and keep their computed readiness.
			return c.issuedDuringScan(now, s)
		}
		c.bankNext[i] = minTick(c.bankNext[i], t)
	}
	// Nothing issued: re-cache each scanned bank (every non-issue time from
	// the phases is strictly greater than now, so the Step loop cannot spin)
	// or keep it in the volatile set if it must be re-evaluated every Step.
	// Either way its computed time joins the bound.
	for _, i := range scan {
		c.recacheBank(i)
		next = minTick(next, c.bankNext[i])
	}
	return next
}

// recacheBank files bank i after a full (all-phase, non-issuing) evaluation:
// into the volatile set if it must be re-evaluated every Step, else into the
// readiness cache under its computed next-action time.
func (c *Controller) recacheBank(i int) {
	c.updateVolatility(i)
	if !c.vol[i] {
		c.ready[i] = c.bankNext[i]
	}
}

// issuedDuringScan finishes a Step that issued a command mid-scan. Banks
// before position keep were evaluated by every phase, and their computed
// times stay valid lower bounds across the issued command — a command only
// adds constraints, so it can raise but never lower another bank's
// next-action time — so they re-cache at their computed readiness. Banks the
// evaluation never completed for (everything from keep on, plus every bank
// when the issue happened in the RFM or TRR phase) need no re-arming at all:
// they still hold their collected keys (<= now), so the next Step collects
// and re-evaluates them — their partial minima are never trusted.
func (c *Controller) issuedDuringScan(now timing.Tick, keep int) timing.Tick {
	for _, i := range c.scan[:keep] {
		if !c.vol[i] {
			c.recacheBank(i)
		}
	}
	return c.afterCmd(now)
}

// Volatile reports whether this channel must be stepped at every runner
// wakeup: full-rescan mode (the per-Step evaluation itself is the oracle) or
// any bank in the volatile set (throttle-bound ACTs and span-tracked non-idle
// banks are re-evaluated every Step, so the set of Step instants is
// observable). The event wheel clamps its jump to the per-tick cadence while
// any channel is volatile — see sim's wheel scheduler and DESIGN.md §10.
func (c *Controller) Volatile() bool {
	return c.ready == nil || c.volCount > 0
}

// NextReadyAt returns a sound lower bound on the next instant this channel
// can issue a command or otherwise change observable state, assuming no new
// requests arrive: the earliest of the refresh deadline, the cached per-bank
// readiness minimum, the device's busy-window deadlines, and the mitigation
// timers on both sides of the channel — gated by the command-bus and
// swap-blocking windows, before which nothing can issue. Volatile channels
// return now (the caller must keep stepping them); a bound <= now likewise
// means "due now" (e.g. mid refresh drain). Between now and the returned
// bound every Step is a pure no-op, so a wheel that skips those Steps is
// bit-identical to the per-tick scheduler.
func (c *Controller) NextReadyAt(now timing.Tick) timing.Tick {
	if c.Volatile() {
		return now
	}
	next := c.nextRefreshAt
	for _, t := range c.ready {
		next = minTick(next, t)
	}
	next = minTick(next, c.dev.NextDeadline(now))
	next = minTick(next, c.mc.NextEventAt(now))
	next = maxTick(next, c.cmdBusFreeAt)
	return maxTick(next, c.blockedUntil)
}

// dirty marks a bank's cached readiness stale as of time at. Called on every
// event that can LOWER the bank's earliest-actionable time: a request enqueue
// and any command issued on the bank (ACT/PRE/RD/WR/RFM/REFsb — command issue
// can queue TRR work, change the open row, or drain RAA). Events that only
// RAISE times (other banks' ACT/column spacing, all-bank REF, swap blocking)
// need no invalidation: the cached lower bound stays valid and costs at most
// one extra behavior-neutral wakeup.
//
// The key is lowered to the event time, never raised: every future Step runs
// at now >= at, so the bank is collected on the very next evaluation either
// way. Volatile banks are skipped — they are evaluated every Step already.
func (c *Controller) dirty(bank int, at timing.Tick) {
	if c.ready == nil || bank < 0 || c.vol[bank] {
		return
	}
	if c.ready[bank] > at {
		c.ready[bank] = at
	}
}

// liftBusy raises a bank's cached readiness to the end of a device-side
// busy window (REF/REFsb/RFM): the bank is closed for the whole window, so
// no command on it can be legal earlier and the lift cannot skip work.
// Volatile banks hold Forever, so they are never lifted.
func (c *Controller) liftBusy(bank int, until timing.Tick) {
	if c.ready != nil && c.ready[bank] < until {
		c.ready[bank] = until
	}
}

// updateVolatility moves bank i between the cached set and the volatile set
// after a full (non-issuing) evaluation. A bank is volatile while its ACT is
// throttle-bound (the policy's allowed-at can move earlier with no bank
// event) or, under span tracking, while it has any pending work (a global
// event can change its blame cause, and the timeline must move at the same
// Step the full rescan would move it).
func (c *Controller) updateVolatility(i int) {
	wantVol := c.throttled[i] || (c.spans != nil && !c.bankIdle(i))
	if wantVol == c.vol[i] {
		return
	}
	c.vol[i] = wantVol
	if wantVol {
		c.volCount++
		c.ready[i] = timing.Forever
	} else {
		c.volCount--
	}
}

// bankIdle reports that bank i can neither issue a command nor produce a
// span cause segment: nothing queued, no TRR work, no TRR or closed-page row
// to close, and no pending RFM obligation. Skipping idle banks is exact —
// every scheduling phase returns Forever for them without side effects.
func (c *Controller) bankIdle(i int) bool {
	b := &c.banks[i]
	return len(b.queue) == 0 && len(b.trr) == 0 && !b.trrOpen &&
		!(c.opt.ClosedPage && b.open) &&
		!(c.p.RAAIMT > 0 && b.raa >= c.p.RAAIMT)
}

// tryTRR advances a bank's pending MC-side target-row-refreshes: close the
// bank if needed, activate the victim (restoring its charge), and precharge
// again. TRR activations count toward the RAA counter like any other ACT.
func (c *Controller) tryTRR(now timing.Tick, i int) (timing.Tick, bool) {
	b := &c.banks[i]
	if b.trrOpen {
		// Precharge the TRR activation as soon as legal.
		t := c.dev.Bank(i).NextPREReady()
		if now < t {
			c.spans.SetCause(i, now, span.CauseTRR)
			return t, false
		}
		if err := c.dev.Precharge(i, now); err != nil {
			panic(fmt.Sprintf("memctrl: TRR PRE: %v", err))
		}
		b.open = false
		b.trrOpen = false
		c.Stats.Pres++
		c.log(CmdPRE, i, -1, now)
		c.spans.SetCause(i, now, span.CauseTRR)
		return now, true
	}
	if len(b.trr) == 0 {
		return timing.Forever, false
	}
	if b.open {
		t := c.dev.Bank(i).NextPREReady()
		if now < t {
			c.spans.SetCause(i, now, span.CauseTRR)
			return t, false
		}
		if err := c.dev.Precharge(i, now); err != nil {
			panic(fmt.Sprintf("memctrl: TRR drain PRE: %v", err))
		}
		b.open = false
		c.Stats.Pres++
		c.log(CmdPRE, i, -1, now)
		c.spans.SetCause(i, now, span.CauseTRR)
		return now, true
	}
	row := b.trr[0]
	t, _ := c.actReadyAt(now, i, row)
	if t == timing.Forever {
		return timing.Forever, false // RAA saturated; RFM first
	}
	if now < t {
		// Pending TRR work owns the bank regardless of which JEDEC spacing
		// delays its ACT: the queued demand requests wait on the TRR.
		c.spans.SetCause(i, now, span.CauseTRR)
		return t, false
	}
	if err := c.dev.Activate(i, row, now); err != nil {
		panic(fmt.Sprintf("memctrl: TRR ACT: %v", err))
	}
	c.log(CmdACT, i, row, now)
	if c.emitEvents {
		c.probe.Emit(obs.Event{At: now, Kind: obs.KindTRR, Bank: i, Row: row})
	}
	b.trr = b.trr[1:]
	b.open = true
	b.openRow = row
	b.trrOpen = true
	b.actFor = nil
	b.raa++
	c.Stats.Acts++
	c.Stats.TRRs++
	c.noteACT(now, i)
	c.spans.SetCause(i, now, span.CauseTRR)
	return now, true
}

// afterCmd accounts for command-bus occupancy and returns the next instant.
func (c *Controller) afterCmd(now timing.Tick) timing.Tick {
	c.cmdBusFreeAt = now + c.p.TCK
	return c.cmdBusFreeAt
}

// log reports an issued command to the OnCommand hook and the probe. Every
// issued command is also a cache-invalidation point for its bank.
func (c *Controller) log(kind CmdKind, bank, row int, at timing.Tick) {
	c.dirty(bank, at)
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
		c.actSeries.Add(at, 1)
	case CmdPRE:
		k, dur = obs.KindPRE, c.p.RP
	case CmdRD:
		k, dur = obs.KindRD, c.p.AA+c.p.BL
	case CmdWR:
		k, dur = obs.KindWR, c.p.WL+c.p.BL
	case CmdREF:
		k, dur = obs.KindREF, c.p.RFC
		if bank >= 0 {
			dur = c.p.RFCsb
		}
	case CmdRFM:
		k, dur = obs.KindRFM, c.p.RFM
		c.rfmSeries.Add(at, 1)
	}
	if !c.emitEvents {
		return
	}
	c.probe.Emit(obs.Event{At: at, Dur: dur, Kind: k, Bank: bank, Row: row})
}

// tryRefresh advances the refresh drain: precharge open banks, then issue
// REF (or a single-bank REFsb in same-bank mode). Returns
// (nextTime, issuedCommand).
func (c *Controller) tryRefresh(now timing.Tick) (timing.Tick, bool) {
	if c.opt.SameBankRefresh {
		return c.trySameBankRefresh(now)
	}
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
			if err := c.dev.Precharge(i, now); err != nil {
				panic(fmt.Sprintf("memctrl: drain PRE: %v", err))
			}
			b.open = false
			c.Stats.Pres++
			c.log(CmdPRE, i, -1, now)
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

// trySameBankRefresh refreshes only the rotation's target bank (REFsb).
func (c *Controller) trySameBankRefresh(now timing.Tick) (timing.Tick, bool) {
	i := c.refreshBank
	b := &c.banks[i]
	if b.open {
		ready := c.dev.Bank(i).NextPREReady()
		if now < ready {
			return ready, false
		}
		if err := c.dev.Precharge(i, now); err != nil {
			panic(fmt.Sprintf("memctrl: REFsb PRE: %v", err))
		}
		b.open = false
		b.trrOpen = false
		c.Stats.Pres++
		c.log(CmdPRE, i, -1, now)
		return now, true
	}
	if ready := c.dev.Bank(i).NextACTReady(); now < ready {
		return ready, false
	}
	if err := c.dev.RefreshBank(i, now); err != nil {
		panic(fmt.Sprintf("memctrl: REFsb: %v", err))
	}
	c.Stats.Refs++
	c.log(CmdREF, i, -1, now)
	c.refreshBank = (c.refreshBank + 1) % len(c.banks)
	c.nextRefreshAt += c.p.REFI / timing.Tick(len(c.banks))
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
// could overrun within another interval. Returns (nextTime, issued).
func (c *Controller) tryRFM(now timing.Tick, i int) (timing.Tick, bool) {
	b := &c.banks[i]
	if c.p.RAAIMT <= 0 || b.raa < c.p.RAAIMT {
		return timing.Forever, false
	}
	urgent := b.raa+c.p.RAAIMT > c.p.RAAMMT
	if !urgent && len(b.queue) > 0 {
		// Defer: demand traffic continues; a later Step retries when the
		// queue drains or the counter grows urgent.
		return timing.Forever, false
	}
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
		if err := c.dev.Precharge(i, now); err != nil {
			panic(fmt.Sprintf("memctrl: RFM PRE: %v", err))
		}
		b.open = false
		c.Stats.Pres++
		c.log(CmdPRE, i, -1, now)
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

// oldestHit returns the oldest queued request hitting the open row of bank i.
func (c *Controller) oldestHit(i int) (*Request, int) {
	b := &c.banks[i]
	for idx, r := range b.queue {
		if c.mc.TranslateRow(i, r.Row) == b.openRow {
			return r, idx
		}
	}
	return nil, -1
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
	if c.rrdGlobalAt > t {
		t = c.rrdGlobalAt
		cause = span.CauseActSpacing
	}
	if r := c.rrdGroupAt[bankGroup(i)]; r > t {
		t = r
		cause = span.CauseActSpacing
	}
	if r := c.actWindow[c.actWindowIdx] + c.p.FAW; r > t { // 4 ACTs per tFAW
		t = r
		cause = span.CauseActSpacing
	}
	if r := c.mc.ACTAllowedAt(i, physRow, t); r > t {
		t = r
		cause = span.CauseThrottle
		// A throttle-bound readiness cannot be cached: the policy may allow
		// the ACT earlier after an epoch rotation, with no bank event.
		if c.throttled != nil {
			c.throttled[i] = true
		}
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
				if err := c.dev.Precharge(i, now); err != nil {
					panic(fmt.Sprintf("memctrl: closed-page PRE: %v", err))
				}
				b.open = false
				c.Stats.Pres++
				c.log(CmdPRE, i, -1, now)
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
		// recovery — or on an MC-side TRR cycle still holding the row open.
		t := c.dev.Bank(i).NextPREReady()
		if now >= t {
			if err := c.dev.Precharge(i, now); err != nil {
				panic(fmt.Sprintf("memctrl: PRE: %v", err))
			}
			b.open = false
			c.Stats.Pres++
			c.log(CmdPRE, i, -1, now)
			c.spans.SetCause(i, now, span.CauseBankBusy)
			return now, true
		}
		cause := span.CauseBankBusy
		if b.trrOpen {
			cause = span.CauseTRR
		}
		c.spans.SetCause(i, now, cause)
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
	b.actFor = req
	b.trrOpen = false
	b.raa++
	c.Stats.Acts++
	c.Stats.RowMisses++ // the head request needed this ACT
	c.noteACT(now, i)
	if c.opt.RFMFilter != nil {
		c.opt.RFMFilter.Observe(i, phys, now)
	}
	// MC-side mitigation observation; may demand work.
	if act := c.mc.OnACT(i, phys, now); act != nil {
		if act.Swap != nil {
			c.performSwap(act.Swap, now)
		}
		if len(act.TRR) > 0 {
			b.trr = append(b.trr, act.TRR...) //shadowvet:ignore allocflow -- TRR work queue; bounded per-ACT fanout reusing capacity after warmup
		}
	}
	return now, true
}

// noteACT records the rank-global ACT spacing state (tRRD, tFAW, command
// bus) shared by demand and TRR activations.
func (c *Controller) noteACT(now timing.Tick, i int) {
	c.rrdGlobalAt = now + c.p.RRDS
	c.rrdGroupAt[bankGroup(i)] = now + c.p.RRDL
	c.actWindow[c.actWindowIdx] = now
	c.actWindowIdx = (c.actWindowIdx + 1) % len(c.actWindow)
}

// performSwap executes an RRS swap: after the current ACT completes its
// minimal cycle, the channel is blocked while the MC moves both rows.
func (c *Controller) performSwap(s *mitigate.SwapRequest, now timing.Tick) {
	// Close the bank first (the swap uses its own ACTs internally).
	b := &c.banks[s.Bank]
	preAt := maxTick(c.dev.Bank(s.Bank).NextPREReady(), now)
	if err := c.dev.Precharge(s.Bank, preAt); err != nil {
		panic(fmt.Sprintf("memctrl: swap PRE: %v", err))
	}
	b.open = false
	c.Stats.Pres++
	c.log(CmdPRE, s.Bank, -1, preAt)
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
	c.blockSeries.Add(now, float64(until-now))
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
