// Package sim is the system-level simulator behind the paper's performance
// experiments (Figures 8-12): N cores replaying workload traces against the
// memory controller and DRAM device, with any combination of DRAM-side
// (SHADOW, PARFM, Mithril) and MC-side (BlockHammer, RRS) mitigations.
//
// The core model is the standard trace-driven abstraction used to study
// memory-system changes: each core retires the trace's non-memory
// instructions at a fixed rate and issues its memory accesses with bounded
// memory-level parallelism (MSHRs); a core stalls when its MSHRs are full,
// so added DRAM latency (tRCD', RFM busy time, throttling delays, channel
// blocking) flows directly into lost instruction throughput. Relative
// performance between schemes — all the paper reports — is governed by the
// same mechanisms as on real hardware.
package sim

import (
	"fmt"

	"shadow/internal/dram"
	"shadow/internal/hammer"
	"shadow/internal/memctrl"
	"shadow/internal/memsys"
	"shadow/internal/mitigate"
	"shadow/internal/obs"
	"shadow/internal/obs/span"
	"shadow/internal/timing"
	"shadow/internal/trace"
)

// probeSetter is implemented by mitigation schemes that accept shadowscope
// instrumentation after construction (shadow.Controller, BlockHammer).
type probeSetter interface {
	SetProbe(*obs.Probe)
}

// Config describes one simulation run.
type Config struct {
	// Params must be fully configured (speed grade, RAAIMT, SHADOW timings,
	// refresh scaling).
	Params *timing.Params
	// Geometry defaults to dram.DefaultGeometry for the params' grade.
	Geometry dram.Geometry
	// Hammer defaults to hammer.DefaultConfig.
	Hammer hammer.Config
	// DeviceMit is the in-DRAM mitigation (nil = unprotected).
	DeviceMit dram.Mitigator
	// MCSide is the controller-side mitigation (nil = none).
	MCSide mitigate.MCSide
	// RFMFilter optionally gates RFMs (Section VIII).
	RFMFilter *mitigate.RFMFilter
	// Workload supplies one generator per core.
	Workload []trace.Generator
	// Duration is the simulated time horizon.
	Duration timing.Tick
	// Warmup excludes the first Warmup ticks from the reported statistics
	// (instructions and controller counters), so threshold-based schemes
	// (tracker tables, Bloom filters) are measured in steady state rather
	// than while still filling. Must be below Duration.
	Warmup timing.Tick
	// Channels builds a multi-channel system (default 1). Workload
	// generators must then emit global bank indices in
	// [0, Channels*Geometry.Banks) — build them over a geometry whose Banks
	// field is the total. With Channels > 1, per-channel mitigators come
	// from DeviceMitFor/MCSideFor (mitigation state must not be shared
	// across channels, since bank indices repeat).
	Channels     int
	DeviceMitFor func(ch int) dram.Mitigator
	MCSideFor    func(ch int) mitigate.MCSide
	// InstPerNS is each core's peak retirement rate (instructions per
	// nanosecond); 4.0 models a ~3 GHz out-of-order core.
	InstPerNS float64
	// MSHR bounds each core's outstanding misses (default 8, approximating
	// an out-of-order core with prefetching).
	MSHR int
	// OnCommand, when set, observes every DRAM command each channel's
	// controller issues (protocol validation; see package cmdtrace). The
	// channel index is passed alongside the command.
	OnCommand func(ch int, cmd memctrl.Cmd)
	// Probe, when set, threads shadowscope instrumentation through the
	// memory controllers, devices, and mitigation schemes; channel ch
	// records on the probe's ForChannel(ch). Nil disables all observation.
	Probe *obs.Probe
	// Spans, when set, threads shadowtap request-lifecycle tracing through
	// the controllers and devices: every request gets a span with
	// conservation-exact stall-cause attribution, rolled up per channel.
	// Nil disables span tracking entirely.
	Spans *span.Collector
	// Progress, when set, is called with the current simulated time roughly
	// every ProgressEvery ticks (observation only; drives the CLI
	// heartbeat). It must not mutate simulation state.
	Progress func(now timing.Tick)
	// ProgressEvery is the Progress callback period (default Duration/100).
	ProgressEvery timing.Tick
}

// Result summarizes a run.
type Result struct {
	Duration timing.Tick
	// Insts and IPC are per core; IPC is in instructions per nanosecond.
	Insts []int64
	IPC   []float64
	MC    memctrl.Stats
	Dev   dram.BankStats
	Flips int
	// Device is channel 0's rank, available for post-run inspection
	// (mapping state, row contents, flip records); Devices lists every
	// channel's rank.
	Device  *dram.Device
	Devices []*dram.Device
}

// core is the per-core replay state.
type core struct {
	gen         trace.Generator
	nextIssueAt timing.Tick
	pending     trace.Event
	outstanding int
	insts       int64
	stalled     bool
	// backoff marks a pending request rejected by a full bank queue;
	// backoffAt is the first rejected attempt, reported to the request's
	// span as queue-full backpressure once it finally enqueues.
	backoff   bool
	backoffAt timing.Tick
}

// completion is one outstanding miss awaiting retirement: the core to
// credit and the time its data returns.
type completion struct {
	core int
	at   timing.Tick
}

// coreGroup is the number of cores one runner.groupMin entry summarizes.
const coreGroup = 8

// runner holds the hot-loop state of one simulation. The per-iteration work
// lives in tick() — factored out of Run so the allocation regression test
// can pump a steady-state runner directly and pin the loop to 0 allocs.
type runner struct {
	cfg     *Config
	cores   []*core
	mc      *memsys.System
	devices []*dram.Device

	// Event-wheel state (see tick).
	// ctls caches the per-channel controllers so the wheel can step a single
	// channel. coreAt holds each core's next issue time, Forever while the
	// core is stalled (retire restores it when the core unstalls) or parked
	// on a full queue (rearmSlot restores it); it sits in one contiguous
	// array so the wheel's per-wakeup scan never touches a core that is not
	// due. groupMin[g] is exactly the minimum of coreAt over
	// cores [g*coreGroup, (g+1)*coreGroup), and coreMin exactly min(coreAt),
	// both kept at every write to coreAt, so a wakeup with no core due skips
	// the walk altogether and the walk skips every group with no core due.
	// stalled counts the MSHR-stalled cores. ctlNext holds each channel's
	// last Step return, its advance bound, so quiescent channels are not
	// stepped at all; chDirty marks channels that received a request this
	// wakeup.
	ctls     []*memctrl.Controller
	coreAt   []timing.Tick
	groupMin []timing.Tick
	coreMin  timing.Tick
	stalled  int
	ctlNext  []timing.Tick
	chDirty  []bool

	// Queue-full parking (see tick): a core whose request found its
	// bank queue full waits with coreAt Forever on that bank's list instead
	// of polling. parkHead[ch*banks+bank] heads the list of cores parked on
	// the bank, threaded through parkLink (-1 ends a list).
	parkHead []int
	parkLink []int

	inflight []completion
	// nextDone is the earliest completion time in inflight (Forever when
	// empty): maintained by onComplete on insert and recomputed by the retire
	// pass, so the advance phase never rescans the inflight list.
	nextDone timing.Tick
	// freeReqs recycles Request objects. A request is recyclable as soon as
	// its column command issues (OnComplete): the controller has dequeued it
	// and the simulator tracks only the (core, done) pair. Live requests are
	// bounded by cores×MSHR, so the pre-filled slab makes the steady-state
	// issue path allocation-free. Recycled requests are reset by whole-struct
	// assignment, clearing stale Span pointers before reuse.
	freeReqs []*memctrl.Request
	reqSlab  []memctrl.Request

	instSeries *obs.Series
	progEvery  timing.Tick
	nextProg   timing.Tick
	now        timing.Tick
}

// checkBanks rejects a geometry with more banks than one controller
// drives, before memctrl.New would panic on it.
func checkBanks(g dram.Geometry) error {
	if g.Banks > memctrl.MaxBanks {
		return fmt.Errorf("sim: %d banks; a rank has at most %d", g.Banks, memctrl.MaxBanks)
	}
	return nil
}

// newRunner validates cfg, applies defaults, and builds the cores,
// controllers, devices, and recycling pools for one run. Split from Run so
// the allocation regression test can pump a steady-state runner's tick()
// under testing.AllocsPerRun.
func newRunner(cfg Config) (*runner, error) {
	if cfg.Params == nil {
		return nil, fmt.Errorf("sim: Params required")
	}
	if len(cfg.Workload) == 0 {
		return nil, fmt.Errorf("sim: empty workload")
	}
	if cfg.Duration <= 0 {
		return nil, fmt.Errorf("sim: non-positive duration")
	}
	if cfg.Geometry.Banks == 0 {
		cfg.Geometry = dram.DefaultGeometry(cfg.Params.Grade == timing.DDR5_4800)
	}
	if err := checkBanks(cfg.Geometry); err != nil {
		return nil, err
	}
	if cfg.Hammer.HCnt == 0 {
		cfg.Hammer = hammer.DefaultConfig()
	}
	if cfg.InstPerNS <= 0 {
		cfg.InstPerNS = 4.0
	}
	if cfg.MSHR <= 0 {
		cfg.MSHR = 8
	}
	if cfg.Warmup >= cfg.Duration {
		return nil, fmt.Errorf("sim: warmup %v must be below duration %v", cfg.Warmup, cfg.Duration)
	}

	channels := cfg.Channels
	if channels <= 0 {
		channels = 1
	}
	if channels > 1 && cfg.DeviceMit != nil {
		return nil, fmt.Errorf("sim: with Channels > 1 use DeviceMitFor, not DeviceMit")
	}
	if channels > 1 && cfg.MCSide != nil {
		return nil, fmt.Errorf("sim: with Channels > 1 use MCSideFor, not MCSide")
	}

	cores := make([]*core, len(cfg.Workload))
	for i, g := range cfg.Workload {
		cores[i] = &core{gen: g}
		cores[i].fetch(cfg.InstPerNS, 0)
	}

	r := &runner{cfg: &cfg, cores: cores}
	r.reqSlab = make([]memctrl.Request, len(cores)*cfg.MSHR)
	r.freeReqs = make([]*memctrl.Request, 0, len(r.reqSlab))
	for i := range r.reqSlab {
		r.freeReqs = append(r.freeReqs, &r.reqSlab[i])
	}
	r.inflight = make([]completion, 0, len(r.reqSlab))
	r.nextDone = timing.Forever
	r.parkHead = make([]int, channels*cfg.Geometry.Banks)
	for i := range r.parkHead {
		r.parkHead[i] = -1
	}
	r.parkLink = make([]int, len(cores))

	ctls := make([]*memctrl.Controller, channels)
	devices := make([]*dram.Device, channels)
	for ch := 0; ch < channels; ch++ {
		mit := cfg.DeviceMit
		if cfg.DeviceMitFor != nil {
			mit = cfg.DeviceMitFor(ch)
		}
		mcside := cfg.MCSide
		if cfg.MCSideFor != nil {
			mcside = cfg.MCSideFor(ch)
		}
		chProbe := cfg.Probe.ForChannel(ch)
		if chProbe != nil {
			if ps, ok := mit.(probeSetter); ok {
				ps.SetProbe(chProbe)
			}
			if ps, ok := mcside.(probeSetter); ok {
				ps.SetProbe(chProbe)
			}
		}
		spanTr := cfg.Spans.ForChannel(ch, cfg.Geometry.Banks, chProbe)
		dev, err := dram.NewDevice(dram.Config{
			Geometry:  cfg.Geometry,
			Params:    cfg.Params,
			Hammer:    cfg.Hammer,
			Mitigator: mit,
			Probe:     chProbe,
			Spans:     spanTr,
		})
		if err != nil {
			return nil, err
		}
		devices[ch] = dev
		var onCmd func(memctrl.Cmd)
		if cfg.OnCommand != nil {
			chID := ch
			onCmd = func(c memctrl.Cmd) { cfg.OnCommand(chID, c) }
		}
		// Completion queue: (coreID, doneAt) pairs, unsorted (small). The
		// completed request goes straight back on the free list, and its
		// dequeue frees a slot for the cores parked on its bank.
		slot0 := ch * cfg.Geometry.Banks
		onComplete := func(req *memctrl.Request) {
			r.inflight = append(r.inflight, completion{core: req.Core, at: req.Done})
			if req.Done < r.nextDone {
				r.nextDone = req.Done
			}
			r.freeReqs = append(r.freeReqs, req)
			r.rearmSlot(slot0+req.Bank, r.now)
		}
		ctls[ch] = memctrl.New(dev, memctrl.Options{
			MCSide:     mcside,
			RFMFilter:  cfg.RFMFilter,
			OnComplete: onComplete,
			OnCommand:  onCmd,
			Probe:      chProbe,
			Spans:      spanTr,
		})
	}
	mc, err := memsys.New(ctls)
	if err != nil {
		return nil, err
	}
	r.mc = mc
	r.devices = devices
	r.ctls = ctls
	r.coreAt = make([]timing.Tick, len(cores))
	r.groupMin = make([]timing.Tick, (len(cores)+coreGroup-1)/coreGroup)
	for g := range r.groupMin {
		r.groupMin[g] = timing.Forever
	}
	r.coreMin = timing.Forever
	for i, c := range cores {
		r.lowerCoreAt(i, c.nextIssueAt)
	}
	r.ctlNext = make([]timing.Tick, channels)
	r.chDirty = make([]bool, channels)

	r.instSeries = cfg.Probe.Series("sim/insts")
	r.progEvery = cfg.ProgressEvery
	if r.progEvery <= 0 {
		r.progEvery = cfg.Duration / 100
	}
	if r.progEvery <= 0 {
		r.progEvery = 1
	}
	r.nextProg = r.progEvery
	return r, nil
}

// Run executes the simulation.
func Run(cfg Config) (*Result, error) {
	r, err := newRunner(cfg)
	if err != nil {
		return nil, err
	}
	// Defaults were applied to the runner's copy of the config.
	rcfg := r.cfg

	var warmInsts []int64
	var warmMC memctrl.Stats
	warmTaken := false
	for r.now < rcfg.Duration {
		if !warmTaken && r.now >= rcfg.Warmup && rcfg.Warmup > 0 {
			warmTaken = true
			warmInsts = make([]int64, len(r.cores))
			for i, c := range r.cores {
				warmInsts[i] = c.insts
			}
			warmMC = r.mc.Stats()
		}
		r.tick()
	}

	measured := rcfg.Duration - rcfg.Warmup
	res := &Result{
		Duration: measured,
		Insts:    make([]int64, len(r.cores)),
		IPC:      make([]float64, len(r.cores)),
		MC:       r.mc.Stats(),
		Dev:      r.mc.DeviceStats(),
		Flips:    r.mc.FlipCount(),
		Device:   r.devices[0],
		Devices:  r.devices,
	}
	if warmTaken {
		res.MC = subStats(r.mc.Stats(), warmMC)
	}
	for i, c := range r.cores {
		res.Insts[i] = c.insts
		if warmTaken {
			res.Insts[i] -= warmInsts[i]
		}
		res.IPC[i] = float64(res.Insts[i]) / measured.Nanoseconds()
	}
	return res, nil
}

// tick runs one wakeup of the event wheel: retire due completions, let due
// cores issue, step the channels that can act, and jump to the earliest
// future event. Allocation-free in steady state. It touches only the state
// that can act at this instant:
//
//   - cores are walked through their dense next-issue-time array, so only
//     due cores touch their replay state, only at a wakeup where some core
//     is due (coreMin), and only in groups of cores where one is due
//     (groupMin);
//   - a completion wakes the wheel only while some core is MSHR-stalled:
//     otherwise retiring it changes only the core's outstanding count, which
//     only the walk reads, and the walk runs after the retire pass of its own
//     wakeup (DESIGN.md §10, part 4);
//   - a core whose request met a full bank queue retries on a 4 tCK grid
//     from its first rejection, but parks on the bank and wakes only at the
//     first grid point after a dequeue from it (DESIGN.md §10, part 5);
//   - a channel is stepped only when it received a request this wakeup or
//     its bound (its last Step return, ctlNext) has arrived — a skipped Step
//     is a pure no-op, spans or not (DESIGN.md §10);
//   - advance() jumps straight to the minimum bound.
func (r *runner) tick() {
	now := r.now

	// 1. Retire completions due by now.
	r.retire(now)

	// 2. Let the due cores issue. With none due the walk would change
	// nothing, so it is skipped.
	if r.coreMin <= now {
		r.walkCores(now)
	}

	// 3. Step the channels that can act: enqueued-into this wakeup or bound
	// arrived. stepSelected steps them in ascending channel order, round
	// after round, which fixes the multi-channel command (and completion)
	// order; skipped re-steps of already-quiescent channels within the same
	// instant are idempotent no-ops.
	for ch, dirty := range r.chDirty {
		if dirty {
			r.ctlNext[ch] = now
			r.chDirty[ch] = false
		}
	}
	r.stepSelected(now)

	// 4. Jump to the wheel's bound. coreMin includes the retries re-armed by
	// this wakeup's dequeues.
	r.advance(now)
}

// walkCores walks the cores in index order — same-instant requests enter
// their bank queues in core-index order, and FR-FCFS breaks ties on queue
// order — replaying every due core. A group with no core due is skipped
// whole; the walked groups' minima and coreMin are recomputed in the same
// pass.
func (r *runner) walkCores(now timing.Tick) {
	coreMin := timing.Forever
	for g, gmin := range r.groupMin {
		if gmin <= now {
			gmin = timing.Forever
			lo := g * coreGroup
			for id, at := range r.coreAt[lo:min(lo+coreGroup, len(r.coreAt))] {
				if at <= now {
					at = r.replay(lo+id, now)
				}
				gmin = min(gmin, at)
			}
			r.groupMin[g] = gmin
		}
		coreMin = min(coreMin, gmin)
	}
	r.coreMin = coreMin
}

// replay issues due core id's requests until it stalls on its MSHRs, parks
// on a full bank queue or runs ahead of now, and returns its new coreAt
// (Forever while stalled or parked).
func (r *runner) replay(id int, now timing.Tick) timing.Tick {
	cfg := r.cfg
	c := r.cores[id]
	parked := false
	for !c.stalled && c.nextIssueAt <= now {
		if c.outstanding >= cfg.MSHR {
			c.stalled = true
			r.stalled++
			break
		}
		// Whole-struct reset: a recycled request must not leak its old
		// Span pointer or channel-rewritten bank index into this one.
		req := r.getReq()
		*req = memctrl.Request{
			Core:   id,
			Bank:   c.pending.Bank,
			Row:    c.pending.Row,
			Col:    c.pending.Col,
			Write:  c.pending.Write,
			Arrive: now,
		}
		ok, ch := r.mc.EnqueueCh(req)
		if !ok {
			// Bank queue full: the core's next retry is 4 tCK away, but it
			// parks on the bank until a dequeue re-arms it. A
			// failed enqueue mutates nothing, so the channel stays clean.
			r.freeReqs = append(r.freeReqs, req) //shadowvet:ignore allocflow -- slab return: freeReqs capacity came from the pops that emptied it
			if !c.backoff {
				c.backoff, c.backoffAt = true, now
			}
			c.nextIssueAt = now + cfg.Params.TCK*4
			r.park(id, ch*cfg.Geometry.Banks+req.Bank)
			parked = true
			break
		}
		r.chDirty[ch] = true
		if c.backoff {
			req.Span.NoteBackpressure(c.backoffAt)
			c.backoff = false
		}
		c.outstanding++
		c.fetch(cfg.InstPerNS, now)
		r.instSeries.Add(now, float64(c.pending.Gap))
	}
	at := timing.Forever
	if !c.stalled && !parked {
		at = c.nextIssueAt
	}
	r.coreAt[id] = at
	return at
}

// lowerCoreAt puts core id back on the wheel at at: coreAt was Forever (the
// core stalled, parked or not yet armed), so its group's minimum and coreMin
// can only fall.
func (r *runner) lowerCoreAt(id int, at timing.Tick) {
	r.coreAt[id] = at
	if g := id / coreGroup; at < r.groupMin[g] {
		r.groupMin[g] = at
	}
	if at < r.coreMin {
		r.coreMin = at
	}
}

// park holds core id on bank slot's full queue: the core stays out of the
// wheel (coreAt Forever) until rearmSlot puts it back on its retry grid.
func (r *runner) park(id, slot int) {
	r.parkLink[id] = r.parkHead[slot]
	r.parkHead[slot] = id
}

// rearmSlot returns every core parked on bank slot to the wheel, at the
// first point of its retry grid strictly after now. It runs from OnComplete,
// whose column command just dequeued a request from the bank. A retry at now
// would run in the core phase, before this Step, and meet the full queue, as
// a retry at every earlier grid point would, since only a dequeue shrinks a
// queue. So the first retry that can succeed is the first one after now, and
// the skipped grid points are retries that would have failed.
func (r *runner) rearmSlot(slot int, now timing.Tick) {
	backoff := r.cfg.Params.TCK * 4
	for id := r.parkHead[slot]; id >= 0; id = r.parkLink[id] {
		c := r.cores[id]
		if c.nextIssueAt <= now {
			c.nextIssueAt += ((now-c.nextIssueAt)/backoff + 1) * backoff
		}
		r.lowerCoreAt(id, c.nextIssueAt)
	}
	r.parkHead[slot] = -1
}

// stepSelected drains every selected channel (ctlNext set to now) to
// quiescence at now, in rounds: each round steps every channel that is still
// due, in ascending channel order, so the channels' commands at one instant
// interleave in a fixed order. Each stepped channel's last Step return is
// left in ctlNext: that is already its cached bound (NextReadyAt or later).
func (r *runner) stepSelected(now timing.Tick) {
	for {
		again := false
		for ch, ctl := range r.ctls {
			if r.ctlNext[ch] <= now {
				r.ctlNext[ch] = ctl.Step(now)
				if r.ctlNext[ch] <= now {
					again = true
				}
			}
		}
		if !again {
			return
		}
	}
}

// advance moves simulated time to the wheel's sound lower bound on the next
// actionable event: the minimum over per-channel bounds, the earliest
// unstalled core's issue time (coreMin) and, while some core is stalled, the
// earliest outstanding completion. A bound at or before now moves the wheel
// on by one tCK, so it never spins at an instant.
func (r *runner) advance(now timing.Tick) {
	next := r.coreMin
	for _, b := range r.ctlNext {
		if b < next {
			next = b
		}
	}
	if r.stalled > 0 && r.nextDone > now && r.nextDone < next {
		next = r.nextDone
	}
	if next <= now {
		next = now + r.cfg.Params.TCK
	}
	r.now = next
	r.noteProgress()
}

// retire retires the completions due by now, recomputing the earliest
// surviving completion in the same pass (onComplete keeps it current for
// inserts). A core that unstalls resumes at the later of its issue time and
// the completion that freed it, which also becomes its wheel key in coreAt.
func (r *runner) retire(now timing.Tick) {
	if r.nextDone > now {
		return
	}
	nextDone := timing.Forever
	for i := 0; i < len(r.inflight); {
		if r.inflight[i].at <= now {
			id := r.inflight[i].core
			c := r.cores[id]
			c.outstanding--
			if c.stalled {
				c.stalled = false
				r.stalled--
				if c.nextIssueAt < r.inflight[i].at {
					c.nextIssueAt = r.inflight[i].at
				}
				r.lowerCoreAt(id, c.nextIssueAt)
			}
			r.inflight[i] = r.inflight[len(r.inflight)-1]
			r.inflight = r.inflight[:len(r.inflight)-1]
		} else {
			if r.inflight[i].at < nextDone {
				nextDone = r.inflight[i].at
			}
			i++
		}
	}
	r.nextDone = nextDone
}

// noteProgress fires the optional Progress heartbeat and re-arms it with the
// anchored O(1) catch-up: the next deadline is the first multiple of the
// cadence past now, keeping the phase stable across arbitrarily large event
// jumps without iterating the skipped intervals.
func (r *runner) noteProgress() {
	if r.cfg.Progress == nil || r.now < r.nextProg {
		return
	}
	r.cfg.Progress(r.now) //shadowvet:ignore allocflow -- Progress is an optional throttled UI hook, nil in measured configs and off the per-wakeup fast path
	r.nextProg += ((r.now-r.nextProg)/r.progEvery + 1) * r.progEvery
}

// getReq pops a recycled Request (the slab bounds live requests at
// cores×MSHR, so this only allocates if that invariant is ever broken).
func (r *runner) getReq() *memctrl.Request {
	if n := len(r.freeReqs); n > 0 {
		req := r.freeReqs[n-1]
		r.freeReqs = r.freeReqs[:n-1]
		return req
	}
	return &memctrl.Request{} //shadowvet:ignore allocflow -- slab refill; the cores-times-MSHR bound keeps this off the steady-state path
}

// subStats subtracts warmup-phase counters from the final totals.
func subStats(a, w memctrl.Stats) memctrl.Stats {
	a.Acts -= w.Acts
	a.Reads -= w.Reads
	a.Writes -= w.Writes
	a.Pres -= w.Pres
	a.Refs -= w.Refs
	a.RFMs -= w.RFMs
	a.SkippedRFMs -= w.SkippedRFMs
	a.Swaps -= w.Swaps
	a.TRRs -= w.TRRs
	a.RowHits -= w.RowHits
	a.RowMisses -= w.RowMisses
	a.ReadLatency -= w.ReadLatency
	a.CompletedReads -= w.CompletedReads
	a.CompletedWrites -= w.CompletedWrites
	a.BlockedTime -= w.BlockedTime
	return a
}

// fetch loads the core's next trace event and schedules its issue time after
// the event's instruction gap.
func (c *core) fetch(instPerNS float64, now timing.Tick) {
	c.pending = c.gen.Next()
	c.insts += int64(c.pending.Gap)
	gapTime := timing.Tick(float64(c.pending.Gap) / instPerNS * float64(timing.Nanosecond))
	if gapTime < 1 {
		gapTime = 1
	}
	base := c.nextIssueAt
	if now > base {
		base = now
	}
	c.nextIssueAt = base + gapTime
}

// TotalIPC sums per-core IPC.
func (r *Result) TotalIPC() float64 {
	s := 0.0
	for _, v := range r.IPC {
		s += v
	}
	return s
}

// WeightedSpeedup computes the paper's multiprogram metric: the mean of
// per-core IPC ratios between a scheme run and its baseline run (normalized
// weighted speedup; 1.0 = no slowdown).
func WeightedSpeedup(scheme, baseline *Result) float64 {
	if len(scheme.IPC) != len(baseline.IPC) {
		panic("sim: mismatched core counts")
	}
	s := 0.0
	for i := range scheme.IPC {
		if baseline.IPC[i] == 0 {
			continue
		}
		s += scheme.IPC[i] / baseline.IPC[i]
	}
	return s / float64(len(scheme.IPC))
}

// RelativePerformance for single-threaded runs: inverse-execution-time ratio
// equals the IPC ratio over a fixed horizon.
func RelativePerformance(scheme, baseline *Result) float64 {
	return scheme.TotalIPC() / baseline.TotalIPC()
}
