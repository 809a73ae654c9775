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
	// Warmup excludes the first Warmup ticks from every count in Result but
	// Wakeups and Steps (instructions, controller and device statistics,
	// flips) and from the probe counters that mirror them, so
	// threshold-based schemes (tracker tables, Bloom filters) are measured
	// in steady state rather than while still filling. Device.Flips keeps
	// every flip record. Must be below Duration.
	Warmup timing.Tick
	// MSHR bounds each core's outstanding misses (default 8, approximating
	// an out-of-order core with prefetching).
	MSHR int
	// OnCommand, when set, observes every DRAM command the controller
	// issues (protocol validation; see package cmdtrace). Its channel
	// argument is always 0: a run simulates one channel.
	OnCommand func(ch int, cmd memctrl.Cmd)
	// Probe, when set, threads shadowscope instrumentation through the
	// memory controller, the device, and the mitigation schemes. Nil
	// disables all observation.
	Probe *obs.Probe
	// Spans, when set, threads shadowtap request-lifecycle tracing through
	// the controller and device: every request gets a span with
	// conservation-exact stall-cause attribution. Nil disables span
	// tracking entirely.
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
	// Device is the simulated rank, available for post-run inspection
	// (mapping state, row contents, flip records). Run always sets it. A
	// baseline cached by the experiment harness (internal/exp) carries
	// none: it keeps only the statistics above, which is all a scheme
	// point normalizes against.
	Device *dram.Device
	// Wakeups and Steps count the simulator's own work over the whole run,
	// warm-up included: event-wheel wakeups and Controller.Step calls.
	Wakeups, Steps int64
}

// core is the per-core replay state.
type core struct {
	gen         trace.Generator
	nextIssueAt timing.Tick
	pending     trace.Event
	outstanding int
	insts       int64
	stalled     bool
	// returns holds the data-return instants of the core's completed,
	// unretired requests (at most MSHR); replay retires those due.
	returns []timing.Tick
	// backoff marks a pending request rejected by a full bank queue;
	// backoffAt is the first rejected attempt, reported to the request's
	// span as queue-full backpressure once it finally enqueues.
	backoff   bool
	backoffAt timing.Tick
}

// coreGroup is the number of cores one runner.groupMin entry summarizes.
const coreGroup = 8

// runner holds the hot-loop state of one simulation. The per-iteration work
// lives in tick() — factored out of Run so the allocation regression test
// can pump a steady-state runner directly and pin the loop to 0 allocs.
type runner struct {
	cfg   *Config
	cores []*core
	ctl   *memctrl.Controller
	dev   *dram.Device

	// Event-wheel state (see tick).
	// coreAt holds each core's next issue time; for a core stalled on its
	// MSHRs, the later of that and its earliest pending return (Forever
	// until one of its requests completes); and Forever for a core parked
	// on a full queue (rearm restores it). It sits in one contiguous array
	// so the wheel's per-wakeup scan never touches a core that is not due.
	// groupMin[g] is exactly the minimum of coreAt over cores
	// [g*coreGroup, (g+1)*coreGroup), and coreMin exactly min(coreAt), both
	// kept at every write to coreAt, so a wakeup with no core due skips the
	// walk altogether and the walk skips every group with no core due.
	coreAt   []timing.Tick
	groupMin []timing.Tick
	coreMin  timing.Tick

	// Queue-full parking (see tick): a core whose request found its
	// bank queue full waits with coreAt Forever on that bank's list instead
	// of polling. parkHead[bank] heads the list of cores parked on the
	// bank, threaded through parkLink (-1 ends a list).
	parkHead []int
	parkLink []int

	// freeReqs recycles Request objects. A request is recyclable as soon as
	// its column command issues (OnComplete): the controller has dequeued it
	// and the simulator keeps only its return instant. Live requests are
	// bounded by cores×MSHR, so the pre-filled slab makes the steady-state
	// issue path allocation-free. Recycled requests are reset by whole-struct
	// assignment, clearing stale Span pointers before reuse.
	freeReqs []*memctrl.Request
	reqSlab  []memctrl.Request

	instCount *obs.Counter
	progEvery timing.Tick
	nextProg  timing.Tick
	now       timing.Tick

	wakeups, steps int64
}

// checkBanks rejects a geometry with more banks than one controller
// drives, before memctrl.New would panic on it.
func checkBanks(g dram.Geometry) error {
	if g.Banks > memctrl.MaxBanks {
		return fmt.Errorf("sim: %d banks; a rank has at most %d", g.Banks, memctrl.MaxBanks)
	}
	return nil
}

// newRunner validates cfg, applies defaults, and builds the cores, the
// controller, the device, and the recycling pools for one run. Split from
// Run so the allocation regression test can pump a steady-state runner's
// tick() under testing.AllocsPerRun.
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
	if cfg.MSHR <= 0 {
		cfg.MSHR = 8
	}
	if cfg.Warmup >= cfg.Duration {
		return nil, fmt.Errorf("sim: warmup %v must be below duration %v", cfg.Warmup, cfg.Duration)
	}

	cores := make([]*core, len(cfg.Workload))
	for i, g := range cfg.Workload {
		cores[i] = &core{gen: g, returns: make([]timing.Tick, 0, cfg.MSHR)}
		cores[i].fetch(0)
	}

	r := &runner{cfg: &cfg, cores: cores}
	r.reqSlab = make([]memctrl.Request, len(cores)*cfg.MSHR)
	r.freeReqs = make([]*memctrl.Request, 0, len(r.reqSlab))
	for i := range r.reqSlab {
		r.freeReqs = append(r.freeReqs, &r.reqSlab[i])
	}
	r.parkHead = make([]int, cfg.Geometry.Banks)
	for i := range r.parkHead {
		r.parkHead[i] = -1
	}
	r.parkLink = make([]int, len(cores))

	if cfg.Probe != nil {
		if ps, ok := cfg.DeviceMit.(probeSetter); ok {
			ps.SetProbe(cfg.Probe)
		}
		if ps, ok := cfg.MCSide.(probeSetter); ok {
			ps.SetProbe(cfg.Probe)
		}
	}
	spanTr := cfg.Spans.Tracker(cfg.Geometry.Banks, cfg.Probe)
	dev, err := dram.NewDevice(dram.Config{
		Geometry:  cfg.Geometry,
		Params:    cfg.Params,
		Hammer:    cfg.Hammer,
		Mitigator: cfg.DeviceMit,
		Probe:     cfg.Probe,
		Spans:     spanTr,
	})
	if err != nil {
		return nil, err
	}
	var onCmd func(memctrl.Cmd)
	if cfg.OnCommand != nil {
		onCmd = func(c memctrl.Cmd) { cfg.OnCommand(0, c) }
	}
	// The completed request's return instant goes to its core, which a
	// stalled core then wakes at; the request goes straight back on the free
	// list, and its dequeue frees a slot for the cores parked on its bank.
	onComplete := func(req *memctrl.Request) {
		c := r.cores[req.Core]
		c.returns = append(c.returns, req.Done)
		if c.stalled {
			r.lowerCoreAt(req.Core, max(c.nextIssueAt, req.Done))
		}
		r.freeReqs = append(r.freeReqs, req)
		r.rearm(req.Bank, r.now)
	}
	r.dev = dev
	r.ctl = memctrl.New(dev, memctrl.Options{
		MCSide:     cfg.MCSide,
		RFMFilter:  cfg.RFMFilter,
		OnComplete: onComplete,
		OnCommand:  onCmd,
		Probe:      cfg.Probe,
		Spans:      spanTr,
	})
	r.coreAt = make([]timing.Tick, len(cores))
	for i := range r.coreAt {
		r.coreAt[i] = timing.Forever
	}
	r.groupMin = make([]timing.Tick, (len(cores)+coreGroup-1)/coreGroup)
	for g := range r.groupMin {
		r.groupMin[g] = timing.Forever
	}
	r.coreMin = timing.Forever
	for i, c := range cores {
		r.lowerCoreAt(i, c.nextIssueAt)
	}

	r.instCount = cfg.Probe.Counter("sim/insts")
	for _, c := range cores {
		r.instCount.Add(c.insts) // each core's first fetch, taken above
	}
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

	warming := rcfg.Warmup > 0
	for r.now < rcfg.Duration {
		if warming && r.now >= rcfg.Warmup {
			// Start the measurement window: zero every count Result reports.
			warming = false
			for _, c := range r.cores {
				c.insts = 0
			}
			r.ctl.RestartStats()
			r.dev.RestartStats()
			r.instCount.Reset()
		}
		r.tick()
	}

	measured := rcfg.Duration - rcfg.Warmup
	dev := r.dev.TotalStats()
	res := &Result{
		Duration: measured,
		Insts:    make([]int64, len(r.cores)),
		IPC:      make([]float64, len(r.cores)),
		MC:       r.ctl.Stats,
		Dev:      dev,
		Flips:    int(dev.Flips),
		Device:   r.dev,
		Wakeups:  r.wakeups,
		Steps:    r.steps,
	}
	for i, c := range r.cores {
		res.Insts[i] = c.insts
		res.IPC[i] = float64(res.Insts[i]) / measured.Nanoseconds()
	}
	return res, nil
}

// tick runs one wakeup of the event wheel: let due cores retire their
// returns and issue, step the controller if it can act, and jump to the
// earliest future event. Allocation-free in steady state. It touches only
// the state that can act at this instant:
//
//   - cores are walked through their dense next-issue-time array, so only
//     due cores touch their replay state, only at a wakeup where some core
//     is due (coreMin), and only in groups of cores where one is due
//     (groupMin);
//   - a completion wakes the wheel only for a core stalled on its MSHRs:
//     any other core retires its returns in its own replay, the only reader
//     of its outstanding count (DESIGN.md §10, part 4);
//   - a core whose request met a full bank queue retries on a 4 tCK grid
//     from its first rejection, but parks on the bank and wakes only at the
//     first grid point after a dequeue from it (DESIGN.md §10, part 5);
//   - the controller is stepped only when its bound (NextAt: its last Step
//     return, lowered by each Enqueue to what the new request can change)
//     has arrived — a skipped Step is a pure no-op, spans or not
//     (DESIGN.md §10);
//   - advance() jumps straight to the minimum bound.
func (r *runner) tick() {
	now := r.now
	r.wakeups++

	// 1. Let the due cores issue. With none due the walk would change
	// nothing, so it is skipped.
	if r.coreMin <= now {
		r.walkCores(now)
	}

	// 2. Step the controller until its bound passes now.
	for r.ctl.NextAt() <= now {
		r.ctl.Step(now)
		r.steps++
	}

	// 3. Jump to the wheel's bound. coreMin includes the retries re-armed and
	// the stalled cores woken by this wakeup's completions.
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

// replay retires due core id's returns, issues its requests until it
// stalls on its MSHRs, parks on a full bank queue or runs ahead of now, and
// returns its new coreAt (see runner.coreAt).
func (r *runner) replay(id int, now timing.Tick) timing.Tick {
	cfg := r.cfg
	c := r.cores[id]
	earliest := timing.Forever // the earliest return still pending
	for i := 0; i < len(c.returns); {
		if at := c.returns[i]; at > now {
			earliest = min(earliest, at)
			i++
			continue
		}
		c.outstanding--
		c.returns[i] = c.returns[len(c.returns)-1]
		c.returns = c.returns[:len(c.returns)-1]
	}
	c.stalled = false
	parked := false
	for c.nextIssueAt <= now {
		if c.outstanding >= cfg.MSHR {
			c.stalled = true
			break
		}
		// Whole-struct reset: a recycled request must not leak its old
		// Span pointer into this one.
		req := r.getReq()
		*req = memctrl.Request{
			Core:   id,
			Bank:   c.pending.Bank,
			Row:    c.pending.Row,
			Col:    c.pending.Col,
			Write:  c.pending.Write,
			Arrive: now,
		}
		if !r.ctl.Enqueue(req) {
			// Bank queue full: the core's next retry is 4 tCK away, but it
			// parks on the bank until a dequeue re-arms it. A failed
			// enqueue mutates nothing, so the controller stays clean.
			r.freeReqs = append(r.freeReqs, req) //shadowvet:ignore allocflow -- slab return: freeReqs capacity came from the pops that emptied it
			if !c.backoff {
				c.backoff, c.backoffAt = true, now
			}
			c.nextIssueAt = now + cfg.Params.TCK*4
			r.park(id, req.Bank)
			parked = true
			break
		}
		if c.backoff {
			req.Span.NoteBackpressure(c.backoffAt)
			c.backoff = false
		}
		c.outstanding++
		c.fetch(now)
		r.instCount.Add(int64(c.pending.Gap))
	}
	at := c.nextIssueAt
	switch {
	case parked:
		at = timing.Forever
	case c.stalled:
		at = max(at, earliest)
	}
	r.coreAt[id] = at
	return at
}

// lowerCoreAt moves core id's wheel key down to at, if at is earlier, and
// its group's minimum and coreMin with it.
func (r *runner) lowerCoreAt(id int, at timing.Tick) {
	if at >= r.coreAt[id] {
		return
	}
	r.coreAt[id] = at
	if g := id / coreGroup; at < r.groupMin[g] {
		r.groupMin[g] = at
	}
	if at < r.coreMin {
		r.coreMin = at
	}
}

// park holds core id on bank's full queue: the core stays out of the wheel
// (coreAt Forever) until rearm puts it back on its retry grid.
func (r *runner) park(id, bank int) {
	r.parkLink[id] = r.parkHead[bank]
	r.parkHead[bank] = id
}

// rearm returns every core parked on bank to the wheel, at the
// first point of its retry grid strictly after now. It runs from OnComplete,
// whose column command just dequeued a request from the bank. A retry at now
// would run in the core phase, before this Step, and meet the full queue, as
// a retry at every earlier grid point would, since only a dequeue shrinks a
// queue. So the first retry that can succeed is the first one after now, and
// the skipped grid points are retries that would have failed.
func (r *runner) rearm(bank int, now timing.Tick) {
	backoff := r.cfg.Params.TCK * 4
	for id := r.parkHead[bank]; id >= 0; id = r.parkLink[id] {
		c := r.cores[id]
		if c.nextIssueAt <= now {
			c.nextIssueAt += ((now-c.nextIssueAt)/backoff + 1) * backoff
		}
		r.lowerCoreAt(id, c.nextIssueAt)
	}
	r.parkHead[bank] = -1
}

// advance moves simulated time to the wheel's sound lower bound on the next
// actionable event: the minimum of the controller's bound and the earliest
// core key (coreMin), which covers the stalled cores' returns. A bound at or
// before now moves the wheel on by one tCK, so it never spins at an instant.
func (r *runner) advance(now timing.Tick) {
	next := min(r.coreMin, r.ctl.NextAt())
	if next <= now {
		next = now + r.cfg.Params.TCK
	}
	r.now = next
	r.noteProgress()
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

// instPerNS is each core's peak retirement rate (instructions per
// nanosecond); 4.0 models a ~3 GHz out-of-order core.
const instPerNS = 4.0

// fetch loads the core's next trace event and schedules its issue time after
// the event's instruction gap.
func (c *core) fetch(now timing.Tick) {
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
