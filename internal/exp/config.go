// Package exp is the experiment harness: one entry point per table and
// figure of the paper's evaluation (Table II, Table III, Figures 8-12, and
// the Section VII-C adversarial bounds), built on the simulator, the
// security analytics, the circuit model, and the power model.
//
// Scheme configuration policy (documented here because every figure depends
// on it):
//
//   - SHADOW uses the secure RAAIMT of Table II for each H_cnt (2K:32,
//     4K:64, 8K:128, 16K:256), computed by security.SecureRAAIMT.
//   - PARFM needs roughly twice SHADOW's RFM rate for equal protection
//     because TRR leaves the aggressor in place (it keeps hammering from the
//     same location between samples), so RAAIMT_PARFM = RAAIMT_SHADOW / 2.
//   - Mithril-perf uses a large (10 KB/bank-class) tracker, which permits a
//     high RAAIMT = H_cnt/8; Mithril-area pins RAAIMT = 32 with a small
//     table, exactly the paper's two configurations.
//   - TRR-based schemes (PARFM, Mithril) degrade with the blast radius:
//     the per-RFM TRR must refresh 2*blast victims (multiple tRFM slots when
//     they no longer fit) and the effective per-aggressor budget shrinks by
//     W_sum/2, so their RAAIMT scales by 2/W_sum. SHADOW's RAAIMT is blast-
//     independent: the shuffle relocates the aggressor, protecting every row
//     in the blast radius at once (Section III-A).
//   - BlockHammer blacklists at half the blast-adjusted threshold and
//     throttles to spread the remaining budget over the refresh window;
//     RRS swaps at H_cnt/6 (the paper's favorable configuration) with a 4 us
//     channel-blocking swap.
//
// Short horizons: window-relative thresholds are not scaled to the run's
// length. BlockHammer's blacklist and RRS's swap threshold keep the values
// above, over the grade's full tREFW: RRS resets its tracker once per
// tREFW, and BlockHammer rotates its filters every tREFW/2.
// Full refresh windows (32 ms) are too long for test and benchmark budgets,
// and a horizon far below tREFW ends before any hot row crosses those
// thresholds, hiding the schemes' cost; so Fig11 warms the trackers through
// RunOpts.Warmup (1 ms unless set) and measures at least 500 us. Point.Build
// takes the run's duration but does not use it.
package exp

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"shadow/internal/circuit"
	"shadow/internal/dram"
	"shadow/internal/hammer"
	"shadow/internal/memctrl"
	"shadow/internal/mitigate"
	"shadow/internal/obs"
	"shadow/internal/obs/flight"
	"shadow/internal/obs/span"
	"shadow/internal/security"
	"shadow/internal/shadow"
	"shadow/internal/sim"
	"shadow/internal/timing"
	"shadow/internal/trace"
)

// Scheme identifies a mitigation configuration.
type Scheme string

// The schemes of the paper's evaluation.
const (
	Baseline    Scheme = "baseline"
	Shadow      Scheme = "shadow"
	PARFM       Scheme = "parfm"
	MithrilPerf Scheme = "mithril-perf"
	MithrilArea Scheme = "mithril-area"
	DRR         Scheme = "drr"
	BlockHammer Scheme = "blockhammer"
	RRS         Scheme = "rrs"
)

// AllSchemes lists every non-baseline scheme: the Figure 8 set, then the
// Figure 11 MC-side set.
var AllSchemes = []Scheme{Shadow, PARFM, MithrilPerf, MithrilArea, DRR, BlockHammer, RRS}

// ShadowRAAIMT returns SHADOW's secure RFM threshold for an H_cnt. At
// H_cnt 300 and below no RAAIMT in [8, 4096] is secure (security.SecureRAAIMT
// returns 0), and ShadowRAAIMT falls back to 8, the most frequent RFM
// searched, without saying so: a point built there runs SHADOW, and PARFM
// derived from it, at an insecure threshold. Callers that report to a user
// check security.SecureRAAIMT themselves.
func ShadowRAAIMT(hcnt int) int {
	if r := security.SecureRAAIMT(hcnt); r > 0 {
		return r
	}
	return 8
}

// trrRAAIMT blast-adjusts a TRR scheme's RAAIMT.
func trrRAAIMT(base, blast int) int {
	w := hammer.Config{HCnt: 1, BlastRadius: blast}.WSum()
	r := int(float64(base) * 2 / w)
	if r < 8 {
		r = 8
	}
	return r
}

// trrRFMSlots returns how many tRFM slots one TRR mitigation needs: 2*blast
// victim refreshes at tRAS+tRP each must fit in tRFM.
func trrRFMSlots(p *timing.Params, blast int) int {
	need := timing.Tick(2*blast) * (p.RAS + p.RP)
	slots := int((need + p.RFM - 1) / p.RFM)
	if slots < 1 {
		slots = 1
	}
	return slots
}

// Point is one experiment operating point.
type Point struct {
	Scheme Scheme
	HCnt   int
	Blast  int
	Grade  timing.Grade
	// TRCDCycles overrides SHADOW's effective tRCD in clock cycles (Fig. 9
	// sensitivity study); 0 uses the circuit model's value.
	TRCDCycles int
	Seed       uint64
}

// Build assembles the timing parameters and mitigators for a point. The
// duration is unused: no threshold is scaled to the run's length (see the
// package doc).
func (pt Point) Build(geo dram.Geometry, duration timing.Tick) (*timing.Params, dram.Mitigator, mitigate.MCSide) {
	base := timing.NewParams(pt.Grade)
	blast := pt.Blast
	if blast == 0 {
		blast = 3
	}
	_ = duration

	switch pt.Scheme {
	case Baseline:
		return base, nil, nil

	case Shadow:
		p := base.WithShadow(circuit.DefaultShadowTimings(base)).WithRAAIMT(ShadowRAAIMT(pt.HCnt))
		if pt.TRCDCycles > 0 {
			// Express the sensitivity point as tRCD' = TRCDCycles * tCK.
			p.Shadow.RDRM = p.Cycles(pt.TRCDCycles) - p.RCD
			if p.Shadow.RDRM < 0 {
				p.Shadow.RDRM = 0
			}
		}
		return p, shadow.New(shadow.Options{Seed: pt.Seed + 1}), nil

	case PARFM:
		p := base.WithRAAIMT(trrRAAIMT(ShadowRAAIMT(pt.HCnt)/2, blast))
		p.RFM *= timing.Tick(trrRFMSlots(p, blast))
		return p, mitigate.NewPARFM(blast, pt.Seed+2), nil

	case MithrilPerf:
		raaimt := pt.HCnt / 8
		if raaimt < 8 {
			raaimt = 8
		}
		p := base.WithRAAIMT(trrRAAIMT(raaimt, blast))
		p.RFM *= timing.Tick(trrRFMSlots(p, blast))
		return p, mitigate.NewMithril(2048, blast), nil

	case MithrilArea:
		p := base.WithRAAIMT(trrRAAIMT(32, blast))
		p.RFM *= timing.Tick(trrRFMSlots(p, blast))
		return p, mitigate.NewMithril(256, blast), nil

	case DRR:
		return base.WithRefreshScale(2), nil, nil

	case BlockHammer:
		return base, nil, mitigate.NewBlockHammer(mitigate.BlockHammerConfig{
			Hammer: hammer.Config{HCnt: pt.HCnt, BlastRadius: blast},
			REFW:   base.REFW,
			Seed:   pt.Seed + 3,
		})

	case RRS:
		thr := int64(pt.HCnt / 6)
		if thr < 2 {
			thr = 2
		}
		return base, nil, mitigate.NewRRS(mitigate.RRSConfig{
			SwapThreshold: thr,
			RowsPerBank:   geo.PARowsPerBank(),
			REFW:          base.REFW,
			Seed:          pt.Seed + 4,
		})
	}
	panic(fmt.Sprintf("exp: unknown scheme %q", pt.Scheme))
}

// RunOpts controls the simulation scale of the figure experiments. Zero
// values take the defaults below — sized so the full suite regenerates in
// minutes; raise Duration toward tREFW (32 ms) for full-fidelity runs.
type RunOpts struct {
	Duration timing.Tick // default 150 us
	// Warmup runs (and discards) this much simulated time before Duration,
	// letting tracker/filter state reach steady state. Fig11 defaults it to
	// 1 ms when unset.
	Warmup timing.Tick
	Cores  int // default 4 (one channel's share of the 14-core mixes)
	Seed   uint64
	// Subarrays shrinks per-bank subarray count to bound memory (default 16).
	Subarrays int
	// Workers bounds the number of operating points simulated concurrently
	// (default GOMAXPROCS; forced to 1 when ProbeFor is set).
	Workers int
	// ProbeFor, when set, supplies a shadowscope probe for each scheme run,
	// keyed by a "<scheme>/<workloads>/h<hcnt>" label. Baseline runs are
	// never probed (they are shared through the cache and must stay
	// unperturbed). Setting it forces Workers=1: a Recorder is not safe for
	// concurrent use.
	ProbeFor func(label string) *obs.Probe
	// SpansFor, when set, supplies a shadowtap span collector for each
	// scheme run, keyed like ProbeFor. Baseline runs are never span-tracked.
	// Setting it forces Workers=1 (callers typically aggregate the
	// collectors from one goroutine).
	SpansFor func(label string) *span.Collector

	// Fleet hooks (the live inspector, internal/obs/fleet). Unlike ProbeFor /
	// SpansFor these do NOT force Workers=1: the fleet collector
	// synchronizes internally, and WorkerProbe hands each fan-out worker its
	// own recorder, so the sweep keeps its full parallelism while being
	// observed. All hooks may be called concurrently from every worker.
	//
	// OnPointsPlanned announces a sweep's job count before any point runs
	// (fleet progress % and ETA need the denominator; called once per
	// figure sweep, counts accumulate).
	OnPointsPlanned func(n int)
	// OnPointStart fires when a worker picks up an operating point.
	OnPointStart func(worker int, label, scheme string, seed uint64)
	// OnPointProgress receives a worker's progress through its point: the
	// label, the current simulated time, and the point's total horizon.
	OnPointProgress func(worker int, label string, now, total timing.Tick)
	// OnPointDone fires after a point's scheme run completes, carrying the
	// order-sensitive FNV hash of its DRAM command log (the fleet divergence
	// check compares it across workers for same point+seed) and the
	// measured relative performance. Setting it attaches an observation-only
	// sim.Config.OnCommand hook to scheme runs.
	OnPointDone func(worker int, label, scheme string, seed, cmdHash uint64, rel float64)
	// WorkerProbe supplies a per-(worker, point) shadowscope probe; use it
	// instead of ProbeFor when the sweep should stay parallel. The probe's
	// recorder is only ever touched from that worker's goroutine.
	WorkerProbe func(worker int, label string) *obs.Probe

	// workerID is the fan-out worker index running this point, threaded by
	// runJobs through its per-worker RunOpts copy.
	workerID int
}

func (o RunOpts) withDefaults() RunOpts {
	if o.Duration == 0 {
		o.Duration = 150 * timing.Microsecond
	}
	if o.Cores == 0 {
		o.Cores = 4
	}
	if o.Subarrays == 0 {
		o.Subarrays = 16
	}
	if o.Workers == 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.ProbeFor != nil || o.SpansFor != nil {
		o.Workers = 1
	}
	return o
}

func (o RunOpts) Geometry(grade timing.Grade) dram.Geometry {
	g := dram.DefaultGeometry(grade == timing.DDR5_4800)
	if o.Subarrays > 0 {
		g.SubarraysPerBank = o.Subarrays
	} else {
		g.SubarraysPerBank = 16
	}
	return g
}

// runPoint simulates one (scheme, workload) point and its matching baseline,
// returning the normalized weighted speedup.
func runPoint(pt Point, profiles []trace.Profile, o RunOpts) (float64, *sim.Result, error) {
	o = o.withDefaults()
	geo := o.Geometry(pt.Grade)
	clampWS(profiles, geo)

	total := o.Duration + o.Warmup
	baseRes, err := baselineRun(pt.Grade, profiles, geo, o)
	if err != nil {
		return 0, nil, err
	}

	p, dm, mc := pt.Build(geo, o.Duration)
	label := pointLabel(pt, profiles)
	if o.OnPointStart != nil {
		o.OnPointStart(o.workerID, label, string(pt.Scheme), o.Seed)
	}
	var probe *obs.Probe
	if o.ProbeFor != nil {
		probe = o.ProbeFor(label)
	} else if o.WorkerProbe != nil {
		probe = o.WorkerProbe(o.workerID, label)
	}
	var spans *span.Collector
	if o.SpansFor != nil {
		spans = o.SpansFor(label)
	}
	var progress func(timing.Tick)
	if o.OnPointProgress != nil {
		progress = func(now timing.Tick) { o.OnPointProgress(o.workerID, label, now, total) }
	}
	var cmdHash *flight.CmdHash
	var onCommand func(ch int, cmd memctrl.Cmd)
	if o.OnPointDone != nil {
		cmdHash = flight.NewCmdHash()
		onCommand = func(ch int, cmd memctrl.Cmd) {
			cmdHash.Note(int(cmd.Kind), cmd.Bank, cmd.Row, cmd.At)
		}
	}
	res, err := sim.Run(sim.Config{
		Params: p, Geometry: geo, DeviceMit: dm, MCSide: mc,
		Hammer:    hammer.Config{HCnt: 1 << 30, BlastRadius: 3},
		Workload:  trace.Generators(profiles, geo, o.Seed),
		Duration:  total,
		Warmup:    o.Warmup,
		Probe:     probe,
		Spans:     spans,
		Progress:  progress,
		OnCommand: onCommand,
	})
	if err != nil {
		return 0, nil, err
	}
	ws := sim.WeightedSpeedup(res, baseRes)
	if o.OnPointDone != nil {
		o.OnPointDone(o.workerID, label, string(pt.Scheme), o.Seed, cmdHash.Sum(), ws)
	}
	return ws, res, nil
}

// pointLabel names a scheme run's shadowscope track. The label must be
// injective over the point's configuration: the fleet divergence check
// compares command hashes of completions sharing a (label, seed) key, so
// two differently-configured points with one label would falsely fail it
// (Fig. 9 varies tRCD, Fig. 10 blast radius, Fig. 11 the DRAM grade, all
// at a fixed scheme/workload/H_cnt). Non-default fields append suffixes
// so the common case keeps the short scheme/workload/hNNNN form.
func pointLabel(pt Point, profiles []trace.Profile) string {
	names := ""
	for i, p := range profiles {
		if i > 0 {
			names += "+"
		}
		names += p.Name
	}
	label := fmt.Sprintf("%s/%s/h%d", pt.Scheme, names, pt.HCnt)
	if pt.Blast != 0 {
		label += fmt.Sprintf("/b%d", pt.Blast)
	}
	if pt.TRCDCycles != 0 {
		label += fmt.Sprintf("/trcd%d", pt.TRCDCycles)
	}
	if pt.Grade != timing.DDR4_2666 {
		label += "/" + pt.Grade.String()
	}
	return label
}

// clampWS bounds working sets to the geometry.
func clampWS(profiles []trace.Profile, g dram.Geometry) {
	for i := range profiles {
		if profiles[i].WorkingSetRows > g.PARowsPerBank() {
			profiles[i].WorkingSetRows = g.PARowsPerBank()
		}
	}
}

// RunPoint simulates one (scheme, workload) operating point and its
// matching no-mitigation baseline, returning the normalized weighted speedup
// and the scheme run's full result.
func RunPoint(pt Point, profiles []trace.Profile, o RunOpts) (float64, *sim.Result, error) {
	return runPoint(pt, profiles, o)
}

// baselineCache memoizes no-mitigation runs: every scheme point of a figure
// shares its baseline. Each key owns one entry whose sync.Once runs the
// simulation, so distinct baselines run concurrently, a scheme point waits
// only on its own key, and no key is simulated twice. baselineMu guards
// only the map.
var (
	baselineMu    sync.Mutex
	baselineCache = map[string]*baselineEntry{}
)

// baselineEntry is one cached baseline. res and err are written inside once
// and read only after it. An error is cached like a result: the simulation
// is deterministic, so running it again would fail the same way. res keeps
// the run's statistics but not its device (Device is nil): a scheme
// point reads only the baseline's IPC, and a cached device would
// keep every subarray's state live for the whole process.
type baselineEntry struct {
	once sync.Once
	res  *sim.Result
	err  error
	// runs counts the simulations of this key: 1 once it has run.
	runs int
}

func baselineRun(grade timing.Grade, profiles []trace.Profile, geo dram.Geometry, o RunOpts) (*sim.Result, error) {
	key := fmt.Sprintf("%v/%d/%d/%d/%d/%d", grade, o.Duration, o.Warmup, o.Cores, o.Seed, o.Subarrays)
	for _, p := range profiles {
		key += "," + p.Name
	}
	baselineMu.Lock()
	e, ok := baselineCache[key]
	if !ok {
		e = &baselineEntry{}
		baselineCache[key] = e
	}
	baselineMu.Unlock()
	e.once.Do(func() {
		e.runs++
		e.res, e.err = sim.Run(sim.Config{
			Params: timing.NewParams(grade), Geometry: geo,
			Hammer:   hammer.Config{HCnt: 1 << 30, BlastRadius: 3},
			Workload: trace.Generators(profiles, geo, o.Seed),
			Duration: o.Duration + o.Warmup,
			Warmup:   o.Warmup,
		})
		if e.err == nil {
			e.res.Device = nil
		}
	})
	return e.res, e.err
}

// parallelEach runs f(worker, i) for i in [0, n) on up to workers
// goroutines and returns the first error. Experiment figures use it to
// sweep operating points concurrently; each point's simulation is
// independent (the shared baseline cache is internally synchronized). The
// worker index identifies the goroutine running the item — stable across
// the call, in [0, workers) — so per-worker state (fleet identity,
// per-worker recorders) needs no further synchronization. The sequential
// path runs everything as worker 0.
func parallelEach(n, workers int, f func(worker, i int) error) error {
	if workers <= 1 || n <= 1 {
		for i := 0; i < n; i++ {
			if err := f(0, i); err != nil {
				return err
			}
		}
		return nil
	}
	if workers > n {
		workers = n
	}
	var (
		wg    sync.WaitGroup
		next  int64
		errMu sync.Mutex
		first error
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			for {
				i := int(atomic.AddInt64(&next, 1)) - 1
				if i >= n {
					return
				}
				if err := f(worker, i); err != nil {
					errMu.Lock()
					if first == nil {
						first = err
					}
					errMu.Unlock()
					return
				}
			}
		}(w)
	}
	wg.Wait()
	return first
}
