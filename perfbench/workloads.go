package main

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"shadow/internal/dram"
	"shadow/internal/exp"
	"shadow/internal/hammer"
	"shadow/internal/memctrl"
	"shadow/internal/mitigate"
	"shadow/internal/obs/flight"
	"shadow/internal/security"
	"shadow/internal/shadow"
	"shadow/internal/sim"
	"shadow/internal/timing"
	"shadow/internal/trace"
)

// Every workload runs DDR4-2666 with blast radius 3 on an 8-subarray bank
// geometry, so the tracker and remap state it builds stays small.
const (
	grade     = timing.DDR4_2666
	blast     = 3
	subarrays = 8
)

// Work per repetition. Each size keeps one repetition near a second of host
// time on a 2-CPU machine, so a 10 s run holds enough fresh-process
// repetitions for a steady median.
const (
	fig8Duration    = 150 * timing.Microsecond
	fig8Workers     = 2
	mixHighDuration = 1 * timing.Millisecond
	mixLowDuration  = 3 * timing.Millisecond
	attackMaxActs   = 1_000_000
	// attackHorizon is long enough that MaxActs, not time, ends the attack
	// (one tREFW holds only about 550k closed-page ACTs).
	attackHorizon = 100 * timing.Millisecond
)

// fig8Schemes are the scheme points Figure 8 sweeps, in its column order.
var fig8Schemes = []exp.Scheme{exp.Shadow, exp.PARFM, exp.MithrilPerf, exp.MithrilArea, exp.DRR}

// Figure 8 sweeps 7 workloads. Each gets one baseline simulation and one
// checked point per scheme.
const (
	fig8Workloads = 7
	fig8Points    = fig8Workloads * 5
	fig8Runs      = fig8Workloads * 6
)

func geometry() dram.Geometry {
	return exp.RunOpts{Subarrays: subarrays}.Geometry(grade)
}

// pointOutput is the checked output of one simulated point. Fields a
// workload cannot observe stay empty and are skipped by match: a fig8 point
// carries only its Rel and command hash, since exp reports no more.
type pointOutput struct {
	Name    string         `json:"name"`
	Rel     float64        `json:"rel,omitempty"`
	CmdHash string         `json:"cmd_hash,omitempty"`
	Stats   *memctrl.Stats `json:"stats,omitempty"`
	Insts   []int64        `json:"insts,omitempty"`
	Flips   *int           `json:"flips,omitempty"`
	// Attack-only: activations issued, simulated end time, and an FNV hash
	// of the attacked bank's final SHADOW remapping tables.
	Acts    int64  `json:"acts,omitempty"`
	Elapsed int64  `json:"elapsed,omitempty"`
	MapHash string `json:"map_hash,omitempty"`
	Err     string `json:"err,omitempty"`
}

// match reports whether got reproduces want. A command hash present on only
// one side (untraced hammer-attack has none) is not compared.
func match(want, got pointOutput) bool {
	if want.CmdHash == "" || got.CmdHash == "" {
		want.CmdHash, got.CmdHash = "", ""
	}
	return want.Err == "" && got.Err == "" && equalJSON(want, got)
}

// job is one workload built for one seed: everything set-up produces, ready
// for the timed phase.
type job struct {
	name     string
	seed     uint64
	hcnt     int
	duration timing.Tick
	params   *timing.Params
	mit      dram.Mitigator
	hammer   hammer.Config
	profiles []trace.Profile
	gens     []trace.Generator
	pattern  trace.Pattern
	// secureS is the host time of the first security.SecureRAAIMT call,
	// which Point.Build then finds memoized.
	secureS float64
}

// point returns the SHADOW operating point the workload simulates.
func (j *job) point() exp.Point {
	return exp.Point{Scheme: exp.Shadow, HCnt: j.hcnt, Blast: blast, Grade: grade, Seed: j.seed}
}

// setup builds the workload's inputs from the seed: the SHADOW point (the
// first Point.Build also pays security.SecureRAAIMT) and the generators.
func setup(name string, seed uint64) (*job, error) {
	j := &job{name: name, seed: seed, hcnt: 4096, hammer: hammer.Config{HCnt: 1 << 30, BlastRadius: blast}}
	switch name {
	case "fig8":
		j.duration = fig8Duration
		j.profiles = clamped(trace.MixHigh(4))
	case "mix-high-16c":
		j.duration = mixHighDuration
		j.profiles = clamped(trace.MixHigh(16))
	case "mix-low-64c":
		j.duration = mixLowDuration
		j.profiles = clamped(trace.MixLow(64))
	case "hammer-attack":
		j.hcnt = 2048
		j.hammer = hammer.Config{HCnt: 2048, BlastRadius: blast}
	default:
		return nil, fmt.Errorf("unknown workload %q", name)
	}
	t0 := time.Now()
	security.SecureRAAIMT(j.hcnt)
	j.secureS = time.Since(t0).Seconds()
	var mc mitigate.MCSide
	j.params, j.mit, mc = j.point().Build(geometry(), j.duration)
	if mc != nil {
		return nil, fmt.Errorf("%s: SHADOW point built an MC-side scheme", name)
	}
	if name == "hammer-attack" {
		j.pattern = trace.NewScenarioII(0, 0, 8, geometry(), seed)
	} else {
		j.gens = trace.Generators(j.profiles, geometry(), seed)
	}
	return j, nil
}

// clamped bounds working sets to the 8-subarray geometry, as exp does for
// every figure point.
func clamped(profiles []trace.Profile) []trace.Profile {
	limit := geometry().PARowsPerBank()
	out := append([]trace.Profile(nil), profiles...)
	for i := range out {
		if out[i].WorkingSetRows > limit {
			out[i].WorkingSetRows = limit
		}
	}
	return out
}

// runResult is what the timed phase hands back: the checked outputs and the
// simulated time it covered.
type runResult struct {
	outputs []pointOutput
	simUS   float64
}

// runFig8 regenerates Figure 8 cold with the exp fan-out. OnPointDone is
// attached in every mode so each point carries its command hash; hooks adds
// the traced run's span hooks.
func runFig8(j *job, hooks func(*exp.RunOpts)) (runResult, error) {
	var (
		mu   sync.Mutex
		outs []pointOutput
	)
	o := exp.RunOpts{
		Duration: j.duration, Cores: 4, Seed: j.seed, Subarrays: subarrays, Workers: fig8Workers,
		OnPointDone: func(_ int, label, _ string, _ uint64, cmdHash uint64, rel float64) {
			mu.Lock()
			outs = append(outs, pointOutput{Name: label, Rel: rel, CmdHash: fmt.Sprintf("%016x", cmdHash)})
			mu.Unlock()
		},
	}
	if hooks != nil {
		hooks(&o)
	}
	points, _, err := exp.Fig8(o)
	if err != nil {
		return runResult{}, err
	}
	sort.Slice(outs, func(a, b int) bool { return outs[a].Name < outs[b].Name })
	if len(outs) != len(points) {
		return runResult{}, fmt.Errorf("fig8: %d points reported, %d returned", len(outs), len(points))
	}
	return runResult{outputs: outs, simUS: float64(fig8Runs) * us(j.duration)}, nil
}

// simConfig is the single-point simulation of a trace workload. The command
// hash hook is part of every mode: the hash is the run's primary output.
func (j *job) simConfig(hash *flight.CmdHash) sim.Config {
	return sim.Config{
		Params: j.params, Geometry: geometry(), DeviceMit: j.mit, Hammer: j.hammer,
		Workload: j.gens, Duration: j.duration,
		OnCommand: func(_ int, c memctrl.Cmd) { hash.Note(int(c.Kind), c.Bank, c.Row, c.At) },
	}
}

func runSim(j *job, cfg sim.Config, hash *flight.CmdHash) (runResult, error) {
	res, err := sim.Run(cfg)
	if err != nil {
		return runResult{}, err
	}
	stats := res.MC
	out := pointOutput{
		Name: j.name, CmdHash: fmt.Sprintf("%016x", hash.Sum()),
		Stats: &stats, Insts: res.Insts, Flips: &res.Flips,
	}
	return runResult{outputs: []pointOutput{out}, simUS: us(j.duration)}, nil
}

// attackConfig is the hammer-attack run: closed page, so every access is an
// ACT and every ACT is translated.
func (j *job) attackConfig() sim.AttackConfig {
	return sim.AttackConfig{
		Params: j.params, Geometry: geometry(), Hammer: j.hammer,
		DeviceMit: j.mit, MaxActs: attackMaxActs, Duration: attackHorizon,
	}
}

func runAttack(j *job, cfg sim.AttackConfig, pat trace.Pattern) (runResult, *sim.AttackResult, error) {
	res, err := sim.RunAttack(cfg, pat)
	if err != nil {
		return runResult{}, nil, err
	}
	stats := res.MC
	out := pointOutput{
		Name: j.name, Stats: &stats, Flips: &res.Flips,
		Acts: res.Acts, Elapsed: int64(res.Elapsed),
	}
	return runResult{outputs: []pointOutput{out}, simUS: us(res.Elapsed)}, res, nil
}

// attackState hashes the attacked bank's final remapping tables and checks
// they are still permutations; run after the timed phase.
func attackState(j *job, res *sim.AttackResult, out *pointOutput) error {
	ctl, ok := j.mit.(*shadow.Controller)
	if !ok {
		return fmt.Errorf("hammer-attack: mitigator is %T, not SHADOW", j.mit)
	}
	b := res.Device.Bank(0)
	if err := ctl.CheckInvariants(b); err != nil {
		return err
	}
	h := flight.NewCmdHash()
	for sub := 0; sub < subarrays; sub++ {
		for slot, da := range ctl.MappingOf(b, sub) {
			h.Note(0, sub, slot, timing.Tick(da))
		}
	}
	out.MapHash = fmt.Sprintf("%016x", h.Sum())
	return nil
}

// sanity checks what must hold on any seed, so seeds without recorded
// outputs are still checked beyond run-to-run agreement.
func sanity(j *job, out pointOutput) error {
	switch j.name {
	case "fig8":
		if out.Rel <= 0.5 || out.Rel > 1.05 {
			return fmt.Errorf("%s: relative performance %v outside (0.5, 1.05]", out.Name, out.Rel)
		}
	case "hammer-attack":
		raaimt := int64(j.params.RAAIMT)
		switch {
		case out.Flips == nil || *out.Flips != 0:
			return fmt.Errorf("SHADOW at RAAIMT %d let bits flip: %v", raaimt, mustJSON(out.Flips))
		case out.Acts != attackMaxActs:
			return fmt.Errorf("attack issued %d ACTs, want %d", out.Acts, attackMaxActs)
		case out.Stats.RFMs*raaimt < out.Acts*99/100:
			return fmt.Errorf("%d RFMs for %d ACTs at RAAIMT %d", out.Stats.RFMs, out.Acts, raaimt)
		}
	default:
		var insts int64
		for _, n := range out.Insts {
			insts += n
		}
		switch {
		case out.Flips == nil || *out.Flips != 0:
			return fmt.Errorf("flips with the hammer threshold disabled: %v", mustJSON(out.Flips))
		case out.Stats.Acts == 0 || out.Stats.Reads == 0 || out.Stats.RFMs == 0:
			return fmt.Errorf("idle run: %+v", *out.Stats)
		case insts == 0:
			return fmt.Errorf("no instructions retired")
		}
	}
	return nil
}

func us(t timing.Tick) float64 { return float64(t) / float64(timing.Microsecond) }
