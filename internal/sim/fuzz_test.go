package sim

import (
	"reflect"
	"testing"

	"shadow/internal/cmdtrace"
	"shadow/internal/dram"
	"shadow/internal/hammer"
	"shadow/internal/memctrl"
	"shadow/internal/obs/span"
	"shadow/internal/shadow"
	"shadow/internal/timing"
	"shadow/internal/trace"
)

// fuzzInput is one decoded FuzzSimulation input, without its seed.
type fuzzInput struct {
	scheme    int // index into equivSchemes
	ddr5      bool
	subarrays int // per bank, 1-16
	radius    int // blast radius, 1-3
	hcnt      int // H_cnt, 64-8192
	cores     int // 1-16; trace runs only
	// workload indexes fuzzMixes, then fuzzAttacks.
	workload int
	spans    bool // trace runs only
}

// fuzzMixes are the trace mixes a trace run replays, one profile per core.
var fuzzMixes = []func(cores int, seed uint64) []trace.Profile{
	func(n int, _ uint64) []trace.Profile { return trace.MixHigh(n) },
	func(n int, _ uint64) []trace.Profile { return trace.MixLow(n) },
	func(n int, _ uint64) []trace.Profile { return trace.MixBlend(n) },
	trace.MixRandom,
}

// fuzzAttacks are the patterns an attack run mounts against one bank,
// around one victim row at least two rows from either end of the bank.
var fuzzAttacks = []func(bank, victim int, p *timing.Params, g dram.Geometry, seed uint64) trace.Pattern{
	func(bank, victim int, _ *timing.Params, _ dram.Geometry, _ uint64) trace.Pattern {
		return &trace.SingleSided{Bank: bank, Row: victim}
	},
	func(bank, victim int, _ *timing.Params, _ dram.Geometry, _ uint64) trace.Pattern {
		return &trace.DoubleSided{Bank: bank, Victim: victim}
	},
	func(bank, victim int, _ *timing.Params, _ dram.Geometry, _ uint64) trace.Pattern {
		return &trace.HalfDouble{Bank: bank, Victim: victim}
	},
	func(bank, victim int, p *timing.Params, g dram.Geometry, seed uint64) trace.Pattern {
		raaimt := p.RAAIMT
		if raaimt == 0 {
			raaimt = 64
		}
		sub, _ := g.SubarrayOf(victim)
		return trace.NewScenarioI(bank, sub, raaimt, g, seed)
	},
	func(bank, _ int, _ *timing.Params, g dram.Geometry, seed uint64) trace.Pattern {
		return trace.NewScenarioIII(bank, 8, g, seed)
	},
}

const (
	// fuzzDuration is a trace run's horizon: a few refresh intervals.
	fuzzDuration = 40 * timing.Microsecond
	// fuzzActs is an attack run's length in activations.
	fuzzActs = 2048
)

// fold maps v onto [lo, hi]; values already in range map to themselves, so
// corpus entries read as the values they select.
func fold(v, lo, hi int) int {
	n := hi - lo + 1
	return lo + ((v-lo)%n+n)%n
}

// FuzzSimulation runs generated whole simulations, each input twice with the
// same seed. An input picks a scheme of the scheduler-equivalence matrix, a
// speed grade, the subarray count, the blast radius, H_cnt, the core count,
// a seed, and either a trace mix (optionally with span tracking) or an
// attack pattern. The oracles:
//   - the two runs agree on every statistic, IPC, flip record, the scrub
//     report and the command hash: a run is a pure function of its seed, so
//     no wall-clock read, global math/rand use, map-order fold or scheduler
//     choice reaches the simulation through any call path;
//   - cmdtrace, the independent JEDEC checker, finds no violation in a trace
//     run's command stream;
//   - every SHADOW remapping table is still a permutation;
//   - span stall attribution is conserved wherever spans are attached;
//   - two trace runs of the same input at different seeds issue different
//     commands, so the same-seed equality is not vacuous. The corpus holds
//     such pairs; the check compares each trace run with the last trace run
//     of the same input in this process.
//
// The seed corpus runs in go test; long fuzzing is manual (make fuzz).
func FuzzSimulation(f *testing.F) {
	type entry struct {
		scheme                                   string
		ddr5                                     bool
		subarrays, radius, hcnt, cores, workload int
		spans                                    bool
		seed                                     uint64
	}
	// Workloads index fuzzMixes, then fuzzAttacks.
	const (
		mixHigh, mixLow, mixBlend, mixRandom = 0, 1, 2, 3
		singleSided, doubleSided, halfDouble = 4, 5, 6
		scenarioI, scenarioIII               = 7, 8
	)
	corpus := []entry{
		// The first two differ only in their seed.
		{"shadow", false, 8, 3, 4096, 4, mixHigh, false, 1},
		{"shadow", false, 8, 3, 4096, 4, mixHigh, false, 2},
		{"shadow", true, 16, 2, 1024, 16, mixHigh, true, 3},
		{"shadow", false, 4, 3, 256, 1, singleSided, false, 5},
		{"shadow-filtered", true, 3, 1, 512, 2, scenarioI, false, 4},
		{"none", false, 4, 2, 64, 1, doubleSided, false, 7},
		{"parfm", true, 1, 1, 2048, 8, mixHigh, true, 8},
		{"mithril", false, 6, 3, 2048, 3, halfDouble, false, 9},
		{"mithril", false, 5, 2, 128, 4, mixHigh, true, 10},
		{"drr", false, 16, 1, 8192, 16, mixLow, false, 11},
		{"blockhammer", true, 8, 3, 512, 12, mixHigh, true, 12},
		{"blockhammer-epoch", false, 4, 3, 64, 16, mixHigh, false, 13},
		{"blockhammer-throttle", false, 8, 2, 256, 4, scenarioIII, false, 14},
		{"rrs", true, 8, 1, 384, 1, doubleSided, false, 15},
		{"parfm", false, 12, 2, 64, 5, mixBlend, true, 16},
		{"shadow", true, 7, 3, 4096, 9, mixRandom, false, 17},
	}
	schemes := equivSchemes(equivHammer, 1) // for the names and the count
	for _, e := range corpus {
		i := 0
		for i < len(schemes) && schemes[i].name != e.scheme {
			i++
		}
		if i == len(schemes) {
			f.Fatalf("corpus names unknown scheme %q", e.scheme)
		}
		f.Add(uint8(i), e.ddr5, uint8(e.subarrays), uint8(e.radius), uint16(e.hcnt), uint8(e.cores), uint8(e.workload), e.spans, e.seed)
	}

	type seeded struct {
		seed uint64
		hash uint64
	}
	last := map[fuzzInput]seeded{}
	f.Fuzz(func(t *testing.T, scheme uint8, ddr5 bool, subarrays, radius uint8, hcnt uint16, cores, workload uint8, spans bool, seed uint64) {
		in := fuzzInput{
			scheme:    int(scheme) % len(schemes),
			ddr5:      ddr5,
			subarrays: fold(int(subarrays), 1, 16),
			radius:    fold(int(radius), 1, 3),
			hcnt:      fold(int(hcnt), 64, 8192),
			cores:     fold(int(cores), 1, 16),
			workload:  int(workload) % (len(fuzzMixes) + len(fuzzAttacks)),
			spans:     spans,
		}
		attack := in.workload >= len(fuzzMixes)
		if attack {
			in.cores, in.spans = 1, false
		}
		a, b := runFuzz(t, in, seed), runFuzz(t, in, seed)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("%+v seed %d: two same-seed runs diverged:\n run A: %+v\n run B: %+v", in, seed, a, b)
		}
		if attack {
			return
		}
		if prev, ok := last[in]; ok && prev.seed != seed && prev.hash == a.CmdHash {
			t.Errorf("%+v: seeds %d and %d issued the same commands (hash %x); the seed reaches nothing", in, prev.seed, seed, a.CmdHash)
		}
		last[in] = seeded{seed, a.CmdHash}
	})
}

// runFuzz runs one FuzzSimulation input at seed, checks the per-run oracles,
// and returns the run's view.
func runFuzz(t *testing.T, in fuzzInput, seed uint64) equivView {
	t.Helper()
	h := hammer.Config{HCnt: in.hcnt, BlastRadius: in.radius}
	g := dram.DefaultGeometry(in.ddr5)
	g.SubarraysPerBank = in.subarrays
	sc := equivSchemes(h, g.PARowsPerBank())[in.scheme]
	grade := timing.DDR4_2666
	if in.ddr5 {
		grade = timing.DDR5_4800
	}
	cfg := Config{Params: sc.params(timing.NewParams(grade)), Geometry: g, Hammer: h}
	sc.build(&cfg, seed)

	if in.workload >= len(fuzzMixes) {
		bank := int(seed % uint64(g.Banks))
		victim := 2 + int(seed>>8%uint64(g.PARowsPerBank()-4))
		pat := fuzzAttacks[in.workload-len(fuzzMixes)](bank, victim, cfg.Params, g, seed)
		v, res := attackRun(t, sc.name, AttackConfig{
			Params:    cfg.Params,
			Geometry:  g,
			Hammer:    h,
			DeviceMit: cfg.DeviceMit,
			MCSide:    cfg.MCSide,
			MaxActs:   fuzzActs,
		}, pat)
		checkRemapTables(t, cfg.DeviceMit, res.Device)
		return v
	}

	cfg.Workload = trace.Generators(fuzzMixes[in.workload](in.cores, seed), g, seed)
	cfg.Duration = fuzzDuration
	if in.spans {
		cfg.Spans = span.NewCollector(4096)
	}
	checker := cmdtrace.New(cfg.Params, g.Banks)
	cfg.OnCommand = func(_ int, cmd memctrl.Cmd) { checker.Observe(cmd) }
	v, res := equivRun(t, sc.name, cfg)
	if err := checker.Err(); err != nil {
		t.Errorf("%+v seed %d: %d of %d commands break the protocol; first: %v", in, seed, len(checker.Violations()), checker.Commands(), err)
	}
	if cfg.Spans != nil {
		if agg := cfg.Spans.Aggregate(); !agg.Conserved() {
			t.Errorf("%+v seed %d: %s", in, seed, agg.Violation())
		}
	}
	checkRemapTables(t, cfg.DeviceMit, res.Device)
	return v
}

// checkRemapTables fails the test when mit is a SHADOW controller and any
// bank's remapping table is no longer a permutation.
func checkRemapTables(t *testing.T, mit dram.Mitigator, dev *dram.Device) {
	t.Helper()
	ctl, ok := mit.(*shadow.Controller)
	if !ok {
		return
	}
	for i := 0; i < dev.Banks(); i++ {
		if err := ctl.CheckInvariants(dev.Bank(i)); err != nil {
			t.Fatal(err)
		}
	}
}
