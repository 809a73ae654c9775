package sim

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"hash"
	"hash/fnv"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"shadow/internal/circuit"
	"shadow/internal/dram"
	"shadow/internal/hammer"
	"shadow/internal/memctrl"
	"shadow/internal/mitigate"
	"shadow/internal/obs"
	"shadow/internal/obs/span"
	"shadow/internal/report"
	"shadow/internal/shadow"
	"shadow/internal/timing"
	"shadow/internal/trace"
)

// The simulator has one scheduler: the tick-skipping event wheel in the
// runner over the per-bank readiness cache in each controller. Both skip
// work that provably cannot act, so neither may change what is simulated.
// Until they were deleted, a per-tick runner loop and a full-rescan
// controller were kept as oracles, and the 2x2 matrix of the four
// combinations agreed bit for bit on every case below (with BlockHammer's
// epoch-release bound folded into Step). testdata/sched.golden.json records
// that agreed output: statistics, flip records, scrub reports, a hash of
// every DRAM command, and the span blame table. The tests here replay each
// case and compare. A divergence means a cache-invalidation rule, a
// readiness lower bound or a wakeup rule changed simulated behavior, not
// just speed. Re-record with -update only for a change that is meant to
// alter simulated behavior, and say why in the change.

// equivScheme builds one protection configuration. Constructors are funcs so
// each run gets fresh mitigation state (trackers, CSPRNGs, Bloom filters).
// params configures a stock parameter set of either speed grade.
type equivScheme struct {
	name   string
	params func(p *timing.Params) *timing.Params
	dev    func(seed uint64) dram.Mitigator
	mc     func(p *timing.Params, seed uint64) mitigate.MCSide
	filter func(p *timing.Params) *mitigate.RFMFilter
}

// equivHammer is the fault model of the golden cases.
var equivHammer = hammer.Config{HCnt: 4096, BlastRadius: 3}

// equivSchemes returns every protection configuration, sized for the fault
// model h and banks of rows PA rows. The golden cases use equivHammer and
// smallGeo; FuzzSimulation generates both.
func equivSchemes(h hammer.Config, rows int) []equivScheme {
	same := func(p *timing.Params) *timing.Params { return p }
	withShadow := func(p *timing.Params) *timing.Params {
		return p.WithShadow(circuit.DefaultShadowTimings(p)).WithRAAIMT(64)
	}
	return []equivScheme{
		{name: "none", params: same},
		{
			name:   "shadow",
			params: withShadow,
			dev:    func(seed uint64) dram.Mitigator { return shadow.New(shadow.Options{Seed: seed + 1}) },
		},
		{
			name:   "shadow-filtered",
			params: withShadow,
			dev:    func(seed uint64) dram.Mitigator { return shadow.New(shadow.Options{Seed: seed + 1}) },
			filter: func(p *timing.Params) *mitigate.RFMFilter {
				return mitigate.NewRFMFilter(1024, 4, 16, p.REFW)
			},
		},
		{
			name:   "parfm",
			params: func(p *timing.Params) *timing.Params { return p.WithRAAIMT(32) },
			dev:    func(seed uint64) dram.Mitigator { return mitigate.NewPARFM(h.BlastRadius, seed+2) },
		},
		{
			name:   "mithril",
			params: func(p *timing.Params) *timing.Params { return p.WithRAAIMT(64) },
			dev:    func(seed uint64) dram.Mitigator { return mitigate.NewMithril(2048, h.BlastRadius) },
		},
		{
			name:   "drr",
			params: func(p *timing.Params) *timing.Params { return p.WithRefreshScale(2) },
		},
		{
			name:   "blockhammer",
			params: same,
			mc: func(p *timing.Params, seed uint64) mitigate.MCSide {
				return mitigate.NewBlockHammer(mitigate.BlockHammerConfig{
					Hammer: h, REFW: p.REFW, Seed: seed + 3,
				})
			},
		},
		{
			// BlockHammer with a 2 us filter epoch and H_cnt 64: rows
			// blacklist, throttle and are released by epoch rotations within
			// the horizon. A throttled bank is keyed no later than the
			// next epoch boundary, so a release is seen at that boundary.
			name:   "blockhammer-epoch",
			params: same,
			mc: func(p *timing.Params, seed uint64) mitigate.MCSide {
				return mitigate.NewBlockHammer(mitigate.BlockHammerConfig{
					Hammer: hammer.Config{HCnt: 64, BlastRadius: h.BlastRadius},
					REFW:   4 * timing.Microsecond,
					Seed:   seed + 3,
				})
			},
		},
		{
			// BlockHammer with H_cnt 256 and a 64 us refresh window: rows
			// blacklist and their ACTs wait on the throttle across REF
			// drains, so a throttle-bound bank's key must hold through an
			// all-bank REF (which commands no single bank).
			name:   "blockhammer-throttle",
			params: same,
			mc: func(p *timing.Params, seed uint64) mitigate.MCSide {
				return mitigate.NewBlockHammer(mitigate.BlockHammerConfig{
					Hammer: hammer.Config{HCnt: 256, BlastRadius: h.BlastRadius},
					REFW:   64 * timing.Microsecond,
					Seed:   seed + 3,
				})
			},
		},
		{
			name:   "rrs",
			params: same,
			mc: func(p *timing.Params, seed uint64) mitigate.MCSide {
				return mitigate.NewRRS(mitigate.RRSConfig{
					SwapThreshold: int64(h.HCnt / 6),
					RowsPerBank:   rows,
					REFW:          p.REFW,
					Seed:          seed + 4,
				})
			},
		},
	}
}

// equivInput is one workload shape of the matrix. Every scheme runs the
// 2-core mix. The 16-core mix puts the wheel's load-bearing ordering
// (DESIGN.md §10), the index-order core replay, under enough contention that
// a wrong order shows, and saturates the bank queues, so cores park on full
// queues and every enqueue instant rests on the wheel's re-arm rule; its
// conflict variant (four rows per bank, no row locality) adds blacklisted
// rows, so throttled ACTs wait for their epoch release. The 16-core inputs
// run a subset of schemes to keep the suite fast. (The "1ch" in their names
// is the one channel a run simulates.)
type equivInput struct {
	// name prefixes the subtest names; the base input has none, so its
	// subtests are named by scheme alone.
	name  string
	cores int
	// conflict shrinks every core's working set to four rows per bank with
	// no row locality, so nearly every access is a row conflict.
	conflict bool
	// schemes restricts the input to the named schemes (nil = all).
	schemes []string
}

var equivInputs = []equivInput{
	{cores: 2},
	{name: "16c-1ch", cores: 16, schemes: []string{"none", "shadow", "blockhammer"}},
	{name: "16c-1ch-conflict", cores: 16, conflict: true, schemes: []string{"blockhammer-epoch", "blockhammer-throttle"}},
}

// equivSeeds are the seeds TestSchedulerEquivalence replays every case at.
var equivSeeds = []uint64{42, 7, 1234}

// covers reports whether the input runs scheme name.
func (in equivInput) covers(name string) bool {
	if in.schemes == nil {
		return true
	}
	for _, s := range in.schemes {
		if s == name {
			return true
		}
	}
	return false
}

// equivView is the full observable surface of one run: its statistics and
// IPC, the device's flip records and scrub report, a hash of every DRAM
// command the controller issued (channel 0, kind, bank, row, tick), and the
// rendered blame table when spans are attached. Records and Scrub are
// one-element lists, the layout the golden file was recorded in.
type equivView struct {
	Duration timing.Tick
	Insts    []int64
	IPC      []float64
	MC       memctrl.Stats
	Dev      dram.BankStats
	Flips    int
	Records  [][]dram.FlipRecord
	Scrub    []dram.ScrubReport
	CmdHash  uint64
	Blame    string
	// QueueFull is the queue-full backpressure summed over all spans.
	QueueFull timing.Tick
}

// runEquiv runs one case and returns its view, plus the number of ACTs that
// hit a BlockHammer blacklist (0 for other schemes).
func runEquiv(t *testing.T, sc equivScheme, in equivInput, seed uint64, spans bool) (equivView, int64) {
	t.Helper()
	p := sc.params(baseParams())
	g := smallGeo()
	profiles := trace.MixHigh(in.cores)
	for i := range profiles {
		profiles[i].WorkingSetRows = 1 << 10
		if in.conflict {
			profiles[i].WorkingSetRows = 4
			profiles[i].RowLocality = 0
		}
	}
	cfg := Config{
		Params:   p,
		Geometry: g,
		Hammer:   equivHammer,
		Workload: trace.Generators(profiles, g, seed),
		Duration: 60 * timing.Microsecond,
	}
	sc.build(&cfg, seed)
	if spans {
		cfg.Spans = span.NewCollector(4096)
	}
	v, _ := equivRun(t, sc.name, cfg)
	if bh, ok := cfg.MCSide.(*mitigate.BlockHammer); ok {
		return v, bh.Blacklisted
	}
	return v, 0
}

// build sets cfg's mitigations to fresh instances of the scheme at seed,
// for cfg.Params.
func (sc equivScheme) build(cfg *Config, seed uint64) {
	if sc.dev != nil {
		cfg.DeviceMit = sc.dev(seed)
	}
	if sc.mc != nil {
		cfg.MCSide = sc.mc(cfg.Params, seed)
	}
	if sc.filter != nil {
		cfg.RFMFilter = sc.filter(cfg.Params)
	}
}

// equivRun runs cfg and returns its view, with the blame table labelled
// name when spans are attached. The command hash is folded from an
// OnCommand hook that runs after any hook cfg already sets.
func equivRun(t *testing.T, name string, cfg Config) (equivView, *Result) {
	t.Helper()
	cmdHash := fnv.New64a()
	observe := cfg.OnCommand
	cfg.OnCommand = func(ch int, cmd memctrl.Cmd) {
		if observe != nil {
			observe(ch, cmd)
		}
		fmt.Fprintf(cmdHash, "%d %d %d %d %d\n", ch, cmd.Kind, cmd.Bank, cmd.Row, cmd.At)
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	v := equivView{
		Duration: res.Duration,
		Insts:    res.Insts,
		IPC:      res.IPC,
		MC:       res.MC,
		Dev:      res.Dev,
		Flips:    res.Flips,
		Records:  [][]dram.FlipRecord{res.Device.Flips()},
		Scrub:    []dram.ScrubReport{res.Device.Scrub()},
		CmdHash:  cmdHash.Sum64(),
	}
	if cfg.Spans != nil {
		agg := cfg.Spans.Aggregate()
		v.Blame = string(report.BlameJSON([]report.BlameRow{{Label: name, Agg: agg}}))
		v.QueueFull = agg.Stall[span.CauseQueueFull]
	}
	return v, res
}

// forEachEquivCase calls fn with the subtest name of every (input, scheme)
// pair the golden file covers.
func forEachEquivCase(fn func(name string, sc equivScheme, in equivInput)) {
	for _, in := range equivInputs {
		for _, sc := range equivSchemes(equivHammer, smallGeo().PARowsPerBank()) {
			if !in.covers(sc.name) {
				continue
			}
			name := sc.name
			if in.name != "" {
				name = in.name + "/" + sc.name
			}
			fn(name, sc, in)
		}
	}
}

// runEquivCases runs fn as a subtest for every (input, scheme) pair the
// golden file covers.
func runEquivCases(t *testing.T, fn func(t *testing.T, sc equivScheme, in equivInput)) {
	forEachEquivCase(func(name string, sc equivScheme, in equivInput) {
		t.Run(name, func(t *testing.T) { fn(t, sc, in) })
	})
}

// TestSchedulerEquivalence replays every scheme and input at three seeds
// against the golden file. On the conflict input, blockhammer-epoch must
// blacklist ACTs at every seed, or epoch release goes unexercised.
func TestSchedulerEquivalence(t *testing.T) {
	runEquivCases(t, func(t *testing.T, sc equivScheme, in equivInput) {
		for _, seed := range equivSeeds {
			got, blacklisted := runEquiv(t, sc, in, seed, false)
			checkGolden(t, fmt.Sprintf("%s/seed%d", t.Name(), seed), got)
			if in.conflict && blacklisted == 0 {
				t.Errorf("seed %d: no ACT hit the blacklist, so no throttled row waited for an epoch release", seed)
			}
		}
	})
}

// TestSchedulerEquivalenceWithSpans repeats the replay with shadowtap span
// tracking attached, so the golden blame tables hold stall-cause attribution
// to identical causes for identical durations. Spans make every Step
// evaluate the watched (non-idle) banks and every command re-key them, or a
// cached bank would miss a blame-cause transition driven by another bank's
// command or a REF. The 16-core inputs must park cores on full queues, or
// the wheel's re-arm rule goes unchecked.
func TestSchedulerEquivalenceWithSpans(t *testing.T) {
	runEquivCases(t, func(t *testing.T, sc equivScheme, in equivInput) {
		got, _ := runEquiv(t, sc, in, 42, true)
		if got.Blame == "" {
			t.Fatal("span run produced no blame table")
		}
		if in.cores >= 16 && got.QueueFull == 0 {
			t.Fatal("no queue-full stall: no core parked on a full queue, so the wheel's re-arm rule went unchecked")
		}
		checkGolden(t, t.Name(), got)
	})
}

// eventHash is an obs.EventSink that folds every event a probe emits into
// an FNV-64a hash: RunAttack has no command hook, so its probe's event
// stream (every command, plus shuffle and flip events) stands in for the
// command log. The kind is hashed by name, so renumbering obs.Kind leaves
// the golden hashes alone.
type eventHash struct{ h hash.Hash64 }

func (e eventHash) Record(ev obs.Event) {
	fmt.Fprintf(e.h, "%v %d %d %d\n", ev.Kind, ev.Bank, ev.Row, ev.At)
}

// attackCase is one RunAttack input: a single-request closed-page hammer
// loop against one device.
type attackCase struct {
	name string
	p    func() *timing.Params
	dev  func() dram.Mitigator
	pat  func() trace.Pattern
}

var attackCases = []attackCase{
	{
		name: "unprotected-double-sided",
		p:    baseParams,
		dev:  func() dram.Mitigator { return nil },
		pat:  func() trace.Pattern { return &trace.DoubleSided{Bank: 0, Victim: 16} },
	},
	{
		name: "shadow-single-sided",
		p:    func() *timing.Params { return shadowParams(16) },
		dev:  func() dram.Mitigator { return shadow.New(shadow.Options{Seed: 3}) },
		pat:  func() trace.Pattern { return &trace.SingleSided{Bank: 0, Row: 16} },
	},
}

// runAttackEquiv runs one attack case and returns its view.
func runAttackEquiv(t *testing.T, tc attackCase) equivView {
	t.Helper()
	v, _ := attackRun(t, tc.name, AttackConfig{
		Params:    tc.p(),
		Geometry:  dram.TestGeometry(),
		Hammer:    hammer.Config{HCnt: 512, BlastRadius: 3},
		DeviceMit: tc.dev(),
		MaxActs:   8192,
	}, tc.pat())
	return v
}

// attackRun runs one attack under a probe named name and returns its view:
// Insts holds the activation count, Duration the elapsed time, and CmdHash
// the hash of the probe's event stream.
func attackRun(t *testing.T, name string, cfg AttackConfig, pat trace.Pattern) (equivView, *AttackResult) {
	t.Helper()
	h := eventHash{fnv.New64a()}
	cfg.Probe = obs.NewRecorder(obs.Options{Flight: h}).NewTrack(name)
	res, err := RunAttack(cfg, pat)
	if err != nil {
		t.Fatal(err)
	}
	return equivView{
		Duration: res.Elapsed,
		Insts:    []int64{res.Acts},
		MC:       res.MC,
		Dev:      res.Device.TotalStats(),
		Flips:    res.Flips,
		Records:  [][]dram.FlipRecord{res.Device.Flips()},
		Scrub:    []dram.ScrubReport{res.Device.Scrub()},
		CmdHash:  h.h.Sum64(),
	}, res
}

// TestSchedulerEquivalenceAttack replays the attack runner's cases against
// the golden file. The unprotected double-sided attack must flip bits: every
// trace-driven case flips none, so it is the only case whose flip records
// carry data.
func TestSchedulerEquivalenceAttack(t *testing.T) {
	for _, tc := range attackCases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			got := runAttackEquiv(t, tc)
			if got.Insts[0] == 0 {
				t.Fatal("attack issued no activations")
			}
			if tc.name == "unprotected-double-sided" && got.Flips == 0 {
				t.Error("unprotected double-sided attack flipped no bits")
			}
			checkGolden(t, t.Name(), got)
		})
	}
}

// TestGoldenCasesAreLive fails when the golden file holds a case that no
// test here replays: a stale case would otherwise sit in the file unchecked
// after its input or scheme is deleted. The live names are every input ×
// scheme × seed of TestSchedulerEquivalence, every input × scheme of
// TestSchedulerEquivalenceWithSpans, and every attack case.
func TestGoldenCasesAreLive(t *testing.T) {
	live := map[string]bool{}
	forEachEquivCase(func(name string, _ equivScheme, _ equivInput) {
		for _, seed := range equivSeeds {
			live[fmt.Sprintf("TestSchedulerEquivalence/%s/seed%d", name, seed)] = true
		}
		live["TestSchedulerEquivalenceWithSpans/"+name] = true
	})
	for _, tc := range attackCases {
		live["TestSchedulerEquivalenceAttack/"+tc.name] = true
	}
	b, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var cases []goldenCase
	if err := json.Unmarshal(b, &cases); err != nil {
		t.Fatalf("%s: %v", goldenPath, err)
	}
	for _, c := range cases {
		if !live[c.Case] {
			t.Errorf("%s: case %s is replayed by no test; delete it", goldenPath, c.Case)
		}
	}
}

var update = flag.Bool("update", false, "rewrite the scheduler golden file")

// goldenPath holds the scheduler's recorded output, one equivView per case.
var goldenPath = filepath.Join("testdata", "sched.golden.json")

// goldenCase is one recorded run: its case name and its equivView as JSON.
type goldenCase struct {
	Case string
	View json.RawMessage
}

// goldenCases is the golden file, loaded once and kept in case-name order;
// under -update it is rewritten after every recorded case, so a partial -run
// keeps the other cases.
var (
	goldenCases  []goldenCase
	goldenLoaded bool
)

// checkGolden compares a run's view with the recorded case key, or records
// it under -update.
func checkGolden(t *testing.T, key string, got equivView) {
	t.Helper()
	if !goldenLoaded {
		goldenLoaded = true
		if b, err := os.ReadFile(goldenPath); err == nil {
			if err := json.Unmarshal(b, &goldenCases); err != nil {
				t.Fatalf("%s: %v", goldenPath, err)
			}
		} else if !*update {
			t.Fatal(err)
		}
	}
	b, err := json.Marshal(got)
	if err != nil {
		t.Fatal(err)
	}
	i := 0
	for i < len(goldenCases) && goldenCases[i].Case != key {
		i++
	}
	if *update {
		if i < len(goldenCases) {
			goldenCases[i].View = b
		} else {
			goldenCases = append(goldenCases, goldenCase{Case: key, View: b})
			sort.Slice(goldenCases, func(a, b int) bool { return goldenCases[a].Case < goldenCases[b].Case })
		}
		writeGolden(t)
		return
	}
	if i == len(goldenCases) {
		t.Fatalf("%s: no golden case (re-run with -update to record it)", key)
	}
	var want bytes.Buffer
	if err := json.Compact(&want, goldenCases[i].View); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want.Bytes(), b) {
		t.Errorf("%s diverged from the golden file (re-run with -update only if the change is intended):\n want: %s\n got:  %s",
			key, want.Bytes(), b)
	}
}

// writeGolden writes the golden file with one case per line, so a diff names
// the cases that changed.
func writeGolden(t *testing.T) {
	t.Helper()
	var buf bytes.Buffer
	buf.WriteString("[\n")
	for i, c := range goldenCases {
		line, err := json.Marshal(c)
		if err != nil {
			t.Fatal(err)
		}
		buf.Write(line)
		if i < len(goldenCases)-1 {
			buf.WriteByte(',')
		}
		buf.WriteByte('\n')
	}
	buf.WriteString("]\n")
	if err := os.WriteFile(goldenPath, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
}
