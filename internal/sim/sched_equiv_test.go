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
type equivScheme struct {
	name   string
	params func() *timing.Params
	dev    func(seed uint64) dram.Mitigator
	mc     func(p *timing.Params, seed uint64) mitigate.MCSide
	filter func(p *timing.Params) *mitigate.RFMFilter
}

func equivSchemes() []equivScheme {
	h := hammer.Config{HCnt: 4096, BlastRadius: 3}
	rows := smallGeo().PARowsPerBank()
	return []equivScheme{
		{name: "none", params: baseParams},
		{
			name:   "shadow",
			params: func() *timing.Params { return shadowParams(64) },
			dev:    func(seed uint64) dram.Mitigator { return shadow.New(shadow.Options{Seed: seed + 1}) },
		},
		{
			name:   "shadow-filtered",
			params: func() *timing.Params { return shadowParams(64) },
			dev:    func(seed uint64) dram.Mitigator { return shadow.New(shadow.Options{Seed: seed + 1}) },
			filter: func(p *timing.Params) *mitigate.RFMFilter {
				return mitigate.NewRFMFilter(1024, 4, 16, p.REFW)
			},
		},
		{
			name:   "parfm",
			params: func() *timing.Params { return baseParams().WithRAAIMT(32) },
			dev:    func(seed uint64) dram.Mitigator { return mitigate.NewPARFM(h.BlastRadius, seed+2) },
		},
		{
			name:   "mithril",
			params: func() *timing.Params { return baseParams().WithRAAIMT(64) },
			dev:    func(seed uint64) dram.Mitigator { return mitigate.NewMithril(2048, h.BlastRadius) },
		},
		{
			name:   "panopticon",
			params: func() *timing.Params { return baseParams().WithRAAIMT(64) },
			dev:    func(seed uint64) dram.Mitigator { return mitigate.NewPanopticon(h.HCnt, h.BlastRadius) },
		},
		{
			name:   "drr",
			params: func() *timing.Params { return baseParams().WithRefreshScale(2) },
		},
		{
			name:   "blockhammer",
			params: baseParams,
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
			params: baseParams,
			mc: func(p *timing.Params, seed uint64) mitigate.MCSide {
				return mitigate.NewBlockHammer(mitigate.BlockHammerConfig{
					Hammer: hammer.Config{HCnt: 64, BlastRadius: 3},
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
			params: baseParams,
			mc: func(p *timing.Params, seed uint64) mitigate.MCSide {
				return mitigate.NewBlockHammer(mitigate.BlockHammerConfig{
					Hammer: hammer.Config{HCnt: 256, BlastRadius: 3},
					REFW:   64 * timing.Microsecond,
					Seed:   seed + 3,
				})
			},
		},
		{
			name:   "rrs",
			params: baseParams,
			mc: func(p *timing.Params, seed uint64) mitigate.MCSide {
				return mitigate.NewRRS(mitigate.RRSConfig{
					SwapThreshold: int64(h.HCnt / 6),
					RowsPerBank:   rows,
					REFW:          p.REFW,
					Seed:          seed + 4,
				})
			},
		},
		{
			name:   "graphene",
			params: baseParams,
			mc: func(p *timing.Params, seed uint64) mitigate.MCSide {
				return mitigate.NewGraphene(mitigate.GrapheneConfig{
					Hammer: h, RowsPerBank: rows, REFW: p.REFW,
				})
			},
		},
		{
			name:   "para",
			params: baseParams,
			mc: func(p *timing.Params, seed uint64) mitigate.MCSide {
				return mitigate.NewPARA(h, rows, seed+5)
			},
		},
	}
}

// equivInput is one workload shape of the matrix. Every scheme runs the
// 2-core single-channel mix. The 16-core two-channel mix puts the wheel's two
// load-bearing orderings (DESIGN.md §10) — the index-order core replay and
// the ascending-channel step rounds — under enough contention that a wrong
// order shows. The 16-core single-channel mix saturates the bank queues, so
// cores park on full queues and every enqueue instant rests on the wheel's
// re-arm rule; its conflict variant (four rows per bank, no row locality)
// adds blacklisted rows, so throttled ACTs wait for their epoch release.
// The 16-core inputs run a subset of schemes to keep the suite fast.
type equivInput struct {
	// name prefixes the subtest names; the base input has none, so its
	// subtests are named by scheme alone.
	name     string
	cores    int
	channels int
	// conflict shrinks every core's working set to four rows per bank with
	// no row locality, so nearly every access is a row conflict.
	conflict bool
	// schemes restricts the input to the named schemes (nil = all).
	schemes []string
}

var equivInputs = []equivInput{
	{cores: 2, channels: 1},
	{name: "16c-2ch", cores: 16, channels: 2, schemes: []string{"none", "shadow", "blockhammer"}},
	{name: "16c-1ch", cores: 16, channels: 1, schemes: []string{"none", "shadow", "blockhammer"}},
	{name: "16c-1ch-conflict", cores: 16, channels: 1, conflict: true, schemes: []string{"blockhammer-epoch", "blockhammer-throttle"}},
}

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

// equivView is the full observable surface of one run: the determinism-test
// statsView plus every channel's flip records and scrub report, a hash of
// every DRAM command the controllers issued (channel, kind, bank, row,
// tick), and the rendered blame table when spans are attached.
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
// hit a BlockHammer blacklist across the channels (0 for other schemes).
func runEquiv(t *testing.T, sc equivScheme, in equivInput, seed uint64, spans bool) (equivView, int64) {
	t.Helper()
	p := sc.params()
	g := smallGeo()
	wlGeo := g
	wlGeo.Banks = g.Banks * in.channels // generators span the global bank space
	profiles := trace.MixHigh(in.cores)
	for i := range profiles {
		profiles[i].WorkingSetRows = 1 << 10
		if in.conflict {
			profiles[i].WorkingSetRows = 4
			profiles[i].RowLocality = 0
		}
	}
	// Each channel gets its own mitigation state; channel ch's seed is offset
	// so the channels do not mirror each other.
	var devFor func(ch int) dram.Mitigator
	if sc.dev != nil {
		devFor = func(ch int) dram.Mitigator { return sc.dev(seed + uint64(ch)*101) }
	}
	var mcFor func(ch int) mitigate.MCSide
	var bhs []*mitigate.BlockHammer
	if sc.mc != nil {
		mcFor = func(ch int) mitigate.MCSide {
			m := sc.mc(p, seed+uint64(ch)*101)
			if bh, ok := m.(*mitigate.BlockHammer); ok {
				bhs = append(bhs, bh)
			}
			return m
		}
	}
	var filter *mitigate.RFMFilter
	if sc.filter != nil {
		filter = sc.filter(p)
	}
	var col *span.Collector
	if spans {
		col = span.NewCollector(4096)
	}
	cmdHash := fnv.New64a()
	res, err := Run(Config{
		Params:       p,
		Geometry:     g,
		Hammer:       hammer.Config{HCnt: 4096, BlastRadius: 3},
		Channels:     in.channels,
		DeviceMitFor: devFor,
		MCSideFor:    mcFor,
		RFMFilter:    filter,
		Workload:     trace.Generators(profiles, wlGeo, seed),
		Duration:     60 * timing.Microsecond,
		Spans:        col,
		OnCommand: func(ch int, cmd memctrl.Cmd) {
			fmt.Fprintf(cmdHash, "%d %d %d %d %d\n", ch, cmd.Kind, cmd.Bank, cmd.Row, cmd.At)
		},
	})
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
		CmdHash:  cmdHash.Sum64(),
	}
	for _, d := range res.Devices {
		v.Records = append(v.Records, d.Flips())
		v.Scrub = append(v.Scrub, d.Scrub())
	}
	if col != nil {
		agg := col.Aggregate()
		v.Blame = string(report.BlameJSON([]report.BlameRow{{Label: sc.name, Agg: agg}}))
		v.QueueFull = agg.Stall[span.CauseQueueFull]
	}
	var blacklisted int64
	for _, bh := range bhs {
		blacklisted += bh.Blacklisted
	}
	return v, blacklisted
}

// forEachEquivCase runs fn as a subtest for every (input, scheme) pair the
// golden file covers.
func forEachEquivCase(t *testing.T, fn func(t *testing.T, sc equivScheme, in equivInput)) {
	for _, in := range equivInputs {
		for _, sc := range equivSchemes() {
			if !in.covers(sc.name) {
				continue
			}
			sc, in := sc, in
			name := sc.name
			if in.name != "" {
				name = in.name + "/" + sc.name
			}
			t.Run(name, func(t *testing.T) { fn(t, sc, in) })
		}
	}
}

// TestSchedulerEquivalence replays every scheme and input at three seeds
// against the golden file. On the conflict input, blockhammer-epoch must
// blacklist ACTs at every seed, or epoch release goes unexercised.
func TestSchedulerEquivalence(t *testing.T) {
	forEachEquivCase(t, func(t *testing.T, sc equivScheme, in equivInput) {
		for _, seed := range []uint64{42, 7, 1234} {
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
	forEachEquivCase(t, func(t *testing.T, sc equivScheme, in equivInput) {
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
// command log.
type eventHash struct{ h hash.Hash64 }

func (e eventHash) Record(ev obs.Event) {
	fmt.Fprintf(e.h, "%d %d %d %d\n", ev.Kind, ev.Bank, ev.Row, ev.At)
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

// runAttackEquiv runs one attack case and returns its view: Insts holds the
// activation count, Duration the elapsed time.
func runAttackEquiv(t *testing.T, tc attackCase) equivView {
	t.Helper()
	h := eventHash{fnv.New64a()}
	rec := obs.NewRecorder(obs.Options{Flight: h})
	res, err := RunAttack(AttackConfig{
		Params:    tc.p(),
		Geometry:  dram.TestGeometry(),
		Hammer:    hammer.Config{HCnt: 512, BlastRadius: 3},
		DeviceMit: tc.dev(),
		MaxActs:   8192,
		Probe:     rec.NewTrack(tc.name),
	}, tc.pat())
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
	}
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
