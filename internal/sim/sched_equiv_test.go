package sim

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"reflect"
	"testing"

	"shadow/internal/dram"
	"shadow/internal/hammer"
	"shadow/internal/memctrl"
	"shadow/internal/mitigate"
	"shadow/internal/obs/span"
	"shadow/internal/report"
	"shadow/internal/shadow"
	"shadow/internal/timing"
	"shadow/internal/trace"
)

// The simulator's two scheduler optimizations must be behaviorally
// invisible, separately and combined:
//
//   - the event-driven controller scheduler (per-bank readiness cache,
//     toggled off by Config.fullRescan), and
//   - the tick-skipping event wheel (simulated time jumps straight to the
//     next actionable instant, toggled off by Config.noTimeSkip).
//
// For every mitigation scheme, every seed, every input, and every
// observation mode, each of the four {event-cache, full-rescan} x
// {event-wheel, per-tick} variants must produce bit-identical statistics,
// DRAM command streams, flip records, and span blame tables against the
// double-oracle (full-rescan + per-tick, both pre-optimization paths kept
// compiled exactly for this test; one input is held to the wheel axis alone,
// see equivInput.wheelOnly). Any divergence means a cache-invalidation
// rule or a readiness lower bound is wrong and an optimization changed
// simulated behavior, not just speed.

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
			// the horizon. A release is seen by the first Step after
			// the epoch boundary, so the set of clamped wakeup instants
			// decides when a throttled ACT issues.
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
// adds blacklisted rows whose epoch release makes clamped wakeups matter.
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
	// wheelOnly checks, without spans, only the wheel axis: each wheel run
	// against the per-tick run of the same controller mode. The
	// event-driven controller's Step return omits the MC-side epoch boundary
	// that releases a throttled ACT, so its per-tick Step instants, and with
	// them the release instant, differ from the full rescan's (ROADMAP).
	wheelOnly bool
	// schemes restricts the input to the named schemes (nil = all).
	schemes []string
}

var equivInputs = []equivInput{
	{cores: 2, channels: 1},
	{name: "16c-2ch", cores: 16, channels: 2, schemes: []string{"none", "shadow", "blockhammer"}},
	{name: "16c-1ch", cores: 16, channels: 1, schemes: []string{"none", "shadow", "blockhammer"}},
	{name: "16c-1ch-conflict", cores: 16, channels: 1, conflict: true, wheelOnly: true, schemes: []string{"blockhammer-epoch"}},
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

// equivVariants is the scheduler matrix: the double-oracle first, then the
// three optimized combinations that must match it bit for bit.
var equivVariants = []struct {
	name       string
	fullRescan bool
	noTimeSkip bool
}{
	{"rescan+tick", true, true}, // double-oracle
	{"event+tick", false, true},
	{"rescan+wheel", true, false},
	{"event+wheel", false, false},
}

func runEquiv(t *testing.T, sc equivScheme, in equivInput, seed uint64, spans, fullRescan, noTimeSkip bool) equivView {
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
	if sc.mc != nil {
		mcFor = func(ch int) mitigate.MCSide { return sc.mc(p, seed+uint64(ch)*101) }
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
		fullRescan: fullRescan,
		noTimeSkip: noTimeSkip,
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
	return v
}

// forEachEquivCase runs fn as a subtest for every (input, scheme) pair the
// matrix covers.
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

// TestSchedulerEquivalence is the bit-identity gate for the scheduler
// matrix: every scheme and input, three seeds, all four scheduler variants,
// statistics + command stream against the double-oracle.
func TestSchedulerEquivalence(t *testing.T) {
	forEachEquivCase(t, func(t *testing.T, sc equivScheme, in equivInput) {
		for _, seed := range []uint64{42, 7, 1234} {
			oracle := runEquiv(t, sc, in, seed, false, equivVariants[0].fullRescan, equivVariants[0].noTimeSkip)
			for _, v := range equivVariants[1:] {
				ref, refName := oracle, equivVariants[0].name
				if in.wheelOnly {
					if v.noTimeSkip {
						continue
					}
					ref = runEquiv(t, sc, in, seed, false, v.fullRescan, true)
					refName = v.name + " per tick"
				}
				got := runEquiv(t, sc, in, seed, false, v.fullRescan, v.noTimeSkip)
				if !reflect.DeepEqual(ref, got) {
					t.Errorf("seed %d: %s diverged from %s:\n oracle: %+v\n got:    %+v",
						seed, v.name, refName, ref, got)
				}
			}
		}
	})
}

// TestSchedulerEquivalenceWithSpans repeats the check with shadowtap span
// tracking attached: stall-cause attribution must blame identical causes for
// identical durations under both schedulers (this is what forces non-idle
// banks to stay volatile in the readiness cache — a cached bank could
// otherwise miss a blame-cause transition driven by another bank's command).
func TestSchedulerEquivalenceWithSpans(t *testing.T) {
	forEachEquivCase(t, func(t *testing.T, sc equivScheme, in equivInput) {
		oracle := runEquiv(t, sc, in, 42, true, equivVariants[0].fullRescan, equivVariants[0].noTimeSkip)
		if oracle.Blame == "" {
			t.Fatal("span run produced no blame table")
		}
		if in.cores >= 16 && oracle.QueueFull == 0 {
			t.Fatal("no queue-full stall: no core parked on a full queue, so the wheel's re-arm rule went unchecked")
		}
		for _, v := range equivVariants[1:] {
			got := runEquiv(t, sc, in, 42, true, v.fullRescan, v.noTimeSkip)
			if got.Blame == "" {
				t.Fatal("span run produced no blame table")
			}
			if !reflect.DeepEqual(oracle, got) {
				diff := ""
				if oracle.Blame != got.Blame {
					diff = fmt.Sprintf("\n blame oracle: %s\n blame %s: %s", oracle.Blame, v.name, got.Blame)
				}
				t.Errorf("span-tracked %s diverged:\n oracle: %+v\n got:    %+v%s", v.name, oracle, got, diff)
			}
		}
	})
}

// TestSchedulerEquivalenceAttack covers the attack runner: a single-request
// closed-page hammer loop against both an unprotected and a SHADOW-protected
// device must observe identical activation counts, flips, and controller
// stats under both schedulers.
func TestSchedulerEquivalenceAttack(t *testing.T) {
	cases := []struct {
		name string
		p    *timing.Params
		dev  func() dram.Mitigator
		pat  func() trace.Pattern
	}{
		{
			name: "unprotected-double-sided",
			p:    baseParams(),
			dev:  func() dram.Mitigator { return nil },
			pat:  func() trace.Pattern { return &trace.DoubleSided{Bank: 0, Victim: 16} },
		},
		{
			name: "shadow-single-sided",
			p:    shadowParams(16),
			dev:  func() dram.Mitigator { return shadow.New(shadow.Options{Seed: 3}) },
			pat:  func() trace.Pattern { return &trace.SingleSided{Bank: 0, Row: 16} },
		},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			run := func(fullRescan, noTimeSkip bool) ([]byte, *AttackResult) {
				res, err := RunAttack(AttackConfig{
					Params:     tc.p,
					Geometry:   dram.TestGeometry(),
					Hammer:     hammer.Config{HCnt: 512, BlastRadius: 3},
					DeviceMit:  tc.dev(),
					MaxActs:    8192,
					fullRescan: fullRescan,
					noTimeSkip: noTimeSkip,
				}, tc.pat())
				if err != nil {
					t.Fatal(err)
				}
				sum := []byte(fmt.Sprintf("%d %d %d %+v %+v",
					res.Acts, res.Flips, res.Elapsed, res.MC, res.Device.Flips()))
				return sum, res
			}
			oracleSum, oracleRes := run(equivVariants[0].fullRescan, equivVariants[0].noTimeSkip)
			for _, v := range equivVariants[1:] {
				gotSum, _ := run(v.fullRescan, v.noTimeSkip)
				if !bytes.Equal(oracleSum, gotSum) {
					t.Errorf("attack %s diverged:\n oracle: %s\n got:    %s", v.name, oracleSum, gotSum)
				}
			}
			if oracleRes.Acts == 0 {
				t.Fatal("attack issued no activations; equivalence check is vacuous")
			}
		})
	}
}
