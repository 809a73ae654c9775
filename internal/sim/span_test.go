package sim

import (
	"testing"

	"shadow/internal/dram"
	"shadow/internal/hammer"
	"shadow/internal/mitigate"
	"shadow/internal/obs/span"
	"shadow/internal/shadow"
	"shadow/internal/timing"
	"shadow/internal/trace"
)

// spanScheme is one mitigation configuration for the conservation sweep,
// mirroring the exp harness's Point.Build (which sim cannot import — exp
// depends on sim).
type spanScheme struct {
	name string
	mit  func(g dram.Geometry) (p *timing.Params, dev dram.Mitigator, mc mitigate.MCSide)
	// wantCause must show nonzero aggregate stall under this scheme, so the
	// conservation check is not vacuously passing on an all-service split.
	wantCause span.Cause
}

func spanSchemes() []spanScheme {
	const blast = 3
	return []spanScheme{
		{
			name: "baseline",
			mit: func(dram.Geometry) (*timing.Params, dram.Mitigator, mitigate.MCSide) {
				return baseParams(), nil, nil
			},
			wantCause: span.CauseRefresh,
		},
		{
			name: "shadow",
			mit: func(dram.Geometry) (*timing.Params, dram.Mitigator, mitigate.MCSide) {
				return shadowParams(64), shadow.New(shadow.Options{Seed: 7}), nil
			},
			wantCause: span.CauseShuffle,
		},
		{
			name: "parfm",
			mit: func(dram.Geometry) (*timing.Params, dram.Mitigator, mitigate.MCSide) {
				p := baseParams().WithRAAIMT(32)
				return p, mitigate.NewPARFM(blast, 2), nil
			},
			wantCause: span.CauseRFM,
		},
		{
			name: "mithril",
			mit: func(dram.Geometry) (*timing.Params, dram.Mitigator, mitigate.MCSide) {
				p := baseParams().WithRAAIMT(32)
				return p, mitigate.NewMithril(2048, blast), nil
			},
			wantCause: span.CauseRFM,
		},
		{
			name: "blockhammer",
			mit: func(dram.Geometry) (*timing.Params, dram.Mitigator, mitigate.MCSide) {
				p := baseParams()
				// A tiny threshold and a short (test-scaled) window so the
				// blacklist trips and the ~REFW/budget throttle delay still
				// lets throttled requests complete inside the run (the sweep
				// also concentrates this scheme's rows; see run below).
				return p, nil, mitigate.NewBlockHammer(mitigate.BlockHammerConfig{
					Hammer: hammer.Config{HCnt: 16, BlastRadius: blast},
					REFW:   40 * timing.Microsecond,
					Seed:   3,
				})
			},
			wantCause: span.CauseThrottle,
		},
		{
			name: "rrs",
			mit: func(g dram.Geometry) (*timing.Params, dram.Mitigator, mitigate.MCSide) {
				p := baseParams()
				// A tiny swap threshold so swaps happen inside the window.
				return p, nil, mitigate.NewRRS(mitigate.RRSConfig{
					SwapThreshold: 8,
					RowsPerBank:   g.PARowsPerBank(),
					REFW:          p.REFW,
					Seed:          4,
				})
			},
			wantCause: span.CauseSwap,
		},
	}
}

// TestSpanConservationAcrossSchemes is the regression test behind the
// conservation invariant: for every mitigation scheme, every completed span's
// per-cause stall must sum exactly to its residency, the aggregate must
// conserve, and milestone timestamps must be monotone. Each scheme must also
// show its signature cause, so the sweep cannot pass vacuously.
func TestSpanConservationAcrossSchemes(t *testing.T) {
	for _, sc := range spanSchemes() {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			t.Parallel()
			g := smallGeo()
			p, dev, mc := sc.mit(g)
			profiles := trace.MixHigh(2)
			for i := range profiles {
				profiles[i].WorkingSetRows = 1 << 10
				if sc.name == "blockhammer" {
					// Concentrate row changes so per-row activation counts
					// cross the blacklist threshold inside the window.
					profiles[i].WorkingSetRows = 4
					profiles[i].RowLocality = 0
				}
			}
			col := span.NewCollector()
			_, err := Run(Config{
				Params:    p,
				Geometry:  g,
				Hammer:    hammer.Config{HCnt: 4096, BlastRadius: 3},
				DeviceMit: dev,
				MCSide:    mc,
				Workload:  trace.Generators(profiles, g, 42),
				Duration:  100 * timing.Microsecond,
				Spans:     col,
			})
			if err != nil {
				t.Fatal(err)
			}

			spans := col.Spans()
			if len(spans) == 0 {
				t.Fatal("no spans recorded")
			}
			for i, sp := range spans {
				if sp.StallTotal() != sp.Resident() {
					t.Fatalf("span %d (core %d bank %d row %d): stall %d != resident %d (stall %v)",
						i, sp.Core, sp.Bank, sp.Row, sp.StallTotal(), sp.Resident(), sp.Stall)
				}
				if !(sp.FirstAttempt <= sp.Enqueue && sp.Enqueue <= sp.CAS && sp.CAS <= sp.Done) {
					t.Fatalf("span %d: non-monotone milestones first=%d enq=%d cas=%d done=%d",
						i, sp.FirstAttempt, sp.Enqueue, sp.CAS, sp.Done)
				}
				if !sp.RowHit && !(sp.Enqueue <= sp.ACT && sp.ACT <= sp.CAS) {
					t.Fatalf("span %d: ACT %d outside [enqueue %d, cas %d]", i, sp.ACT, sp.Enqueue, sp.CAS)
				}
			}

			agg := col.Aggregate()
			if !agg.Conserved() {
				t.Fatalf("aggregate not conserved: stall %d != resident %d (split %v)",
					agg.StallTotal(), agg.Resident, agg.Stall)
			}
			if agg.Spans != int64(len(spans)) {
				t.Fatalf("aggregate %d spans, retained %d (dropped %d)", agg.Spans, len(spans), agg.Dropped)
			}
			if agg.RowHits == 0 || agg.RowHits == agg.Spans {
				t.Errorf("row-hit count %d of %d implausible", agg.RowHits, agg.Spans)
			}
			if agg.Stall[sc.wantCause] == 0 {
				t.Errorf("scheme %s: no stall attributed to signature cause %s (split %v)",
					sc.name, sc.wantCause, agg.Stall)
			}
		})
	}
}

// TestSpanSchemeCauseExclusivity checks the scheme-specific causes do not
// leak across schemes: a baseline run must never blame shuffle, swap,
// throttle, or RFM.
func TestSpanSchemeCauseExclusivity(t *testing.T) {
	g := smallGeo()
	profiles := trace.MixHigh(2)
	for i := range profiles {
		profiles[i].WorkingSetRows = 1 << 10
	}
	col := span.NewCollector()
	_, err := Run(Config{
		Params:   baseParams(),
		Geometry: g,
		Hammer:   hammer.Config{HCnt: 4096, BlastRadius: 3},
		Workload: trace.Generators(profiles, g, 42),
		Duration: 80 * timing.Microsecond,
		Spans:    col,
	})
	if err != nil {
		t.Fatal(err)
	}
	agg := col.Aggregate()
	for _, c := range []span.Cause{span.CauseRFM, span.CauseShuffle, span.CauseSwap, span.CauseThrottle} {
		if agg.Stall[c] != 0 {
			t.Errorf("baseline run attributed %d ticks to %s", agg.Stall[c], c)
		}
	}
}

// TestSpanBackpressureObserved drives a single slow bank hard enough to fill
// its queue and checks queue-full backpressure is captured with the
// conservation invariant still holding.
func TestSpanBackpressureObserved(t *testing.T) {
	g := smallGeo()
	prof := trace.Profile{
		MPKI:           200, // extremely memory-bound
		WorkingSetRows: 2,   // conflicting rows, no locality
		RowLocality:    0,
	}
	profiles := make([]trace.Profile, 8)
	for i := range profiles {
		profiles[i] = prof
	}
	col := span.NewCollector()
	_, err := Run(Config{
		Params:   baseParams(),
		Geometry: g,
		Hammer:   hammer.Config{HCnt: 4096, BlastRadius: 3},
		Workload: trace.Generators(profiles, g, 9),
		Duration: 60 * timing.Microsecond,
		MSHR:     256, // deep cores so bank queues actually fill
		Spans:    col,
	})
	if err != nil {
		t.Fatal(err)
	}
	agg := col.Aggregate()
	if agg.Spans == 0 {
		t.Fatal("no spans recorded")
	}
	if !agg.Conserved() {
		t.Fatalf("aggregate not conserved: stall %d != resident %d", agg.StallTotal(), agg.Resident)
	}
	if agg.Stall[span.CauseQueueFull] == 0 {
		t.Skip("no backpressure generated at this scale; conservation verified above")
	}
}
