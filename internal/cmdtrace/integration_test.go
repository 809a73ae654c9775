package cmdtrace

import (
	"testing"

	"shadow/internal/circuit"
	"shadow/internal/dram"
	"shadow/internal/hammer"
	"shadow/internal/memctrl"
	"shadow/internal/mitigate"
	"shadow/internal/rng"
	"shadow/internal/shadow"
	"shadow/internal/timing"
)

// TestControllerStreamsAreClean replays the command streams the real
// controller produces — under every mitigation class, with refreshes, RFMs,
// and swaps in play — through the independent checker and requires
// zero protocol violations. This is the repository's strongest correctness
// statement about the memory controller.
func TestControllerStreamsAreClean(t *testing.T) {
	base := timing.NewParams(timing.DDR4_2666)
	geo := dram.TestGeometry()
	cases := []struct {
		name   string
		params *timing.Params
		mit    func() dram.Mitigator
		mcside func() mitigate.MCSide
		closed bool
	}{
		{name: "baseline", params: base},
		{
			name:   "shadow",
			params: base.WithShadow(circuit.DefaultShadowTimings(base)).WithRAAIMT(8),
			mit:    func() dram.Mitigator { return shadow.New(shadow.Options{Seed: 1}) },
		},
		{
			name:   "parfm",
			params: base.WithRAAIMT(8),
			mit:    func() dram.Mitigator { return mitigate.NewPARFM(3, 2) },
		},
		{
			name:   "rrs-swaps",
			params: base,
			mcside: func() mitigate.MCSide {
				return mitigate.NewRRS(mitigate.RRSConfig{
					SwapThreshold: 6,
					RowsPerBank:   geo.PARowsPerBank(),
					REFW:          base.REFW,
					Seed:          4,
				})
			},
		},
		{
			name:   "closed-page-attack",
			params: base.WithRAAIMT(8),
			mit:    func() dram.Mitigator { return shadow.New(shadow.Options{Seed: 9}) },
			closed: true,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var mit dram.Mitigator
			if tc.mit != nil {
				mit = tc.mit()
			}
			d, err := dram.NewDevice(dram.Config{
				Geometry:  geo,
				Params:    tc.params,
				Hammer:    hammer.Config{HCnt: 1 << 20, BlastRadius: 3},
				Mitigator: mit,
			})
			if err != nil {
				t.Fatal(err)
			}
			checker := New(tc.params, geo.Banks)
			var mcside mitigate.MCSide
			if tc.mcside != nil {
				mcside = tc.mcside()
			}
			ctl := memctrl.New(d, memctrl.Options{
				MCSide:     mcside,
				ClosedPage: tc.closed,
				OnCommand:  checker.Observe,
			})

			// Random request stream with bursty hot rows, driven for 100us.
			src := rng.NewSplitMix(11)
			now := timing.Tick(0)
			nextReq := timing.Tick(0)
			for now < 100*timing.Microsecond {
				for nextReq <= now {
					row := rng.Intn(src, 8) // few rows: conflicts and hits
					if rng.Intn(src, 4) == 0 {
						row = rng.Intn(src, geo.PARowsPerBank())
					}
					ctl.Enqueue(&memctrl.Request{
						Bank:   rng.Intn(src, geo.Banks),
						Row:    row,
						Col:    rng.Intn(src, 4),
						Write:  rng.Intn(src, 4) == 0,
						Arrive: now,
					})
					nextReq += timing.Tick(20+rng.Intn(src, 200)) * timing.Nanosecond
				}
				next := ctl.Step(now)
				if next <= now {
					continue
				}
				if next > nextReq {
					next = nextReq
				}
				now = next
			}
			if checker.Commands() < 100 {
				t.Fatalf("only %d commands observed", checker.Commands())
			}
			if err := checker.Err(); err != nil {
				for i, v := range checker.Violations() {
					if i >= 5 {
						break
					}
					t.Logf("violation: %s", v)
				}
				t.Fatal(err)
			}
		})
	}
}
