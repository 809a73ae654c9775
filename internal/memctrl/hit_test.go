package memctrl

import (
	"fmt"
	"testing"

	"shadow/internal/dram"
	"shadow/internal/hammer"
	"shadow/internal/mitigate"
	"shadow/internal/timing"
)

// TestHitCacheMatchesQueueWalk checks the cached FR-FCFS hit on generated
// inputs: after every Enqueue and every Step, each open bank's cached answer,
// when one is held, must be the oldest queued request whose translated row
// is the open row, as a fresh walk of the queue finds it. The inputs cover
// open and closed page, RRS swaps (which move rows and precharge the bank),
// PARFM's RFMs (whose PREs close rows no request asked to close) and the
// refresh drains every run passes through.
func TestHitCacheMatchesQueueWalk(t *testing.T) {
	geo := dram.Geometry{Banks: 16, SubarraysPerBank: 4, RowsPerSubarray: 32, RowBytes: 64, ExtraRows: 1}
	hc := hammer.Config{HCnt: 1 << 20, BlastRadius: 1}
	rrs := func() mitigate.MCSide {
		return mitigate.NewRRS(mitigate.RRSConfig{
			SwapThreshold: 6,
			RowsPerBank:   geo.PARowsPerBank(),
			SwapLatency:   100 * timing.Nanosecond,
			REFW:          32 * timing.Millisecond,
			Seed:          5,
		})
	}
	cases := []struct {
		name   string
		opt    Options
		mc     func() mitigate.MCSide // RRS when set
		raaimt int                    // PARFM on the device when set
	}{
		{name: "open"},
		{name: "closed", opt: Options{ClosedPage: true}},
		{name: "rrs", mc: rrs},
		{name: "rrs-closed", opt: Options{ClosedPage: true}, mc: rrs},
		{name: "parfm-rfm", raaimt: 4},
	}
	for _, tc := range cases {
		for seed := uint64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", tc.name, seed), func(t *testing.T) {
				cfg := dram.Config{Geometry: geo, Params: timing.NewParams(timing.DDR4_2666), Hammer: hc}
				if tc.raaimt > 0 {
					cfg.Params = cfg.Params.WithRAAIMT(tc.raaimt)
					cfg.Mitigator = mitigate.NewPARFM(hc.BlastRadius, seed)
				}
				d, err := dram.NewDevice(cfg)
				if err != nil {
					t.Fatal(err)
				}
				opt := tc.opt
				if tc.mc != nil {
					opt.MCSide = tc.mc()
				}
				c := New(d, opt)
				compared := 0
				check := func(when string) {
					for i := range c.banks {
						b := &c.banks[i]
						if !b.open || b.hit == hitUnknown {
							continue
						}
						want := hitNone
						for idx, r := range b.queue {
							if c.mc.TranslateRow(i, r.Row) == b.openRow {
								want = idx
								break
							}
						}
						if b.hit != want {
							t.Fatalf("%s: bank %d caches hit %d, the queue walk finds %d", when, i, b.hit, want)
						}
						compared++
					}
				}
				driveFloorCheck(c, seed, func(*Request) { check("after Enqueue") }, func(_, _ timing.Tick) { check("after Step") })
				if compared < 1000 {
					t.Fatalf("only %d cached hits compared", compared)
				}
				if c.Stats.Refs == 0 {
					t.Fatal("no refresh drain")
				}
				if tc.mc != nil && c.Stats.Swaps == 0 {
					t.Fatal("no RRS swap")
				}
				if tc.raaimt > 0 && c.Stats.RFMs == 0 {
					t.Fatal("no RFM issued")
				}
			})
		}
	}
}
