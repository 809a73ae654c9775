package sim

import (
	"fmt"
	"testing"

	"shadow/internal/hammer"
	"shadow/internal/mitigate"
	"shadow/internal/obs/span"
	"shadow/internal/timing"
	"shadow/internal/trace"
)

// TestCoreMinTracksCoreAt checks that runner.coreMin equals min(coreAt)
// after every wakeup: the wheel skips the core walk whenever coreMin lies in
// the future, so a coreMin above the true minimum would skip a due core. The
// inputs cover 1 to 64 cores on one and two channels, saturated bank queues
// (cores park and are re-armed by dequeues) and a BlockHammer run with spans
// attached (every clamped wakeup re-arms every parked core).
func TestCoreMinTracksCoreAt(t *testing.T) {
	cases := []struct {
		cores, channels int
		conflict        bool // four rows per bank, no row locality: queues saturate
		blockhammer     bool // BlockHammer at H_cnt 64 plus spans: the clamp
	}{
		{cores: 1, channels: 1},
		{cores: 4, channels: 2},
		{cores: 16, channels: 1},
		{cores: 16, channels: 2},
		{cores: 64, channels: 1, conflict: true},
		{cores: 64, channels: 2, conflict: true},
		{cores: 64, channels: 1, conflict: true, blockhammer: true},
	}
	for _, tc := range cases {
		tc := tc
		name := fmt.Sprintf("%dc-%dch", tc.cores, tc.channels)
		if tc.conflict {
			name += "-conflict"
		}
		if tc.blockhammer {
			name += "-blockhammer-spans"
		}
		t.Run(name, func(t *testing.T) {
			p := baseParams()
			g := smallGeo()
			wlGeo := g
			wlGeo.Banks = g.Banks * tc.channels
			profiles := trace.MixHigh(tc.cores)
			for i := range profiles {
				profiles[i].WorkingSetRows = 1 << 10
				if tc.conflict {
					profiles[i].WorkingSetRows = 4
					profiles[i].RowLocality = 0
				}
			}
			cfg := Config{
				Params:   p,
				Geometry: g,
				Hammer:   hammer.Config{HCnt: 4096, BlastRadius: 3},
				Channels: tc.channels,
				Workload: trace.Generators(profiles, wlGeo, 7),
				Duration: 40 * timing.Microsecond,
			}
			if tc.blockhammer {
				cfg.MCSideFor = func(ch int) mitigate.MCSide {
					return mitigate.NewBlockHammer(mitigate.BlockHammerConfig{
						Hammer: hammer.Config{HCnt: 64, BlastRadius: 3},
						REFW:   4 * timing.Microsecond,
						Seed:   uint64(ch) + 3,
					})
				}
				cfg.Spans = span.NewCollector(4096)
			}
			r, err := newRunner(cfg)
			if err != nil {
				t.Fatal(err)
			}
			parkedSeen, clampSeen, skipped := false, false, 0
			for r.now < cfg.Duration {
				walk := r.coreMin <= r.now
				r.tick()
				if !walk {
					skipped++
				}
				want := timing.Forever
				for _, at := range r.coreAt {
					if at < want {
						want = at
					}
				}
				if r.coreMin != want {
					t.Fatalf("at %v: coreMin %v, min(coreAt) %v", r.now, r.coreMin, want)
				}
				// A clamped wakeup re-arms every parked core before it
				// returns, so a core's backoff flag is what shows it met a
				// full queue.
				for _, c := range r.cores {
					parkedSeen = parkedSeen || c.backoff
				}
				for _, ctl := range r.ctls {
					clampSeen = clampSeen || ctl.Volatile()
				}
			}
			if skipped == 0 {
				t.Error("no wakeup skipped the core walk")
			}
			if tc.conflict && !parkedSeen {
				t.Error("no core parked on a full queue")
			}
			if tc.blockhammer && !clampSeen {
				t.Error("no wakeup was clamped")
			}
		})
	}
}
