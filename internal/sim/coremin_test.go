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

// TestCoreMinTracksCoreAt checks the wheel's core keys after every wakeup:
// coreMin equals min(coreAt), each groupMin entry equals the minimum of its
// group's coreAt, and every stalled core's coreAt equals the later of its
// next issue time and its earliest pending return. The wheel skips the core
// walk whenever coreMin lies in the future and a group whenever its minimum
// does, so a summary above the true minimum would skip a due core; and a
// completion wakes the wheel only through its stalled core's key, so a key
// above that return would unstall the core late. The inputs cover 1 to 64
// cores (a partial last group included), cores stalled on two MSHRs,
// saturated bank queues (cores park and are re-armed by dequeues) and a
// BlockHammer run with spans attached, which must blacklist ACTs so that
// throttled banks wait on their epoch release.
func TestCoreMinTracksCoreAt(t *testing.T) {
	cases := []struct {
		cores       int
		mshr        int  // 0: the default
		conflict    bool // four rows per bank, no row locality: queues saturate
		blockhammer bool // BlockHammer at H_cnt 64 plus spans: throttled ACTs
	}{
		{cores: 1},
		{cores: 12, mshr: 2},
		{cores: 16},
		{cores: 64, conflict: true},
		{cores: 64, conflict: true, blockhammer: true},
	}
	for _, tc := range cases {
		tc := tc
		// The -1ch suffix names the one channel a run simulates.
		name := fmt.Sprintf("%dc-1ch", tc.cores)
		if tc.mshr > 0 {
			name += fmt.Sprintf("-mshr%d", tc.mshr)
		}
		if tc.conflict {
			name += "-conflict"
		}
		if tc.blockhammer {
			name += "-blockhammer-spans"
		}
		t.Run(name, func(t *testing.T) {
			p := baseParams()
			g := smallGeo()
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
				Workload: trace.Generators(profiles, g, 7),
				Duration: 40 * timing.Microsecond,
				MSHR:     tc.mshr,
			}
			var bh *mitigate.BlockHammer
			if tc.blockhammer {
				bh = mitigate.NewBlockHammer(mitigate.BlockHammerConfig{
					Hammer: hammer.Config{HCnt: 64, BlastRadius: 3},
					REFW:   4 * timing.Microsecond,
					Seed:   3,
				})
				cfg.MCSide = bh
				cfg.Spans = span.NewCollector()
			}
			r, err := newRunner(cfg)
			if err != nil {
				t.Fatal(err)
			}
			parkedSeen, stallSeen, skipped := false, false, 0
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
				for g, got := range r.groupMin {
					want := timing.Forever
					for _, at := range r.coreAt[g*coreGroup : min((g+1)*coreGroup, len(r.coreAt))] {
						want = min(want, at)
					}
					if got != want {
						t.Fatalf("at %v: groupMin[%d] %v, min of its coreAt %v", r.now, g, got, want)
					}
				}
				for id, c := range r.cores {
					if !c.stalled {
						continue
					}
					stallSeen = true
					want := timing.Forever
					for _, at := range c.returns {
						want = min(want, at)
					}
					if want = max(want, c.nextIssueAt); r.coreAt[id] != want {
						t.Fatalf("at %v: stalled core %d keyed %v, want %v", r.now, id, r.coreAt[id], want)
					}
				}
				// A dequeue may re-arm every parked core within the wakeup,
				// so a core's backoff flag is what shows it met a full queue.
				for _, c := range r.cores {
					parkedSeen = parkedSeen || c.backoff
				}
			}
			if skipped == 0 {
				t.Error("no wakeup skipped the core walk")
			}
			if tc.mshr > 0 && !stallSeen {
				t.Error("no core stalled on its MSHRs")
			}
			if tc.conflict && !parkedSeen {
				t.Error("no core parked on a full queue")
			}
			if tc.blockhammer && bh.Blacklisted == 0 {
				t.Error("BlockHammer blacklisted no ACT")
			}
		})
	}
}
