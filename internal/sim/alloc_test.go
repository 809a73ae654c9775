package sim

import (
	"fmt"
	"testing"

	"shadow/internal/dram"
	"shadow/internal/hammer"
	"shadow/internal/memctrl"
	"shadow/internal/obs"
	"shadow/internal/obs/flight"
	"shadow/internal/obs/span"
	"shadow/internal/shadow"
	"shadow/internal/timing"
	"shadow/internal/trace"
)

// The perf contract of the event-driven scheduler is a zero-allocation
// steady state: once the Request slab, per-core returns, and per-bank
// readiness structures are warm, neither the simulator's issue/retire loop
// nor Controller.Step may touch the heap. These tests pin that with
// testing.AllocsPerRun so a regression (a stray append past capacity, a
// recycled object escaping, a map in the hot path) fails CI rather than
// silently costing GC time.

// steadyRunner builds a runner over cfg's scheme and instruments, fed by
// the given number of MixHigh cores on one channel, and pumps it past
// warmup so pools and queue capacities have reached their high-water marks.
func steadyRunner(t *testing.T, cores int, cfg Config) *runner {
	t.Helper()
	cfg.Geometry = smallGeo()
	profiles := trace.MixHigh(cores)
	for i := range profiles {
		profiles[i].WorkingSetRows = 1 << 10
	}
	cfg.Hammer = hammer.Config{HCnt: 1 << 20, BlastRadius: 3}
	cfg.Workload = trace.Generators(profiles, cfg.Geometry, 42)
	cfg.Duration = timing.Second // far beyond what the test ever simulates
	r, err := newRunner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Warm up past several refresh intervals so REF scheduling, bank queue
	// growth, and the free-list round trip have all happened at least once.
	for r.now < 30*timing.Microsecond {
		r.tick()
	}
	return r
}

// TestTickDoesNotAllocate runs every scheme of the scheduler-equivalence
// matrix, with span tracking off and on, so the device-side, MC-side and
// span-tracker hot paths are all held to 0 allocs/op.
func TestTickDoesNotAllocate(t *testing.T) {
	for _, sc := range equivSchemes(equivHammer, smallGeo().PARowsPerBank()) {
		t.Run(sc.name, func(t *testing.T) {
			for _, spans := range []bool{false, true} {
				t.Run(fmt.Sprintf("spans=%t", spans), func(t *testing.T) {
					cfg := Config{Params: sc.params(baseParams())}
					sc.build(&cfg, 99)
					if spans {
						cfg.Spans = span.NewCollector(4096)
					}
					r := steadyRunner(t, 2, cfg)
					if avg := testing.AllocsPerRun(2000, r.tick); avg != 0 {
						t.Errorf("runner.tick allocates %.3f objects/op in steady state; want 0", avg)
					}
				})
			}
		})
	}
}

// TestSaturatedTickDoesNotAllocate pins the wheel's queue-full parking:
// 16 memory-bound cores on one channel keep bank queues full, so cores park
// and OnComplete re-arms them on every dequeue from their bank, all at
// 0 allocs/op.
func TestSaturatedTickDoesNotAllocate(t *testing.T) {
	r := steadyRunner(t, 16, Config{Params: shadowParams(64), DeviceMit: shadow.New(shadow.Options{Seed: 99})})
	sawParked := false
	tick := func() {
		r.tick()
		for _, c := range r.cores {
			sawParked = sawParked || c.backoff
		}
	}
	if avg := testing.AllocsPerRun(2000, tick); avg != 0 {
		t.Errorf("runner.tick (wheel, saturated) allocates %.3f objects/op in steady state; want 0", avg)
	}
	if !sawParked {
		t.Fatal("no core parked on a full queue; the 0-alloc result is vacuous")
	}
}

// TestTickWithFlightDoesNotAllocate pins the always-on telemetry lane: a
// probe whose recorder tees every event into a flight ring (no metrics
// registry, no growable event log — the budgeted production config's event
// path) must keep the steady-state loop at 0 allocs/op. Event structs are
// built on the stack and the ring overwrites in place, so enabling the
// flight recorder costs copies, never heap.
func TestTickWithFlightDoesNotAllocate(t *testing.T) {
	ring := flight.NewRing(flight.DefaultCapacity)
	rec := obs.NewRecorder(obs.Options{Flight: ring})
	r := steadyRunner(t, 2, Config{
		Params:    shadowParams(64),
		DeviceMit: shadow.New(shadow.Options{Seed: 99}),
		Probe:     rec.NewTrack("flight"),
	})
	if avg := testing.AllocsPerRun(2000, r.tick); avg != 0 {
		t.Errorf("runner.tick with flight recorder allocates %.3f objects/op in steady state; want 0", avg)
	}
	if ring.Total() == 0 {
		t.Fatal("flight ring recorded nothing; the 0-alloc result is vacuous")
	}
}

func TestControllerStepDoesNotAllocate(t *testing.T) {
	p := baseParams()
	dev, err := dram.NewDevice(dram.Config{
		Geometry: dram.TestGeometry(),
		Params:   p,
		Hammer:   hammer.Config{HCnt: 1 << 20, BlastRadius: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	mc := memctrl.New(dev, memctrl.Options{ClosedPage: true})

	// Single-request hammer loop (the attack runner's shape): one recycled
	// Request, every access a fresh activation.
	var reqStore memctrl.Request
	pat := &trace.SingleSided{Bank: 0, Row: 16}
	now := timing.Tick(0)
	var cur *memctrl.Request
	iter := func() {
		if cur == nil || cur.Done > 0 {
			if cur != nil && cur.Done > now {
				now = cur.Done
			}
			bank, row := pat.NextRow()
			cur = &reqStore
			*cur = memctrl.Request{Bank: bank, Row: row, Arrive: now}
			if !mc.Enqueue(cur) {
				t.Fatal("enqueue failed")
			}
		}
		next := mc.Step(now)
		if next > now {
			if cur != nil && cur.Done > 0 && cur.Done < next {
				next = cur.Done
			}
			now = next
		}
	}
	// Warm up through a few refresh intervals.
	for now < 30*timing.Microsecond {
		iter()
	}
	if avg := testing.AllocsPerRun(2000, iter); avg != 0 {
		t.Errorf("Enqueue+Step allocates %.3f objects/op in steady state; want 0", avg)
	}
}
