package exp

import (
	"errors"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"shadow/internal/timing"
	"shadow/internal/trace"
)

// TestParallelFanOutSharedBaseline exercises the real goroutine fan-out of
// the experiment harness under the race detector: several scheme points run
// concurrently through parallelEach, all contending on the one baseline
// cache entry of their key. Run with -race; any unsynchronized access to
// the cache or the error slot fails the build's `go test -race ./...` gate.
func TestParallelFanOutSharedBaseline(t *testing.T) {
	o := RunOpts{
		Duration:  20 * timing.Microsecond,
		Cores:     1,
		Subarrays: 8,
		Seed:      7001, // keys distinct from other tests' cache entries
		Workers:   8,
	}
	schemes := []Scheme{Shadow, DRR, PARFM, MithrilArea}
	rel := make([]float64, len(schemes))
	err := parallelEach(len(schemes), o.Workers, func(_, i int) error {
		ws, _, err := runPoint(Point{
			Scheme: schemes[i], HCnt: 4096, Grade: timing.DDR4_2666, Seed: o.Seed,
		}, trace.MixHigh(o.Cores), o)
		rel[i] = ws
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, ws := range rel {
		if ws <= 0 || ws > 1.2 {
			t.Errorf("%s: relative performance %.3f implausible", schemes[i], ws)
		}
	}
	// Every point shares one workload/grade/opts key: the baseline must have
	// been simulated once and served from the cache afterwards.
	if entries := baselineEntries(o); len(entries) != 1 || entries[0].runs != 1 {
		t.Errorf("baseline cache holds %d entries for this config, want 1 simulated once", len(entries))
	}
}

// baselineEntries returns the cache entries carrying o's seed (keys are
// "grade/duration/warmup/cores/seed/subarrays,profiles..."), sorted by key.
// Each test that inspects the cache uses a seed no other test uses.
func baselineEntries(o RunOpts) []*baselineEntry {
	o = o.withDefaults()
	marker := fmt.Sprintf("/%d/", o.Seed)
	baselineMu.Lock()
	defer baselineMu.Unlock()
	var keys []string
	for key := range baselineCache {
		if strings.Contains(key, marker) {
			keys = append(keys, key) //shadowvet:ignore determinism -- sorted below
		}
	}
	sort.Strings(keys)
	entries := make([]*baselineEntry, len(keys))
	for i, key := range keys {
		entries[i] = baselineCache[key]
	}
	return entries
}

// dropBaselines removes the cache entries carrying o's seed.
func dropBaselines(o RunOpts) {
	o = o.withDefaults()
	marker := fmt.Sprintf("/%d/", o.Seed)
	baselineMu.Lock()
	defer baselineMu.Unlock()
	for key := range baselineCache {
		if strings.Contains(key, marker) {
			delete(baselineCache, key)
		}
	}
}

// TestRunJobsBaselinesInFanOut runs a three-workload sweep with its
// baselines inside the 4-worker fan-out: every baseline key must be
// simulated exactly once and cached without its devices, OnPointsPlanned
// must count the scheme points only, and every Rel must be bit-equal to a
// serial run's.
func TestRunJobsBaselinesInFanOut(t *testing.T) {
	o := RunOpts{
		Duration:  20 * timing.Microsecond,
		Cores:     2, // one core would give mix-high and mix-blend one profile
		Subarrays: 8,
		Seed:      7002, // keys distinct from other tests' cache entries
	}
	wnames := []string{"mix-high", "mix-blend", "mix-random"}
	schemes := []Scheme{Shadow, PARFM, MithrilArea}
	sweep := func(workers int) []PerfPoint {
		t.Helper()
		ow := o
		ow.Workers = workers
		planned := 0
		ow.OnPointsPlanned = func(n int) { planned += n }
		points := make([]PerfPoint, len(wnames)*len(schemes))
		var jobs []perfJob
		for _, w := range wnames {
			for _, s := range schemes {
				jobs = append(jobs, perfJob{
					workload: w,
					profiles: mixByName(w, o.Cores),
					pt:       Point{Scheme: s, HCnt: 4096, Grade: timing.DDR4_2666, Seed: o.Seed},
					out:      &points[len(jobs)],
				})
			}
		}
		if err := runJobs(jobs, ow); err != nil {
			t.Fatal(err)
		}
		if planned != len(jobs) {
			t.Errorf("workers %d: OnPointsPlanned counted %d, want the %d scheme points", workers, planned, len(jobs))
		}
		return points
	}
	serial := sweep(1)
	dropBaselines(o)
	parallel := sweep(4)
	entries := baselineEntries(o)
	if len(entries) != len(wnames) {
		t.Fatalf("%d baseline entries, want one per workload (%d)", len(entries), len(wnames))
	}
	for i, e := range entries {
		if e.runs != 1 || e.err != nil || e.res == nil {
			t.Errorf("baseline %d: %d simulations (err %v), want exactly 1", i, e.runs, e.err)
			continue
		}
		if e.res.Device != nil || len(e.res.IPC) != o.Cores {
			t.Errorf("baseline %d keeps Device %p and %d IPCs; want no device and %d IPCs",
				i, e.res.Device, len(e.res.IPC), o.Cores)
		}
	}
	for i := range serial {
		if serial[i] != parallel[i] {
			t.Errorf("point %d: 4 workers gave %+v, 1 worker %+v", i, parallel[i], serial[i])
		}
	}
}

// checkGoroutinesExit fails t unless the goroutine count falls back to
// before within about two seconds: parallelEach must not return while a
// worker is still running.
func checkGoroutinesExit(t *testing.T, before int) {
	t.Helper()
	for i := 0; runtime.NumGoroutine() > before; i++ {
		if i == 2000 {
			t.Fatalf("%d goroutines outlived the call (before: %d)", runtime.NumGoroutine()-before, before)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestParallelEachErrorFirstWins hammers the error path: many workers fail
// concurrently and exactly one error must surface, with errMu keeping the
// write race-free (verified by -race). Every worker exits, error or not.
func TestParallelEachErrorFirstWins(t *testing.T) {
	before := runtime.NumGoroutine()
	boom := errors.New("exp: synthetic failure")
	var calls atomic.Int64
	err := parallelEach(200, 8, func(_, i int) error {
		calls.Add(1)
		if i%3 == 0 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the synthetic failure", err)
	}
	if calls.Load() == 0 || calls.Load() > 200 {
		t.Fatalf("calls = %d out of range", calls.Load())
	}
	checkGoroutinesExit(t, before)
}

// TestParallelEachCoversAll checks the work-stealing index distribution:
// every index runs exactly once across workers, and every worker exits.
func TestParallelEachCoversAll(t *testing.T) {
	before := runtime.NumGoroutine()
	const n = 500
	var hits [n]atomic.Int32
	if err := parallelEach(n, 16, func(_, i int) error {
		hits[i].Add(1)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for i := range hits {
		if got := hits[i].Load(); got != 1 {
			t.Fatalf("index %d ran %d times, want 1", i, got)
		}
	}
	checkGoroutinesExit(t, before)
}
