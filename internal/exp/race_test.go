package exp

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"shadow/internal/timing"
	"shadow/internal/trace"
)

// TestParallelFanOutSharedBaseline exercises the real goroutine fan-out of
// the experiment harness under the race detector: several scheme points run
// concurrently through parallelEach, all contending on the shared baseline
// cache (baselineMu). Run with -race; any unsynchronized access to the
// cache or the error slot fails the build's `go test -race ./...` gate.
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
	key := baselineKeyCount(o)
	if key != 1 {
		t.Errorf("baseline cache holds %d entries for this config, want 1", key)
	}
}

// baselineKeyCount counts cache entries carrying this test's unique seed
// (keys are "grade/duration/warmup/cores/seed/subarrays,profiles...").
func baselineKeyCount(o RunOpts) int {
	o = o.withDefaults()
	marker := fmt.Sprintf("/%d/", o.Seed)
	baselineMu.Lock()
	defer baselineMu.Unlock()
	n := 0
	for key := range baselineCache {
		if strings.Contains(key, marker) {
			n++ //shadowvet:ignore determinism -- order-independent count
		}
	}
	return n
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
