package exp

import (
	"bytes"
	"fmt"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"shadow/internal/obs"
	"shadow/internal/obs/fleet"
	"shadow/internal/timing"
	"shadow/internal/trace"
)

// fleetSweep runs a 12-point sweep (4 schemes x 3 H_cnt values, one
// workload) through runJobs with the full inspector wiring shadowexp uses:
// a fresh recorder per point handed out by WorkerProbe, point lifecycle hooks
// feeding a Collector, and a final ingest per worker. It returns the
// measured points and the collector.
func fleetSweep(t *testing.T, o RunOpts, col *fleet.Collector) []PerfPoint {
	t.Helper()
	schemes := []Scheme{Shadow, DRR, PARFM, MithrilArea}
	hcnts := []int{1024, 2048, 4096}
	profiles := trace.MixHigh(o.Cores)

	points := make([]PerfPoint, len(schemes)*len(hcnts))
	var jobs []perfJob
	for si, s := range schemes {
		for hi, h := range hcnts {
			jobs = append(jobs, perfJob{
				workload: "mix-high",
				profiles: profiles,
				pt:       Point{Scheme: s, HCnt: h, Grade: timing.DDR4_2666, Seed: o.Seed},
				out:      &points[si*len(hcnts)+hi],
			})
		}
	}

	if col != nil {
		maxWorkers := o.Workers
		if maxWorkers <= 0 {
			maxWorkers = 1
		}
		workerRecs := make([]*obs.Recorder, maxWorkers)
		wid := func(worker int) string { return fmt.Sprintf("w%d", worker) }
		// ingest hands a worker's registry to the collector, which snapshots
		// it — the same flow cmd/shadowexp uses. Runs on the worker's own
		// goroutine; the recorder is never shared.
		ingest := func(worker int) {
			if workerRecs[worker] != nil {
				col.Ingest(wid(worker), workerRecs[worker])
			}
		}
		o.OnPointsPlanned = col.ExpectPoints
		o.WorkerProbe = func(worker int, label string) *obs.Probe {
			workerRecs[worker] = obs.NewRecorder(obs.Options{Metrics: true})
			return workerRecs[worker].NewTrack(label)
		}
		o.OnPointStart = func(worker int, label, scheme string, seed uint64) {
			col.PointStart(wid(worker), label, scheme, seed)
		}
		o.OnPointProgress = func(worker int, label string, now, total timing.Tick) {
			if col.PointProgress(wid(worker), label, now, total) {
				ingest(worker)
			}
		}
		o.OnPointDone = func(worker int, label, scheme string, seed, cmdHash uint64, rel float64) {
			col.PointDone(wid(worker), label, scheme, seed, cmdHash)
			ingest(worker)
		}
	}

	if err := runJobs(jobs, o); err != nil {
		t.Fatal(err)
	}
	return points
}

// TestPointLabelInjective pins the contract the fleet divergence check
// depends on: points that build different configurations must never share
// a label, or a healthy fig9/fig10/fig11 sweep would falsely trip the
// (fatal) same-point-same-seed hash comparison. Caught live: fig9's three
// tRCD variants of one workload+H_cnt used to collide.
func TestPointLabelInjective(t *testing.T) {
	profiles := trace.MixHigh(1)
	pts := []Point{
		{Scheme: Shadow, HCnt: 4096, Grade: timing.DDR4_2666},
		{Scheme: Shadow, HCnt: 4096, Grade: timing.DDR4_2666, TRCDCycles: 23},
		{Scheme: Shadow, HCnt: 4096, Grade: timing.DDR4_2666, TRCDCycles: 25},
		{Scheme: Shadow, HCnt: 4096, Grade: timing.DDR4_2666, Blast: 1},
		{Scheme: Shadow, HCnt: 4096, Grade: timing.DDR4_2666, Blast: 5},
		{Scheme: Shadow, HCnt: 4096, Grade: timing.DDR5_4800},
		{Scheme: DRR, HCnt: 4096, Grade: timing.DDR4_2666},
		{Scheme: Shadow, HCnt: 2048, Grade: timing.DDR4_2666},
	}
	seen := map[string]Point{}
	for _, pt := range pts {
		label := pointLabel(pt, profiles)
		if prev, dup := seen[label]; dup {
			t.Errorf("label %q collides: %+v and %+v", label, prev, pt)
		}
		seen[label] = pt
	}
	// The default point keeps the short, documented form.
	if got := pointLabel(pts[0], profiles); got != "shadow/"+profiles[0].Name+"/h4096" {
		t.Errorf("default label = %q, want the short scheme/workload/hNNNN form", got)
	}
}

// sampleLine matches any exposition sample; counterLine matches a
// per-worker (shadow_counter) or fleet-total (shadow_fleet_counter) sample:
// family, escaped instrument name, the remaining labels, value.
var (
	sampleLine  = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{.*\})? \S+$`)
	counterLine = regexp.MustCompile(`^(shadow_counter|shadow_fleet_counter)\{name="((?:[^"\\]|\\.)*)"(.*)\} (\S+)$`)
)

// TestFleetSweepObservedAndNeutral is the acceptance-criteria integration
// test: a 12-point parallel sweep with the fleet layer attached (a) merges
// per-worker counters so the fleet totals account for 100% of them, (b)
// finishes with 100% fleet progress and no divergence, and (c) produces
// bit-identical results to the same-seed bare sweep — observation must not
// perturb the simulation.
func TestFleetSweepObservedAndNeutral(t *testing.T) {
	base := RunOpts{
		Duration:  20 * timing.Microsecond,
		Cores:     1,
		Subarrays: 8,
		Seed:      9100, // unique: keeps this test's baseline-cache keys distinct
		Workers:   4,
	}

	// Bare sweep first: no fleet layer at all.
	barePoints := fleetSweep(t, base, nil)

	// Fleet-attached sweep, same seed. The injected clock is frozen (reads
	// from every worker goroutine race-free because nothing mutates it).
	wall := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	col := fleet.NewCollector(func() time.Time { return wall })
	fleetPoints := fleetSweep(t, base, col)

	// (c) Observation neutrality: every point's measured relative performance
	// is bit-identical to the bare sweep's.
	if len(barePoints) != 12 || len(fleetPoints) != 12 {
		t.Fatalf("sweep sizes: bare %d, fleet %d, want 12", len(barePoints), len(fleetPoints))
	}
	for i := range barePoints {
		if barePoints[i] != fleetPoints[i] {
			t.Errorf("point %d diverged under observation: bare %+v, fleet %+v", i, barePoints[i], fleetPoints[i])
		}
	}

	// (b) Fleet accounting: every point completed, progress 100, no
	// divergence.
	fj := col.Fleet()
	if fj.PointsExpected != 12 || fj.PointsDone != 12 {
		t.Fatalf("fleet points = %d/%d, want 12/12", fj.PointsDone, fj.PointsExpected)
	}
	if fj.ProgressPercent != 100 {
		t.Fatalf("fleet progress = %v, want 100", fj.ProgressPercent)
	}
	if fj.Divergence != "" {
		t.Fatalf("divergence on a healthy sweep: %s", fj.Divergence)
	}
	seenPoints := map[string]bool{}
	for _, rec := range fj.Completed {
		if rec.CmdHash == "" || rec.CmdHash == "0x0000000000000000" {
			t.Errorf("completed point %s has no command hash", rec.Point)
		}
		seenPoints[rec.Point] = true
	}
	if len(seenPoints) != 12 {
		t.Fatalf("completed records cover %d distinct points, want 12", len(seenPoints))
	}

	// (a) Sum invariant on the merged exposition: for every instrument,
	// the fleet counter total equals the sum of the per-worker samples.
	var merged bytes.Buffer
	if err := col.WriteMetrics(&merged); err != nil {
		t.Fatal(err)
	}
	perWorker := map[string]float64{}
	fleetTotal := map[string]float64{}
	// The simulator's event counts reach the fleet sums as counters. Each
	// worker's last ingest holds only its last point, whatever its scheme,
	// so only the scheme-independent counts are sure to be there.
	counts := []string{"mc/acts", "mc/rfms", "mc/blocked_ticks", "sim/insts"}
	countTotal := map[string]float64{}
	for _, line := range bytes.Split(merged.Bytes(), []byte("\n")) {
		if len(line) == 0 || bytes.HasPrefix(line, []byte("# ")) {
			continue
		}
		if !sampleLine.Match(line) {
			t.Fatalf("merged exposition line is not a sample: %q", line)
		}
		m := counterLine.FindSubmatch(line)
		if m == nil {
			continue
		}
		v, err := strconv.ParseFloat(string(m[4]), 64)
		if err != nil {
			t.Fatalf("bad counter value in %q: %v", line, err)
		}
		name := string(m[2])
		switch string(m[1]) {
		case "shadow_counter":
			if !bytes.Contains(m[3], []byte(`,worker="`)) {
				t.Fatalf("per-worker sample without worker label: %q", line)
			}
			perWorker[name] += v
		case "shadow_fleet_counter":
			fleetTotal[name] = v
			for _, c := range counts {
				if strings.HasSuffix(name, "/"+c) {
					countTotal[c] += v
				}
			}
		}
	}
	if len(perWorker) == 0 {
		t.Fatal("no per-worker counters in merged exposition")
	}
	for name, sum := range perWorker {
		if got, ok := fleetTotal[name]; !ok || got != sum {
			t.Errorf("fleet total for %q = %v, want worker sum %v", name, got, sum)
		}
	}
	if len(fleetTotal) != len(perWorker) {
		t.Errorf("fleet totals cover %d instruments, workers expose %d", len(fleetTotal), len(perWorker))
	}
	for _, c := range counts {
		if total, ok := countTotal[c]; !ok || (c == "mc/acts" && total == 0) {
			t.Errorf("fleet counter totals for %s: present %v, sum %v", c, ok, total)
		}
	}

	// Divergence end-to-end: replaying the same points with the same seed
	// through the same collector must agree hash-for-hash — feeding it a
	// second sweep is exactly the same-point-same-seed comparison it guards.
	fleetSweep(t, base, col)
	if d := col.Divergence(); d != "" {
		t.Fatalf("same-seed replay diverged: %s", d)
	}
}
