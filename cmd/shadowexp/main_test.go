package main

import (
	"io"
	"net/http/httptest"
	"regexp"
	"strings"
	"testing"
	"time"

	"shadow/internal/exp"
	"shadow/internal/obs"
	"shadow/internal/obs/fleet"
	"shadow/internal/obs/flight"
	"shadow/internal/timing"
)

// TestSequentialSweepShowsSharedRecorder: when ProbeFor owns the probes
// (-trace-out, -metrics-out, -flight) the sweep runs sequentially and
// observe ingests the shared recorder as worker w0, so the instruments it
// records reach the inspector's /metrics.
func TestSequentialSweepShowsSharedRecorder(t *testing.T) {
	rec := obs.NewRecorder(obs.Options{Metrics: true})
	o := exp.RunOpts{
		Duration:  5 * timing.Microsecond,
		Cores:     1,
		Subarrays: 8,
		Seed:      9200,
		ProbeFor:  rec.NewTrack,
	}
	wall := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	col := fleet.NewCollector(func() time.Time { return wall })
	observe(&o, col, rec, flight.NewWatch(nil))
	if _, _, err := exp.Fig8(o); err != nil {
		t.Fatal(err)
	}

	fj := col.Fleet()
	if fj.Workers != 1 || fj.PointsExpected == 0 || fj.PointsDone != fj.PointsExpected {
		t.Fatalf("status: %d workers, %d/%d points; want 1 worker and every point done",
			fj.Workers, fj.PointsDone, fj.PointsExpected)
	}

	srv := httptest.NewServer(col.Handler())
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	instruments := 0
	for _, line := range strings.Split(string(body), "\n") {
		if strings.HasPrefix(line, "shadow_") && !strings.HasPrefix(line, "shadow_fleet_") &&
			strings.Contains(line, `worker="w0"`) {
			instruments++
		}
	}
	if instruments == 0 {
		t.Fatalf("/metrics shows no instrument of the shared recorder:\n%s", body)
	}
}

// TestWorkerRecorderIsPerPoint: when WorkerProbe owns the probes (the
// parallel sweep's wiring, here at -workers 1), each point records into a
// fresh recorder, so after every point the inspector's /metrics names only
// that point's instruments, none of the worker's earlier points'.
func TestWorkerRecorderIsPerPoint(t *testing.T) {
	o := exp.RunOpts{
		Duration:  5 * timing.Microsecond,
		Cores:     1,
		Subarrays: 8,
		Seed:      9200,
		Workers:   1,
	}
	wall := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	col := fleet.NewCollector(func() time.Time { return wall })
	observe(&o, col, nil, flight.NewWatch(nil))
	srv := httptest.NewServer(col.Handler())
	defer srv.Close()

	nameRE := regexp.MustCompile(`name="([^"]*)"`)
	points := 0
	done := o.OnPointDone
	o.OnPointDone = func(worker int, label, scheme string, seed, cmdHash uint64, rel float64) {
		done(worker, label, scheme, seed, cmdHash, rel)
		points++
		resp, err := srv.Client().Get(srv.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		instruments := 0
		for _, line := range strings.Split(string(body), "\n") {
			if !strings.HasPrefix(line, "shadow_") || strings.HasPrefix(line, "shadow_fleet_") {
				continue
			}
			m := nameRE.FindStringSubmatch(line)
			if m == nil {
				continue
			}
			instruments++
			if !strings.HasPrefix(m[1], label+"/") {
				t.Fatalf("point %d (%s): /metrics names instrument %q of another point", points, label, m[1])
			}
		}
		if instruments == 0 {
			t.Fatalf("point %d (%s): /metrics shows no instrument:\n%s", points, label, body)
		}
	}
	if _, _, err := exp.Fig8(o); err != nil {
		t.Fatal(err)
	}
	if points < 2 {
		t.Fatalf("%d points ran; the check needs a second point on the same worker", points)
	}
}
