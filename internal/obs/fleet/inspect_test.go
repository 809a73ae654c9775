package fleet

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"shadow/internal/obs"
	"shadow/internal/timing"
)

func get(t *testing.T, srv *httptest.Server, path string) (*http.Response, []byte) {
	t.Helper()
	resp, err := srv.Client().Get(srv.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, body
}

func TestFleetHandlerEndpoints(t *testing.T) {
	clk := newFakeClock()
	c := newTestCollector(clk)
	c.ExpectPoints(4)
	completePoint(c, clk, "w0", "shadow/mix/h64", 7, 0xabc, 50*time.Millisecond)
	c.PointStart("w1", "baseline/mix/h64", "baseline", 7)
	c.Ingest("w1", workerMetrics("baseline", 2))

	srv := httptest.NewServer(c.Handler())
	defer srv.Close()

	resp, body := get(t, srv, "/status.json")
	if resp.StatusCode != 200 || resp.Header.Get("Content-Type") != "application/json" {
		t.Fatalf("status.json: %d %s", resp.StatusCode, resp.Header.Get("Content-Type"))
	}
	var fj FleetJSON
	if err := json.Unmarshal(body, &fj); err != nil {
		t.Fatalf("status.json does not decode: %v\n%s", err, body)
	}
	if fj.Workers != 2 || fj.PointsDone != 1 || fj.PointsExpected != 4 {
		t.Fatalf("status.json = %+v", fj)
	}
	if len(fj.Completed) != 1 || fj.Completed[0].CmdHash != "0x0000000000000abc" {
		t.Fatalf("completed = %+v", fj.Completed)
	}
	if len(fj.WorkerList) != 2 || fj.WorkerList[0].ID != "w0" || fj.WorkerList[1].ID != "w1" {
		t.Fatalf("worker_list = %+v", fj.WorkerList)
	}

	resp, body = get(t, srv, "/metrics")
	if resp.StatusCode != 200 || resp.Header.Get("Content-Type") != obs.ContentTypePrometheus {
		t.Fatalf("metrics: %d %s", resp.StatusCode, resp.Header.Get("Content-Type"))
	}
	readSamples(t, body) // every line is a comment or a sample
	if !strings.Contains(string(body), "shadow_fleet_workers 2") {
		t.Fatalf("metrics missing roll-ups:\n%s", body)
	}

	resp, body = get(t, srv, "/healthz")
	if resp.StatusCode != 200 || string(body) != "ok\n" {
		t.Fatalf("healthz: %d %q", resp.StatusCode, body)
	}

	resp, body = get(t, srv, "/")
	if resp.StatusCode != 200 || !strings.Contains(resp.Header.Get("Content-Type"), "text/html") {
		t.Fatalf("dashboard: %d %s", resp.StatusCode, resp.Header.Get("Content-Type"))
	}
	html := string(body)
	for _, want := range []string{"shadow inspector", "w0", "w1", "baseline/mix/h64", `href="/status.json"`, `href="/blame.json"`} {
		if !strings.Contains(html, want) {
			t.Errorf("dashboard missing %q", want)
		}
	}

	for _, path := range []string{"/nope", "/status.json/x", "/trends.json"} {
		if resp, _ = get(t, srv, path); resp.StatusCode != 404 {
			t.Fatalf("%s: %d, want 404", path, resp.StatusCode)
		}
	}
}

// TestFleetHandlerEmptyCollector: before any hook every endpoint serves a
// valid empty document, not an error.
func TestFleetHandlerEmptyCollector(t *testing.T) {
	clk := newFakeClock()
	srv := httptest.NewServer(newTestCollector(clk).Handler())
	defer srv.Close()
	for path, want := range map[string]string{"/blame.json": "[]\n", "/flight.json": "{}\n"} {
		if resp, body := get(t, srv, path); resp.StatusCode != 200 || string(body) != want {
			t.Errorf("empty %s = %d %q, want %q", path, resp.StatusCode, body, want)
		}
	}
	resp, body := get(t, srv, "/status.json")
	var fj FleetJSON
	if resp.StatusCode != 200 || json.Unmarshal(body, &fj) != nil || fj.Workers != 0 {
		t.Fatalf("empty status.json: %d %s", resp.StatusCode, body)
	}
}

func TestNilCollectorHandler(t *testing.T) {
	var c *Collector
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()
	resp, _ := get(t, srv, "/status.json")
	if resp.StatusCode != 404 {
		t.Fatalf("nil handler: %d, want 404", resp.StatusCode)
	}
}

// fakeFlight is a flight-dump writer serving a fixed document.
type fakeFlight string

func (f fakeFlight) WriteDump(w io.Writer) error {
	_, err := io.WriteString(w, string(f))
	return err
}

// TestInspectorEndpoints drives a one-worker fleet the way shadowsim does
// and checks the status document, the blame source and the dashboard. The
// sources are rendered by Ingest only, which PointProgress throttles to
// once per wall second.
func TestInspectorEndpoints(t *testing.T) {
	clk := newFakeClock()
	c := newTestCollector(clk)
	blameCalls := 0
	c.SetSources(Sources{Blame: func() []byte { blameCalls++; return []byte(`[{"label":"run<1>"}]`) }})
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()

	rec := obs.NewRecorder(obs.Options{Events: true})
	probe := rec.NewTrack("run")
	for i := 0; i < 42; i++ {
		probe.Emit(obs.Event{Kind: obs.KindACT})
	}
	const point = "fig8/mix/h4096"
	total := 100 * timing.Microsecond
	progress := func(now timing.Tick) {
		if c.PointProgress("w0", point, now, total) {
			c.Ingest("w0", rec)
		}
	}
	status := func() WorkerJSON {
		t.Helper()
		_, body := get(t, srv, "/status.json")
		var fj FleetJSON
		if err := json.Unmarshal(body, &fj); err != nil || len(fj.WorkerList) != 1 {
			t.Fatalf("status.json: %v\n%s", err, body)
		}
		return fj.WorkerList[0]
	}

	c.ExpectPoints(1)
	c.PointStart("w0", point, "shadow", 1)
	progress(25 * timing.Microsecond)
	wk := status()
	if wk.Point != point || wk.Done || wk.Percent != 25 || wk.Events != 42 {
		t.Errorf("status = %+v", wk)
	}
	if wk.SimNowPS != int64(25*timing.Microsecond) || wk.SimTotalPS != int64(total) {
		t.Errorf("sim times = %d/%d", wk.SimNowPS, wk.SimTotalPS)
	}
	if _, body := get(t, srv, "/blame.json"); !strings.Contains(string(body), "run<1>") {
		t.Errorf("/blame.json = %q", body)
	}
	if _, body := get(t, srv, "/"); !strings.Contains(string(body), "run&lt;1&gt;") {
		t.Errorf("dashboard does not show the escaped blame:\n%s", body)
	}

	// Progress inside the refresh window updates the status but does not
	// re-run the sources.
	calls := blameCalls
	clk.advance(300 * time.Millisecond)
	progress(50 * timing.Microsecond)
	if blameCalls != calls {
		t.Errorf("sources re-ran inside the refresh window (%d -> %d)", calls, blameCalls)
	}
	if wk := status(); wk.Percent != 50 || wk.ElapsedSec != 0.3 {
		t.Errorf("inside the window: percent %v elapsed %v, want 50 and 0.3", wk.Percent, wk.ElapsedSec)
	}
	clk.advance(time.Second)
	progress(75 * timing.Microsecond)
	if blameCalls == calls {
		t.Error("sources did not refresh after the window elapsed")
	}

	// Done: the point reads complete and its elapsed time stops.
	c.PointDone("w0", point, "shadow", 1, 0x1)
	c.Ingest("w0", rec)
	clk.advance(time.Minute)
	if wk := status(); !wk.Done || wk.Percent != 100 || wk.SimNowPS != int64(total) || wk.ElapsedSec != 1.3 {
		t.Errorf("final status = %+v", wk)
	}
}

// TestInspectorScrapeEndpoints covers the Prometheus exposition of a
// one-worker fleet, the flight source, and the no-store cache contract on
// every endpoint.
func TestInspectorScrapeEndpoints(t *testing.T) {
	clk := newFakeClock()
	c := newTestCollector(clk)
	c.SetSources(Sources{Flight: fakeFlight(`{"capacity":8,"events":[]}` + "\n")})
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()

	// Before any ingest: a valid empty flight document.
	if resp, body := get(t, srv, "/flight.json"); resp.StatusCode != 200 || string(body) != "{}\n" {
		t.Errorf("pre-run /flight.json = %d %q", resp.StatusCode, body)
	}

	rec := obs.NewRecorder(obs.Options{Metrics: true, Events: true})
	probe := rec.NewTrack("run")
	probe.Counter("dram/flips_total").Add(2)
	for i := 0; i < 7; i++ {
		probe.Emit(obs.Event{Kind: obs.KindACT})
	}
	c.PointStart("w0", "shadow/mix", "shadow", 1)
	c.PointProgress("w0", "shadow/mix", 30*timing.Microsecond, 60*timing.Microsecond)
	c.Ingest("w0", rec)

	_, body := get(t, srv, "/metrics")
	for _, want := range []string{
		`shadow_fleet_worker_progress_ratio{worker="w0",point="shadow/mix"} 0.5`,
		`shadow_fleet_worker_done{worker="w0",point="shadow/mix"} 0`,
		`shadow_fleet_worker_events_total{worker="w0",point="shadow/mix"} 7`,
		`shadow_fleet_worker_sim_total_picoseconds{worker="w0",point="shadow/mix"} 60000000`,
		`shadow_counter{name="run/dram/flips_total",worker="w0",scheme="shadow",point="shadow/mix"} 2`,
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("/metrics missing %q:\n%s", want, body)
		}
	}
	readSamples(t, body)

	if _, body := get(t, srv, "/flight.json"); !strings.Contains(string(body), `"capacity":8`) {
		t.Errorf("/flight.json = %q", body)
	}
	for _, path := range []string{"/", "/status.json", "/metrics", "/blame.json", "/flight.json", "/healthz"} {
		if resp, _ := get(t, srv, path); resp.Header.Get("Cache-Control") != "no-store" {
			t.Errorf("%s lacks Cache-Control: no-store (%v)", path, resp.Header["Cache-Control"])
		}
	}

	c.PointDone("w0", "shadow/mix", "shadow", 1, 0x1)
	if _, body := get(t, srv, "/metrics"); !strings.Contains(string(body), `shadow_fleet_worker_done{worker="w0",point="shadow/mix"} 1`) {
		t.Errorf("/metrics after PointDone:\n%s", body)
	}
}

// TestInspectorNewPointResetsRate checks a worker's new point restarts its
// rate baseline instead of blending two points' progress.
func TestInspectorNewPointResetsRate(t *testing.T) {
	clk := newFakeClock()
	c := newTestCollector(clk)
	total := 100 * timing.Microsecond
	c.PointStart("w0", "a", "shadow", 1)
	c.PointProgress("w0", "a", 10*timing.Microsecond, total)
	clk.advance(2 * time.Second)
	c.PointProgress("w0", "a", 90*timing.Microsecond, total)
	if got := c.Fleet().WorkerList[0].SimUSPerSec; got != 45 {
		t.Fatalf("rate = %v sim-us/s, want 45 (90 sim-us over the point's 2 s)", got)
	}

	c.PointDone("w0", "a", "shadow", 1, 0x1)
	c.PointStart("w0", "b", "shadow", 1)
	c.PointProgress("w0", "b", 5*timing.Microsecond, total)
	if wk := c.Fleet().WorkerList[0]; wk.Point != "b" || wk.SimUSPerSec != 0 {
		t.Errorf("rate carried across points: %+v", wk)
	}
	clk.advance(time.Second)
	c.PointProgress("w0", "b", 30*timing.Microsecond, total)
	if got := c.Fleet().WorkerList[0].SimUSPerSec; got != 30 {
		t.Errorf("rate = %v sim-us/s, want 30 (30 sim-us over point b's 1 s)", got)
	}
}

// TestInspectorShortPointRate: a point shorter than the one-second ingest
// throttle still reads its own rate, while in flight and once done, on the
// status document and on /metrics.
func TestInspectorShortPointRate(t *testing.T) {
	clk := newFakeClock()
	c := newTestCollector(clk)
	total := 100 * timing.Microsecond
	c.PointStart("w0", "a", "shadow", 1)
	c.PointProgress("w0", "a", 0, total)
	clk.advance(250 * time.Millisecond)
	c.PointProgress("w0", "a", 50*timing.Microsecond, total)
	if got := c.Fleet().WorkerList[0].SimUSPerSec; got != 200 {
		t.Fatalf("in flight: rate = %v sim-us/s, want 200 (50 sim-us over 0.25 s)", got)
	}
	clk.advance(250 * time.Millisecond)
	c.PointDone("w0", "a", "shadow", 1, 0x1)
	clk.advance(time.Second) // the done point's rate stops at its end
	if got := c.Fleet().WorkerList[0].SimUSPerSec; got != 200 {
		t.Fatalf("done: rate = %v sim-us/s, want 200 (100 sim-us over 0.5 s)", got)
	}
	var b bytes.Buffer
	if err := c.WriteMetrics(&b); err != nil {
		t.Fatal(err)
	}
	if want := `shadow_fleet_worker_sim_us_per_second{worker="w0",point="a"} 200`; !strings.Contains(b.String(), want) {
		t.Errorf("/metrics lacks %q:\n%s", want, b.String())
	}
}

// TestInspectorPerPointGauges is the last-writer-clobber regression: a sweep
// moving through several points must keep one progress/done series per
// point on /metrics instead of a single series that only describes the
// latest.
func TestInspectorPerPointGauges(t *testing.T) {
	clk := newFakeClock()
	c := newTestCollector(clk)
	total := 100 * timing.Microsecond
	c.PointStart("w0", "shadow/mix/h64", "shadow", 1)
	c.PointProgress("w0", "shadow/mix/h64", 50*timing.Microsecond, total)
	c.PointDone("w0", "shadow/mix/h64", "shadow", 1, 0x1)
	c.PointStart("w0", "parfm/mix/h64", "parfm", 1)
	c.PointProgress("w0", "parfm/mix/h64", 25*timing.Microsecond, total)

	scrape := func() string {
		var b bytes.Buffer
		if err := c.WriteMetrics(&b); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	body := scrape()
	for _, want := range []string{
		`shadow_fleet_point_progress_ratio{point="shadow/mix/h64"} 1`,
		`shadow_fleet_point_progress_ratio{point="parfm/mix/h64"} 0.25`,
		`shadow_fleet_point_done{point="shadow/mix/h64"} 1`,
		`shadow_fleet_point_done{point="parfm/mix/h64"} 0`,
		// The worker series describes the current point only.
		`shadow_fleet_worker_progress_ratio{worker="w0",point="parfm/mix/h64"} 0.25`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q:\n%s", want, body)
		}
	}

	c.PointDone("w0", "parfm/mix/h64", "parfm", 1, 0x2)
	body = scrape()
	for _, want := range []string{
		`shadow_fleet_point_done{point="parfm/mix/h64"} 1`,
		`shadow_fleet_point_progress_ratio{point="parfm/mix/h64"} 1`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics after PointDone missing %q:\n%s", want, body)
		}
	}
}

func TestDashboardEscapesHostileLabels(t *testing.T) {
	clk := newFakeClock()
	c := newTestCollector(clk)
	c.PointStart("w0", `<script>alert("x")</script>`, "s", 1)
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()
	_, body := get(t, srv, "/")
	if strings.Contains(string(body), "<script>alert") {
		t.Fatal("dashboard does not escape point labels")
	}
}

// TestInspectorScrapeDuringIngest scrapes every endpoint while four workers
// run their hooks, and Ingest renders the sources, on their own goroutines:
// under -race it checks that the handlers read only state the collector's
// lock orders.
func TestInspectorScrapeDuringIngest(t *testing.T) {
	c := newTestCollector(newFakeClock()) // never advanced: reads only
	c.SetSources(Sources{
		Blame:  func() []byte { return []byte("[]\n") },
		Flight: fakeFlight("{}\n"),
	})
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()

	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(id string) {
			defer wg.Done()
			rec := workerMetrics("shadow", 1)
			for i := 0; i < 50; i++ {
				point := fmt.Sprintf("p%d", i)
				c.PointStart(id, point, "shadow", uint64(i))
				c.PointProgress(id, point, 1, 2)
				c.Ingest(id, rec)
				c.PointDone(id, point, "shadow", uint64(i), 0x1)
			}
		}(fmt.Sprintf("w%d", w))
	}
	for i := 0; i < 5; i++ {
		for _, path := range []string{"/", "/status.json", "/metrics", "/blame.json", "/flight.json"} {
			if resp, _ := get(t, srv, path); resp.StatusCode != 200 {
				t.Errorf("%s: %d", path, resp.StatusCode)
			}
		}
	}
	wg.Wait()
	if fj := c.Fleet(); fj.PointsDone != 200 || fj.Divergence != "" {
		t.Fatalf("after the sweep: %d points done, divergence %q", fj.PointsDone, fj.Divergence)
	}
}
