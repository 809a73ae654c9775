package obs

import (
	"encoding/json"
	"io"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"shadow/internal/timing"
)

// TestInspectorEndpoints drives an inspector with a stepped fake clock and
// checks the JSON endpoints and the overview serve coherent snapshots.
func TestInspectorEndpoints(t *testing.T) {
	now := time.Unix(0, 0)
	clock := func() time.Time { return now }
	ins := NewInspector(clock)

	rec := NewRecorder(Options{Events: true})
	probe := rec.NewTrack("run")
	for i := 0; i < 42; i++ {
		probe.Emit(Event{Kind: KindACT})
	}
	blameCalls := 0
	ins.SetSources(InspectorSources{
		Recorder: rec,
		Blame:    func() []byte { blameCalls++; return []byte(`[{"label":"run<1>"}]`) },
	})

	srv := httptest.NewServer(ins.Handler())
	defer srv.Close()

	get := func(path string) (int, string) {
		t.Helper()
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, string(body)
	}

	// Before any observation: valid empty documents, not errors.
	if code, body := get("/blame.json"); code != 200 || body != "[]\n" {
		t.Errorf("pre-run /blame.json = %d %q", code, body)
	}

	ins.Observe("fig8/mix/h4096", 25*timing.Microsecond, 100*timing.Microsecond)

	var st struct {
		Label      string  `json:"label"`
		Done       bool    `json:"done"`
		SimNowPS   int64   `json:"sim_now_ps"`
		SimTotalPS int64   `json:"sim_total_ps"`
		Percent    float64 `json:"percent"`
		Events     int64   `json:"events"`
	}
	_, body := get("/status.json")
	if err := json.Unmarshal([]byte(body), &st); err != nil {
		t.Fatalf("status.json does not parse: %v\n%s", err, body)
	}
	if st.Label != "fig8/mix/h4096" || st.Done || st.Percent != 25 || st.Events != 42 {
		t.Errorf("status = %+v", st)
	}
	if st.SimNowPS != int64(25*timing.Microsecond) || st.SimTotalPS != int64(100*timing.Microsecond) {
		t.Errorf("sim times = %d/%d", st.SimNowPS, st.SimTotalPS)
	}

	if _, body := get("/blame.json"); !strings.Contains(body, "run<1>") {
		t.Errorf("/blame.json = %q", body)
	}

	// HTML overview: escaped label and links to the JSON endpoints.
	_, html := get("/")
	for _, want := range []string{"fig8/mix/h4096", "running", "status.json", "blame.json", "run&lt;1&gt;"} {
		if !strings.Contains(html, want) {
			t.Errorf("overview missing %q:\n%s", want, html)
		}
	}
	if code, _ := get("/nosuch"); code != 404 {
		t.Errorf("unknown path served %d, want 404", code)
	}

	// Observations inside the 1s refresh window update progress but do not
	// re-run the sources.
	calls := blameCalls
	now = now.Add(300 * time.Millisecond)
	ins.Observe("fig8/mix/h4096", 50*timing.Microsecond, 100*timing.Microsecond)
	if blameCalls != calls {
		t.Errorf("sources re-ran inside the refresh window (%d -> %d)", calls, blameCalls)
	}
	_, body = get("/status.json")
	if !strings.Contains(body, `"percent":50`) {
		t.Errorf("progress not updated inside window: %s", body)
	}

	// Past the window: sources refresh.
	now = now.Add(time.Second)
	ins.Observe("fig8/mix/h4096", 75*timing.Microsecond, 100*timing.Microsecond)
	if blameCalls == calls {
		t.Error("sources did not refresh after the window elapsed")
	}

	// Done: final snapshot, 100%, state flips.
	ins.Done()
	_, body = get("/status.json")
	if !strings.Contains(body, `"done":true`) || !strings.Contains(body, `"percent":100`) {
		t.Errorf("final status: %s", body)
	}
	if _, html := get("/"); !strings.Contains(html, "done") {
		t.Errorf("overview after Done missing state:\n%s", html)
	}

	// Nil receiver: observation entry points are inert.
	var nilIns *Inspector
	nilIns.SetSources(InspectorSources{})
	nilIns.Observe("x", 0, 0)
	nilIns.Done()
}

// TestInspectorScrapeEndpoints covers the Prometheus exposition, the
// liveness probe, the flight dump, and the no-store cache contract on every
// JSON endpoint.
func TestInspectorScrapeEndpoints(t *testing.T) {
	now := time.Unix(0, 0)
	ins := NewInspector(func() time.Time { return now })

	rec := NewRecorder(Options{Metrics: true, Events: true})
	probe := rec.NewTrack("run")
	probe.Counter("dram/flips_total").Add(2)
	for i := 0; i < 7; i++ {
		probe.Emit(Event{Kind: KindACT})
	}
	ins.SetSources(InspectorSources{
		Recorder: rec,
		Flight:   fakeFlight(`{"capacity":8,"events":[]}` + "\n"),
	})

	srv := httptest.NewServer(ins.Handler())
	defer srv.Close()

	get := func(path string) (int, string, map[string][]string) {
		t.Helper()
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, string(body), resp.Header
	}

	if code, body, _ := get("/healthz"); code != 200 || body != "ok\n" {
		t.Errorf("/healthz = %d %q", code, body)
	}
	// Pre-run /flight.json: a valid empty document.
	if code, body, _ := get("/flight.json"); code != 200 || body != "{}\n" {
		t.Errorf("pre-run /flight.json = %d %q", code, body)
	}

	ins.Observe("shadow/mix", 30*timing.Microsecond, 60*timing.Microsecond)

	code, body, hdr := get("/metrics")
	if code != 200 {
		t.Fatalf("/metrics = %d", code)
	}
	if ct := hdr["Content-Type"][0]; ct != ContentTypePrometheus {
		t.Errorf("/metrics Content-Type = %q", ct)
	}
	for _, want := range []string{
		`shadow_run_info{label="shadow/mix"} 1`,
		"shadow_run_done 0",
		"shadow_run_progress_ratio 0.5",
		"shadow_run_events_total 7",
		`shadow_counter{name="run/dram/flips_total"} 2`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q:\n%s", want, body)
		}
	}
	// Every line must be valid exposition text.
	for i, line := range strings.Split(body, "\n") {
		if line == "" {
			continue
		}
		if !promLine.MatchString(line) {
			t.Errorf("/metrics line %d invalid: %q", i+1, line)
		}
	}

	if _, body, _ := get("/flight.json"); !strings.Contains(body, `"capacity":8`) {
		t.Errorf("/flight.json = %q", body)
	}

	for _, path := range []string{"/status.json", "/blame.json", "/flight.json", "/metrics", "/healthz"} {
		if _, _, hdr := get(path); len(hdr["Cache-Control"]) == 0 || hdr["Cache-Control"][0] != "no-store" {
			t.Errorf("%s lacks Cache-Control: no-store (%v)", path, hdr["Cache-Control"])
		}
	}

	ins.Done()
	if _, body, _ := get("/metrics"); !strings.Contains(body, "shadow_run_done 1") {
		t.Errorf("/metrics after Done:\n%s", body)
	}
}

// fakeFlight is a flight-dump writer serving a fixed document.
type fakeFlight string

func (f fakeFlight) WriteDump(w io.Writer) error {
	_, err := io.WriteString(w, string(f))
	return err
}

// TestInspectorLabelChangeResetsRate checks a new run label restarts the
// rate baseline instead of blending two runs' progress.
func TestInspectorLabelChangeResetsRate(t *testing.T) {
	now := time.Unix(0, 0)
	ins := NewInspector(func() time.Time { return now })

	ins.Observe("a", 10*timing.Microsecond, 100*timing.Microsecond)
	now = now.Add(2 * time.Second)
	ins.Observe("a", 90*timing.Microsecond, 100*timing.Microsecond)

	ins.Observe("b", 5*timing.Microsecond, 100*timing.Microsecond)
	st := ins.snapshot().st
	if st.Label != "b" {
		t.Fatalf("label = %q, want b", st.Label)
	}
	if st.SimUSPerSec != 0 {
		t.Errorf("rate carried across label change: %f", st.SimUSPerSec)
	}
}

// TestInspectorPerPointGauges is the last-writer-clobber regression: a sweep
// moving through several labeled points must keep one progress/done series
// per point on /metrics instead of a single shared gauge that only describes
// the latest point.
func TestInspectorPerPointGauges(t *testing.T) {
	now := time.Unix(0, 0)
	ins := NewInspector(func() time.Time { return now })
	srv := httptest.NewServer(ins.Handler())
	defer srv.Close()

	scrape := func() string {
		t.Helper()
		resp, err := srv.Client().Get(srv.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(body)
	}

	ins.Observe("shadow/mix/h64", 50*timing.Microsecond, 100*timing.Microsecond)
	// The sweep moves to its second point: the first is thereby complete.
	ins.Observe("baseline/mix/h64", 25*timing.Microsecond, 100*timing.Microsecond)

	body := scrape()
	for _, want := range []string{
		`shadow_run_point_progress_ratio{point="shadow/mix/h64"} 0.5`,
		`shadow_run_point_progress_ratio{point="baseline/mix/h64"} 0.25`,
		`shadow_run_point_done{point="shadow/mix/h64"} 1`,
		`shadow_run_point_done{point="baseline/mix/h64"} 0`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q:\n%s", want, body)
		}
	}
	// The shared gauge still describes the current point only.
	if !strings.Contains(body, "shadow_run_progress_ratio 0.25") {
		t.Errorf("shared gauge wrong:\n%s", body)
	}

	ins.Done()
	body = scrape()
	for _, want := range []string{
		`shadow_run_point_done{point="baseline/mix/h64"} 1`,
		`shadow_run_point_progress_ratio{point="baseline/mix/h64"} 1`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics after Done missing %q:\n%s", want, body)
		}
	}
}
