package fleet

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
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
	c.Tick()

	srv := httptest.NewServer(c.Handler())
	defer srv.Close()

	resp, body := get(t, srv, "/fleet.json")
	if resp.StatusCode != 200 || resp.Header.Get("Content-Type") != "application/json" {
		t.Fatalf("fleet.json: %d %s", resp.StatusCode, resp.Header.Get("Content-Type"))
	}
	if resp.Header.Get("Cache-Control") != "no-store" {
		t.Fatal("fleet.json served without no-store")
	}
	var fj FleetJSON
	if err := json.Unmarshal(body, &fj); err != nil {
		t.Fatalf("fleet.json does not decode: %v\n%s", err, body)
	}
	if fj.Workers != 2 || fj.PointsDone != 1 || fj.PointsExpected != 4 {
		t.Fatalf("fleet.json = %+v", fj)
	}
	if len(fj.Completed) != 1 || fj.Completed[0].CmdHash != "0x0000000000000abc" {
		t.Fatalf("completed = %+v", fj.Completed)
	}

	resp, body = get(t, srv, "/fleet/metrics")
	if resp.StatusCode != 200 || !strings.Contains(resp.Header.Get("Content-Type"), "text/plain") {
		t.Fatalf("fleet/metrics: %d %s", resp.StatusCode, resp.Header.Get("Content-Type"))
	}
	readSamples(t, body) // every line is a comment or a sample
	if !strings.Contains(string(body), "shadow_fleet_workers 2") {
		t.Fatalf("fleet/metrics missing roll-ups:\n%s", body)
	}

	resp, body = get(t, srv, "/fleet/workers.json")
	var workers []WorkerJSON
	if err := json.Unmarshal(body, &workers); err != nil {
		t.Fatalf("workers.json: %v", err)
	}
	if len(workers) != 2 || workers[0].ID != "w0" || workers[1].ID != "w1" {
		t.Fatalf("workers.json = %+v", workers)
	}

	resp, body = get(t, srv, "/fleet/trends.json")
	var trends map[string][]TrendPoint
	if err := json.Unmarshal(body, &trends); err != nil {
		t.Fatalf("trends.json: %v", err)
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
	for _, want := range []string{"shadowfleet dashboard", "w0", "w1", "baseline/mix/h64"} {
		if !strings.Contains(html, want) {
			t.Errorf("dashboard missing %q", want)
		}
	}

	resp, _ = get(t, srv, "/nope")
	if resp.StatusCode != 404 {
		t.Fatalf("unknown path: %d, want 404", resp.StatusCode)
	}
}

func TestFleetHandlerEmptyCollector(t *testing.T) {
	clk := newFakeClock()
	srv := httptest.NewServer(newTestCollector(clk).Handler())
	defer srv.Close()
	_, body := get(t, srv, "/fleet/workers.json")
	if strings.TrimSpace(string(body)) != "[]" {
		t.Fatalf("empty workers.json = %q, want []", body)
	}
	resp, _ := get(t, srv, "/fleet.json")
	if resp.StatusCode != 200 {
		t.Fatalf("empty fleet.json: %d", resp.StatusCode)
	}
}

func TestNilCollectorHandler(t *testing.T) {
	var c *Collector
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()
	resp, _ := get(t, srv, "/fleet.json")
	if resp.StatusCode != 404 {
		t.Fatalf("nil handler: %d, want 404", resp.StatusCode)
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

func TestSparkline(t *testing.T) {
	if sparkline(nil, 0, 100) != "" || sparkline([]TrendPoint{{At: 0, V: 1}}, 0, 100) != "" {
		t.Fatal("sparkline of <2 points should be empty")
	}
	svg := sparkline([]TrendPoint{{At: 0, V: 0}, {At: 1, V: 50}, {At: 2, V: 100}}, 0, 100)
	if !strings.HasPrefix(svg, "<svg") || !strings.Contains(svg, "polyline") {
		t.Fatalf("sparkline = %q", svg)
	}
	// Autoscale path: hi <= lo triggers min/max fitting, constant series
	// avoids division by zero.
	if s := sparkline([]TrendPoint{{At: 0, V: 7}, {At: 1, V: 7}}, 0, 0); !strings.HasPrefix(s, "<svg") {
		t.Fatalf("autoscaled constant sparkline = %q", s)
	}
}
