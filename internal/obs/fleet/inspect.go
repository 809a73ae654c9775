package fleet

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"

	"shadow/internal/obs"
)

// The fleet Inspector: the HTTP face of the Collector, behind shadowexp's
// -fleet-inspect flag.
//
//	/                    HTML dashboard (auto-refreshing): fleet progress,
//	                     ETA, per-worker progress bars, sparkline trends,
//	                     watchdog state, flips per scheme
//	/fleet.json          full fleet roll-up (FleetJSON)
//	/fleet/metrics       merged Prometheus exposition (WriteMetrics)
//	/fleet/workers.json  per-worker state with progress trends
//	/fleet/trends.json   every stored trend series
//	/healthz             liveness probe (200 "ok")
//
// Every endpoint sends Cache-Control: no-store, matching the obs.Inspector:
// payloads change on every refresh and must never be served stale.

// Handler returns the fleet inspector's HTTP handler over the collector.
func (c *Collector) Handler() http.Handler {
	if c == nil {
		return http.NotFoundHandler()
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/fleet.json", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("Cache-Control", "no-store")
		w.Write(c.MarshalFleet())
	})
	mux.HandleFunc("/fleet/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", obs.ContentTypePrometheus)
		w.Header().Set("Cache-Control", "no-store")
		c.WriteMetrics(w)
	})
	mux.HandleFunc("/fleet/workers.json", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("Cache-Control", "no-store")
		workers := c.WorkersJSON()
		if workers == nil {
			workers = []WorkerJSON{}
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(workers)
	})
	mux.HandleFunc("/fleet/trends.json", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("Cache-Control", "no-store")
		trends := c.Trends()
		if trends == nil {
			trends = map[string][]TrendPoint{}
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(trends)
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		w.Header().Set("Cache-Control", "no-store")
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "text/html; charset=utf-8")
		w.Header().Set("Cache-Control", "no-store")
		writeDashboard(w, c.Fleet(), c.Trends())
	})
	return mux
}

// writeDashboard renders the HTML fleet dashboard from one consistent
// snapshot pair.
func writeDashboard(w http.ResponseWriter, fj FleetJSON, trends map[string][]TrendPoint) {
	fmt.Fprintf(w, `<!doctype html><html><head><meta http-equiv="refresh" content="2"><title>shadowfleet</title></head><body style="font-family:monospace;background:#111;color:#ddd">`)
	fmt.Fprintf(w, "<h2>shadowfleet dashboard</h2>")
	eta := "-"
	if fj.ETASeconds > 0 {
		eta = fmt.Sprintf("%.0fs", fj.ETASeconds)
	}
	fmt.Fprintf(w, "<p>%d workers — %d/%d points — %.1f%% — ETA %s</p>",
		fj.Workers, fj.PointsDone, fj.PointsExpected, fj.ProgressPercent, eta)
	fmt.Fprintf(w, "<div style=\"background:#333;width:480px;height:14px\"><div style=\"background:#4a9;height:14px;width:%.1f%%\"></div></div>", clampPct(fj.ProgressPercent))
	if fj.Watchdog != nil {
		fmt.Fprintf(w, `<p style="color:#f66"><b>WATCHDOG TRIPPED</b> %s: %s</p>`,
			htmlEscape(fj.Watchdog.Watchdog), htmlEscape(fj.Watchdog.Detail))
	}
	fmt.Fprintf(w, `<p><a href="/fleet.json" style="color:#8cf">fleet.json</a> · <a href="/fleet/metrics" style="color:#8cf">fleet/metrics</a> · <a href="/fleet/workers.json" style="color:#8cf">fleet/workers.json</a> · <a href="/fleet/trends.json" style="color:#8cf">fleet/trends.json</a> · <a href="/healthz" style="color:#8cf">healthz</a></p>`)

	fmt.Fprintf(w, "<h3>workers</h3><table cellpadding=\"4\">")
	fmt.Fprintf(w, "<tr><th align=\"left\">worker</th><th align=\"left\">point</th><th align=\"left\">progress</th><th align=\"left\">done</th><th align=\"left\">trend</th></tr>")
	for _, wk := range fj.WorkerList {
		state := htmlEscape(wk.Point)
		if wk.Done && wk.Point == "" {
			state = "(idle)"
		}
		fmt.Fprintf(w, `<tr><td>%s</td><td>%s</td><td><div style="background:#333;width:160px;height:10px"><div style="background:#4a9;height:10px;width:%.1f%%"></div></div></td><td>%d</td><td>%s</td></tr>`,
			htmlEscape(wk.ID), state, clampPct(wk.Percent), wk.PointsDone,
			sparkline(trends["worker/"+wk.ID+"/progress"], 0, 100))
	}
	fmt.Fprintf(w, "</table>")

	if len(fj.FlipsPerScheme) > 0 {
		fmt.Fprintf(w, "<h3>bit flips per scheme</h3><table cellpadding=\"4\">")
		for _, scheme := range sortedFlipSchemes(fj.FlipsPerScheme) {
			fmt.Fprintf(w, "<tr><td>%s</td><td align=\"right\">%d</td></tr>", htmlEscape(scheme), fj.FlipsPerScheme[scheme])
		}
		fmt.Fprintf(w, "</table>")
	}

	if pts := trends["fleet/progress"]; len(pts) > 1 {
		fmt.Fprintf(w, "<h3>fleet progress trend</h3>%s", sparkline(pts, 0, 100))
	}
	fmt.Fprintf(w, "</body></html>")
}

func clampPct(p float64) float64 {
	if p < 0 {
		return 0
	}
	if p > 100 {
		return 100
	}
	return p
}

// sparkline renders a trend as an inline SVG polyline. lo/hi fix the value
// axis when hi > lo; otherwise the trend autoscales to its own range.
func sparkline(pts []TrendPoint, lo, hi float64) string {
	if len(pts) < 2 {
		return ""
	}
	if hi <= lo {
		lo, hi = pts[0].V, pts[0].V
		for _, p := range pts {
			if p.V < lo {
				lo = p.V
			}
			if p.V > hi {
				hi = p.V
			}
		}
		if hi == lo {
			hi = lo + 1
		}
	}
	const width, height = 120, 24
	var b strings.Builder
	fmt.Fprintf(&b, `<svg width="%d" height="%d" viewBox="0 0 %d %d"><polyline fill="none" stroke="#4a9" stroke-width="1.5" points="`,
		width, height, width, height)
	for i, p := range pts {
		x := float64(i) / float64(len(pts)-1) * (width - 2)
		y := (height - 2) - (p.V-lo)/(hi-lo)*(height-4)
		fmt.Fprintf(&b, "%.1f,%.1f ", x+1, y)
	}
	b.WriteString(`"/></svg>`)
	return b.String()
}

// htmlEscape covers the characters that matter inside the dashboard's text
// nodes (same contract as the obs.Inspector's).
func htmlEscape(s string) string {
	var b []byte
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '<':
			b = append(b, "&lt;"...)
		case '>':
			b = append(b, "&gt;"...)
		case '&':
			b = append(b, "&amp;"...)
		case '"':
			b = append(b, "&quot;"...)
		default:
			b = append(b, s[i])
		}
	}
	return string(b)
}
