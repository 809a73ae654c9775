package fleet

import (
	"encoding/json"
	"fmt"
	"html"
	"net/http"
	"strings"

	"shadow/internal/obs"
)

// Handler returns the live inspector's HTTP handler over the collector,
// behind both CLIs' -inspect flag:
//
//	/              HTML dashboard (auto-refreshing): fleet progress, ETA,
//	               per-worker progress, rate, events and trends, watchdog
//	               state, flips per scheme, rolling blame
//	/status.json   the status document (FleetJSON; what -fleet-out writes)
//	/metrics       merged Prometheus exposition (WriteMetrics)
//	/trends.json   every stored trend series
//	/blame.json    rolling blame breakdown ([] without a blame source)
//	/flight.json   flight-recorder dump ({} without a flight source)
//	/healthz       liveness probe (200 "ok")
//
// Every endpoint sends Cache-Control: no-store: payloads change on every
// refresh and must never be served stale by an intermediary.
func (c *Collector) Handler() http.Handler {
	if c == nil {
		return http.NotFoundHandler()
	}
	mux := http.NewServeMux()
	handle := func(path, contentType string, write func(http.ResponseWriter)) {
		mux.HandleFunc(path, func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path != path {
				http.NotFound(w, r)
				return
			}
			w.Header().Set("Content-Type", contentType)
			w.Header().Set("Cache-Control", "no-store")
			write(w)
		})
	}
	handle("/status.json", "application/json", func(w http.ResponseWriter) {
		w.Write(c.MarshalFleet())
	})
	handle("/metrics", obs.ContentTypePrometheus, func(w http.ResponseWriter) {
		c.WriteMetrics(w)
	})
	handle("/trends.json", "application/json", func(w http.ResponseWriter) {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(c.Trends())
	})
	handle("/blame.json", "application/json", func(w http.ResponseWriter) {
		blame, _ := c.docs()
		w.Write(orEmpty(blame, "[]\n"))
	})
	handle("/flight.json", "application/json", func(w http.ResponseWriter) {
		_, flight := c.docs()
		w.Write(orEmpty(flight, "{}\n"))
	})
	handle("/healthz", "text/plain; charset=utf-8", func(w http.ResponseWriter) {
		fmt.Fprintln(w, "ok")
	})
	handle("/", "text/html; charset=utf-8", func(w http.ResponseWriter) {
		blame, _ := c.docs()
		writeDashboard(w, c.Fleet(), c.Trends(), blame)
	})
	return mux
}

// docs returns the latest blame and flight renders.
func (c *Collector) docs() (blame, flight []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.blame, c.flight
}

// orEmpty returns doc, or the empty document when there is none yet.
func orEmpty(doc []byte, empty string) []byte {
	if len(doc) == 0 {
		return []byte(empty)
	}
	return doc
}

// writeDashboard renders the HTML dashboard from one consistent snapshot
// set.
func writeDashboard(w http.ResponseWriter, fj FleetJSON, trends map[string][]TrendPoint, blame []byte) {
	esc := html.EscapeString
	fmt.Fprintf(w, `<!doctype html><html><head><meta http-equiv="refresh" content="2"><title>shadow inspector</title></head><body style="font-family:monospace;background:#111;color:#ddd">`)
	fmt.Fprintf(w, "<h2>shadow inspector</h2>")
	eta := "-"
	if fj.ETASeconds > 0 {
		eta = fmt.Sprintf("%.0fs", fj.ETASeconds)
	}
	fmt.Fprintf(w, "<p>%d workers — %d/%d points — %.1f%% — ETA %s</p>",
		fj.Workers, fj.PointsDone, fj.PointsExpected, fj.ProgressPercent, eta)
	fmt.Fprintf(w, "<div style=\"background:#333;width:480px;height:14px\"><div style=\"background:#4a9;height:14px;width:%.1f%%\"></div></div>", clampPct(fj.ProgressPercent))
	if fj.Watchdog != nil {
		fmt.Fprintf(w, `<p style="color:#f66"><b>WATCHDOG TRIPPED</b> %s: %s</p>`,
			esc(fj.Watchdog.Watchdog), esc(fj.Watchdog.Detail))
	}
	if fj.Divergence != "" {
		fmt.Fprintf(w, `<p style="color:#f66"><b>DIVERGENCE</b> %s</p>`, esc(fj.Divergence))
	}
	var links []string
	for _, l := range []string{"status.json", "metrics", "trends.json", "blame.json", "flight.json", "healthz"} {
		links = append(links, fmt.Sprintf(`<a href="/%s" style="color:#8cf">%s</a>`, l, l))
	}
	fmt.Fprintf(w, "<p>%s</p>", strings.Join(links, " · "))

	fmt.Fprintf(w, "<h3>workers</h3><table cellpadding=\"4\">")
	fmt.Fprintf(w, "<tr><th align=\"left\">worker</th><th align=\"left\">point</th><th align=\"left\">progress</th><th align=\"left\">sim-us</th><th align=\"left\">sim-us/s</th><th align=\"left\">events</th><th align=\"left\">elapsed</th><th align=\"left\">done</th><th align=\"left\">trend</th></tr>")
	for _, wk := range fj.WorkerList {
		state := esc(wk.Point)
		if wk.Done {
			state += " (done)"
		}
		fmt.Fprintf(w, `<tr><td>%s</td><td>%s</td><td><div style="background:#333;width:160px;height:10px"><div style="background:#4a9;height:10px;width:%.1f%%"></div></div></td><td>%.1f of %.1f</td><td>%.1f</td><td>%d</td><td>%.1fs</td><td>%d</td><td>%s</td></tr>`,
			esc(wk.ID), state, clampPct(wk.Percent),
			float64(wk.SimNowPS)/1e6, float64(wk.SimTotalPS)/1e6,
			wk.SimUSPerSec, wk.Events, wk.ElapsedSec, wk.PointsDone,
			sparkline(trends["worker/"+wk.ID+"/progress"], 0, 100))
	}
	fmt.Fprintf(w, "</table>")

	if len(fj.FlipsPerScheme) > 0 {
		fmt.Fprintf(w, "<h3>bit flips per scheme</h3><table cellpadding=\"4\">")
		for _, scheme := range sortedFlipSchemes(fj.FlipsPerScheme) {
			fmt.Fprintf(w, "<tr><td>%s</td><td align=\"right\">%d</td></tr>", esc(scheme), fj.FlipsPerScheme[scheme])
		}
		fmt.Fprintf(w, "</table>")
	}

	if pts := trends["fleet/progress"]; len(pts) > 1 {
		fmt.Fprintf(w, "<h3>fleet progress trend</h3>%s", sparkline(pts, 0, 100))
	}
	if len(blame) > 0 {
		fmt.Fprintf(w, "<h3>rolling blame</h3><pre>%s</pre>", esc(string(blame)))
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
