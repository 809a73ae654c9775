package fleet

import (
	"fmt"
	"html"
	"net/http"
	"strings"

	"shadow/internal/obs"
)

// Handler returns the live inspector's HTTP handler over the collector,
// behind both CLIs' -inspect flag:
//
//	/              HTML dashboard (auto-refreshing): fleet progress,
//	               per-worker progress, rate and events, divergence, flips
//	               per scheme, rolling blame
//	/status.json   the status document (FleetJSON; what -fleet-out writes)
//	/metrics       merged Prometheus exposition (WriteMetrics)
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
		writeDashboard(w, c.Fleet(), blame)
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
func writeDashboard(w http.ResponseWriter, fj FleetJSON, blame []byte) {
	esc := html.EscapeString
	fmt.Fprintf(w, `<!doctype html><html><head><meta http-equiv="refresh" content="2"><title>shadow inspector</title></head><body style="font-family:monospace;background:#111;color:#ddd">`)
	fmt.Fprintf(w, "<h2>shadow inspector</h2>")
	fmt.Fprintf(w, "<p>%d workers — %d/%d points — %.1f%%</p>",
		fj.Workers, fj.PointsDone, fj.PointsExpected, fj.ProgressPercent)
	fmt.Fprintf(w, "<div style=\"background:#333;width:480px;height:14px\"><div style=\"background:#4a9;height:14px;width:%.1f%%\"></div></div>", clampPct(fj.ProgressPercent))
	if fj.Divergence != "" {
		fmt.Fprintf(w, `<p style="color:#f66"><b>DIVERGENCE</b> %s</p>`, esc(fj.Divergence))
	}
	var links []string
	for _, l := range []string{"status.json", "metrics", "blame.json", "flight.json", "healthz"} {
		links = append(links, fmt.Sprintf(`<a href="/%s" style="color:#8cf">%s</a>`, l, l))
	}
	fmt.Fprintf(w, "<p>%s</p>", strings.Join(links, " · "))

	fmt.Fprintf(w, "<h3>workers</h3><table cellpadding=\"4\">")
	fmt.Fprintf(w, "<tr><th align=\"left\">worker</th><th align=\"left\">point</th><th align=\"left\">progress</th><th align=\"left\">sim-us</th><th align=\"left\">sim-us/s</th><th align=\"left\">events</th><th align=\"left\">elapsed</th><th align=\"left\">done</th></tr>")
	for _, wk := range fj.WorkerList {
		state := esc(wk.Point)
		if wk.Done {
			state += " (done)"
		}
		fmt.Fprintf(w, `<tr><td>%s</td><td>%s</td><td><div style="background:#333;width:160px;height:10px"><div style="background:#4a9;height:10px;width:%.1f%%"></div></div></td><td>%.1f of %.1f</td><td>%.1f</td><td>%d</td><td>%.1fs</td><td>%d</td></tr>`,
			esc(wk.ID), state, clampPct(wk.Percent),
			float64(wk.SimNowPS)/1e6, float64(wk.SimTotalPS)/1e6,
			wk.SimUSPerSec, wk.Events, wk.ElapsedSec, wk.PointsDone)
	}
	fmt.Fprintf(w, "</table>")

	if len(fj.FlipsPerScheme) > 0 {
		fmt.Fprintf(w, "<h3>bit flips per scheme</h3><table cellpadding=\"4\">")
		for _, scheme := range sortedFlipSchemes(fj.FlipsPerScheme) {
			fmt.Fprintf(w, "<tr><td>%s</td><td align=\"right\">%d</td></tr>", esc(scheme), fj.FlipsPerScheme[scheme])
		}
		fmt.Fprintf(w, "</table>")
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
