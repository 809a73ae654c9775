package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"shadow/internal/timing"
)

// InspectorSources supplies the data the live inspector serves. Every source
// is read only from the simulation goroutine (inside Observe), never from
// HTTP handlers, so sources may read live simulation state without locking.
type InspectorSources struct {
	// Recorder supplies the trace-event count on /status.json and the
	// instrument registry /metrics appends to the run-status metrics. Nil
	// omits both.
	Recorder *Recorder
	// Flight writes the flight-recorder dump served on /flight.json (a
	// flight.Watch). Nil serves an empty document.
	Flight interface{ WriteDump(io.Writer) error }
	// Blame returns the current rolling blame breakdown as JSON (e.g.
	// report.BlameJSON over the span collector's aggregate so far).
	Blame func() []byte
}

// Inspector is the live run inspector behind the -inspect flag: an opt-in
// HTTP endpoint serving heartbeat state, a metrics snapshot, and a rolling
// blame breakdown while a run is in flight.
//
// Thread model: the simulation goroutine drives Observe (wired into the sim
// Progress callback) and Done; HTTP handlers — on server goroutines — read
// only the cached snapshot bytes under the mutex. Snapshots are refreshed at
// most once per second of wall time, so inspection stays off the hot path.
// Like Heartbeat, the wall clock is injected (time.Now in production),
// keeping the package free of direct wall-clock reads.
type Inspector struct {
	clock func() time.Time

	mu      sync.Mutex
	label   string
	now     timing.Tick
	total   timing.Tick
	started time.Time
	// points tracks every label Observe has seen, in first-observation
	// order: shadowexp sweeps move the inspector through one labeled point
	// after another, and the /metrics exposition reports each under its own
	// point label instead of letting the last writer clobber a shared gauge.
	points   []pointState
	pointIdx map[string]int
	// lastObserve/lastSim are the previous snapshot's wall and simulated
	// time, for the sim-us-per-wall-second rate.
	lastObserve time.Time
	lastSim     timing.Tick
	rate        float64
	events      int64
	done        bool
	blameJSON   []byte
	promText    []byte
	flightJSON  []byte

	src    InspectorSources
	minGap time.Duration
	nextAt time.Time
	seen   bool
}

// pointState is one observed run phase (experiment point) for the
// per-point progress gauges.
type pointState struct {
	label string
	now   timing.Tick
	total timing.Tick
	done  bool
}

// NewInspector builds an inspector. clock supplies wall time (time.Now in
// production, a fake in tests).
func NewInspector(clock func() time.Time) *Inspector {
	return &Inspector{clock: clock, minGap: time.Second, pointIdx: map[string]int{}}
}

// SetSources attaches the data sources. Call before the run starts.
func (ins *Inspector) SetSources(src InspectorSources) {
	if ins == nil {
		return
	}
	ins.mu.Lock()
	defer ins.mu.Unlock()
	ins.src = src
}

// Observe records run progress; call it from the simulation goroutine (the
// sim Progress callback). At most once per second it refreshes the cached
// snapshots the HTTP handlers serve. Safe on a nil receiver.
func (ins *Inspector) Observe(label string, now, total timing.Tick) {
	if ins == nil {
		return
	}
	wall := ins.clock()
	ins.mu.Lock()
	defer ins.mu.Unlock()
	if !ins.seen || label != ins.label {
		// First observation, or a new run phase (shadowexp moves through
		// labeled experiment points): reset the rate baseline and mark the
		// previous point finished — a sequential sweep only moves on when
		// its current point completes.
		if ins.seen {
			if i, ok := ins.pointIdx[ins.label]; ok {
				ins.points[i].done = true
			}
		}
		ins.seen = true
		ins.label = label
		ins.started = wall
		ins.lastObserve = wall
		ins.lastSim = 0
		ins.rate = 0
		ins.nextAt = wall // refresh immediately
	}
	ins.now, ins.total = now, total
	i, ok := ins.pointIdx[label]
	if !ok {
		if ins.pointIdx == nil {
			ins.pointIdx = map[string]int{}
		}
		i = len(ins.points)
		ins.pointIdx[label] = i
		ins.points = append(ins.points, pointState{label: label})
	}
	ins.points[i].now, ins.points[i].total = now, total
	if wall.Before(ins.nextAt) {
		return
	}
	if secs := wall.Sub(ins.lastObserve).Seconds(); secs > 0 {
		ins.rate = float64(now-ins.lastSim) / float64(timing.Microsecond) / secs
	}
	ins.lastObserve = wall
	ins.lastSim = now
	ins.nextAt = wall.Add(ins.minGap)
	ins.refreshLocked()
}

// refreshLocked re-runs the sources into the cached snapshots. Caller holds
// mu; runs on the simulation goroutine.
func (ins *Inspector) refreshLocked() {
	if rec := ins.src.Recorder; rec != nil {
		ins.events = rec.EventCount()
		ins.promText = render(rec.Metrics().WritePrometheus)
	}
	if ins.src.Flight != nil {
		ins.flightJSON = render(ins.src.Flight.WriteDump)
	}
	if ins.src.Blame != nil {
		ins.blameJSON = ins.src.Blame()
	}
}

// render captures a writer's output; a failed render serves as empty.
func render(write func(io.Writer) error) []byte {
	var b bytes.Buffer
	if write(&b) != nil {
		return nil
	}
	return b.Bytes()
}

// Done marks the run finished and takes a final snapshot. Safe on a nil
// receiver.
func (ins *Inspector) Done() {
	if ins == nil {
		return
	}
	ins.mu.Lock()
	defer ins.mu.Unlock()
	ins.done = true
	ins.now = ins.total
	for i := range ins.points {
		ins.points[i].done = true
		ins.points[i].now = ins.points[i].total
	}
	ins.refreshLocked()
}

// status is the JSON shape of /status.json.
type status struct {
	Label       string  `json:"label"`
	Done        bool    `json:"done"`
	SimNowPS    int64   `json:"sim_now_ps"`
	SimTotalPS  int64   `json:"sim_total_ps"`
	Percent     float64 `json:"percent"`
	SimUSPerSec float64 `json:"sim_us_per_sec"`
	Events      int64   `json:"events"`
	ElapsedSec  float64 `json:"elapsed_sec"`
}

// snap is one consistent copy of the cached state, taken under the lock.
type snap struct {
	st     status
	points []pointState
	blame  []byte
	prom   []byte
	flight []byte
}

// snapshot copies the current state under the lock.
func (ins *Inspector) snapshot() snap {
	ins.mu.Lock()
	defer ins.mu.Unlock()
	st := status{
		Label:       ins.label,
		Done:        ins.done,
		SimNowPS:    int64(ins.now),
		SimTotalPS:  int64(ins.total),
		SimUSPerSec: ins.rate,
		Events:      ins.events,
	}
	if ins.total > 0 {
		st.Percent = 100 * float64(ins.now) / float64(ins.total)
	}
	if ins.seen {
		st.ElapsedSec = ins.clock().Sub(ins.started).Seconds()
	}
	return snap{
		st:     st,
		points: append([]pointState(nil), ins.points...),
		blame:  ins.blameJSON,
		prom:   ins.promText,
		flight: ins.flightJSON,
	}
}

// writeRunMetrics renders the run-status half of the /metrics payload:
// progress, rate, and event count as Prometheus gauges/counters, ahead of
// the cached instrument-registry exposition. Every observed point gets its
// own point-labelled progress/done series (first-observation order, which
// is deterministic for a given sweep) — the shared shadow_run_* gauges
// describe only the most recently observed point.
func writeRunMetrics(w io.Writer, st status, points []pointState) {
	state := int64(0)
	if st.Done {
		state = 1
	}
	fmt.Fprintf(w, "# HELP shadow_run_info Run identity; the label carries the run or experiment-point name.\n")
	fmt.Fprintf(w, "# TYPE shadow_run_info gauge\nshadow_run_info{%s} 1\n", PromLabel("label", st.Label))
	fmt.Fprintf(w, "# TYPE shadow_run_done gauge\nshadow_run_done %d\n", state)
	fmt.Fprintf(w, "# TYPE shadow_run_progress_ratio gauge\nshadow_run_progress_ratio %g\n", st.Percent/100)
	fmt.Fprintf(w, "# TYPE shadow_run_sim_picoseconds gauge\nshadow_run_sim_picoseconds %d\n", st.SimNowPS)
	fmt.Fprintf(w, "# TYPE shadow_run_sim_total_picoseconds gauge\nshadow_run_sim_total_picoseconds %d\n", st.SimTotalPS)
	fmt.Fprintf(w, "# TYPE shadow_run_sim_us_per_second gauge\nshadow_run_sim_us_per_second %g\n", st.SimUSPerSec)
	fmt.Fprintf(w, "# TYPE shadow_run_events_total counter\nshadow_run_events_total %d\n", st.Events)
	if len(points) > 0 {
		fmt.Fprintf(w, "# HELP shadow_run_point_progress_ratio Per-point progress; every observed experiment point keeps its own series.\n")
		fmt.Fprintf(w, "# TYPE shadow_run_point_progress_ratio gauge\n")
		for _, p := range points {
			ratio := 0.0
			if p.total > 0 {
				ratio = float64(p.now) / float64(p.total)
			}
			fmt.Fprintf(w, "shadow_run_point_progress_ratio{%s} %g\n", PromLabel("point", p.label), ratio)
		}
		fmt.Fprintf(w, "# TYPE shadow_run_point_done gauge\n")
		for _, p := range points {
			d := 0
			if p.done {
				d = 1
			}
			fmt.Fprintf(w, "shadow_run_point_done{%s} %d\n", PromLabel("point", p.label), d)
		}
	}
}

// Handler returns the inspector's HTTP handler:
//
//	/             HTML overview (auto-refreshing)
//	/status.json  heartbeat state (progress, rate, event count)
//	/blame.json   rolling blame breakdown
//	/flight.json  flight-recorder dump (event window + watchdog trip)
//	/metrics      Prometheus text exposition (run status + instruments)
//	/healthz      liveness probe (200 "ok")
//
// Every JSON endpoint sends Cache-Control: no-store — the payloads change
// every refresh and must never be served stale by an intermediary.
func (ins *Inspector) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/status.json", func(w http.ResponseWriter, r *http.Request) {
		s := ins.snapshot()
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("Cache-Control", "no-store")
		json.NewEncoder(w).Encode(s.st)
	})
	mux.HandleFunc("/blame.json", func(w http.ResponseWriter, r *http.Request) {
		blame := ins.snapshot().blame
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("Cache-Control", "no-store")
		if len(blame) == 0 {
			blame = []byte("[]\n")
		}
		w.Write(blame)
	})
	mux.HandleFunc("/flight.json", func(w http.ResponseWriter, r *http.Request) {
		flight := ins.snapshot().flight
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("Cache-Control", "no-store")
		if len(flight) == 0 {
			flight = []byte("{}\n")
		}
		w.Write(flight)
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		s := ins.snapshot()
		w.Header().Set("Content-Type", ContentTypePrometheus)
		w.Header().Set("Cache-Control", "no-store")
		writeRunMetrics(w, s.st, s.points)
		w.Write(s.prom)
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
		s := ins.snapshot()
		st, blame := s.st, s.blame
		w.Header().Set("Content-Type", "text/html; charset=utf-8")
		state := "running"
		if st.Done {
			state = "done"
		}
		fmt.Fprintf(w, `<!doctype html><html><head><meta http-equiv="refresh" content="2"><title>shadowtap inspector</title></head><body style="font-family:monospace">`)
		fmt.Fprintf(w, "<h2>shadowtap inspector</h2>")
		fmt.Fprintf(w, "<p>%s — %s — %.1f%% (%.1f of %.1f sim-us) — %.1f sim-us/s — %d events — %.1fs elapsed</p>",
			htmlEscape(st.Label), state, st.Percent,
			float64(st.SimNowPS)/1e6, float64(st.SimTotalPS)/1e6,
			st.SimUSPerSec, st.Events, st.ElapsedSec)
		fmt.Fprintf(w, `<p><a href="/status.json">status.json</a> · <a href="/blame.json">blame.json</a> · <a href="/flight.json">flight.json</a> · <a href="/metrics">metrics (Prometheus)</a> · <a href="/healthz">healthz</a></p>`)
		if len(blame) > 0 {
			fmt.Fprintf(w, "<h3>rolling blame</h3><pre>%s</pre>", htmlEscape(string(blame)))
		}
		fmt.Fprintf(w, "</body></html>")
	})
	return mux
}

// htmlEscape covers the characters that matter inside the inspector's text
// nodes.
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
		default:
			b = append(b, s[i])
		}
	}
	return string(b)
}
