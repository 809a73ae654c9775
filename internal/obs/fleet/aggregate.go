package fleet

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"time"

	"shadow/internal/obs"
	"shadow/internal/timing"
)

// The aggregator: merges every worker's metric snapshot into one
// fleet-level exposition and one status document. All of it renders from
// a single consistent snapshot taken under the Collector's mutex, and every
// ordering is explicit (family name, then instrument name, then worker id),
// so two renders of the same state are byte-identical.

// flipsSuffix identifies bit-flip counters among ingested counters: the dram
// layer registers "dram/flips_total" and per-point probe tracks prepend
// "<scheme>/<workloads>/h<N>/", so the scheme of a flips counter is the
// first path segment of its instrument name.
const flipsSuffix = "dram/flips_total"

// WorkerJSON is one worker in the status document: its current (or last)
// point, that point's simulated progress and rate, and its event count.
type WorkerJSON struct {
	ID          string  `json:"id"`
	Point       string  `json:"point"`
	Scheme      string  `json:"scheme,omitempty"`
	Seed        uint64  `json:"seed"`
	Done        bool    `json:"done"`
	Percent     float64 `json:"percent"`
	SimNowPS    int64   `json:"sim_now_ps"`
	SimTotalPS  int64   `json:"sim_total_ps"`
	SimUSPerSec float64 `json:"sim_us_per_sec"`
	ElapsedSec  float64 `json:"elapsed_sec"`
	Events      int64   `json:"events"`
	PointsDone  int     `json:"points_done"`
}

// FleetJSON is the status document: /status.json, and the file -fleet-out
// writes.
type FleetJSON struct {
	Workers         int              `json:"workers"`
	PointsExpected  int              `json:"points_expected"`
	PointsDone      int              `json:"points_done"`
	ProgressPercent float64          `json:"progress_percent"`
	Divergence      string           `json:"divergence,omitempty"`
	FlipsPerScheme  map[string]int64 `json:"flips_per_scheme"`
	Completed       []PointRecord    `json:"completed"`
	WorkerList      []WorkerJSON     `json:"worker_list"`
}

// Fleet builds the status document.
func (c *Collector) Fleet() FleetJSON {
	if c == nil {
		return FleetJSON{FlipsPerScheme: map[string]int64{}}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	fj := FleetJSON{
		Workers:         len(c.workers),
		PointsExpected:  c.expected,
		PointsDone:      len(c.completed),
		ProgressPercent: c.progressPctLocked(),
		Divergence:      c.divergent,
		FlipsPerScheme:  c.flipsPerSchemeLocked(),
		Completed:       append([]PointRecord(nil), c.completed...),
	}
	wall := c.clock()
	for _, id := range c.workerIDsLocked() {
		fj.WorkerList = append(fj.WorkerList, c.workerJSONLocked(id, wall))
	}
	return fj
}

func (c *Collector) workerJSONLocked(id string, wall time.Time) WorkerJSON {
	w := c.workers[id]
	now := w.now
	if w.done {
		now, wall = w.total, w.doneAt
	}
	wj := WorkerJSON{
		ID:         id,
		Point:      w.point,
		Scheme:     w.scheme,
		Seed:       w.seed,
		Done:       w.done,
		Percent:    w.progressPct(),
		SimNowPS:   int64(now),
		SimTotalPS: int64(w.total),
		Events:     w.events,
		PointsDone: w.pointsDone,
	}
	if !w.startedAt.IsZero() {
		wj.ElapsedSec = wall.Sub(w.startedAt).Seconds()
		// The point's own average rate, from its start to its latest
		// progress (to its end once done).
		if wj.ElapsedSec > 0 {
			wj.SimUSPerSec = float64(now) / float64(timing.Microsecond) / wj.ElapsedSec
		}
	}
	return wj
}

// flipsPerSchemeLocked sums every flips counter across workers, keyed by
// the scheme (first path segment of the instrument name).
func (c *Collector) flipsPerSchemeLocked() map[string]int64 {
	flips := map[string]int64{}
	for _, id := range c.workerIDsLocked() {
		for _, r := range c.workers[id].metrics.Counters {
			if !strings.HasSuffix(r.Name, flipsSuffix) {
				continue
			}
			scheme, _, _ := strings.Cut(r.Name, "/")
			if scheme == "dram" {
				scheme = "(untracked)"
			}
			flips[scheme] += r.Value
		}
	}
	return flips
}

// WriteMetrics renders the merged fleet exposition (/metrics):
//
//	shadow_fleet_* roll-up gauges (workers, points, progress)
//	shadow_fleet_flips_total{scheme=...}
//	shadow_fleet_worker_*{worker,point} — each worker's current point:
//	    progress, simulated time, rate, events, done
//	shadow_fleet_point_*{point} — every point seen: progress, done
//	shadow_counter/gauge/histogram_* — every worker's snapshot, written by
//	    obs.WriteExposition with worker/scheme/point labels appended
//	shadow_fleet_counter{name=...} — per-instrument sums across workers
//	shadow_fleet_histogram_* — per-instrument bucket-wise merges
//
// A single-worker fleet exposition therefore embeds the worker's own
// /metrics document byte-for-byte modulo the added labels, and the fleet
// sums account for 100% of the per-worker counters (sum over workers ==
// fleet total — a regression test reads this output back and asserts it).
func (c *Collector) WriteMetrics(w io.Writer) error {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	var buf bytes.Buffer
	c.writeRollupsLocked(&buf)
	c.writeProgressLocked(&buf)
	ids := c.workerIDsLocked()
	snaps := make([]obs.Snapshot, len(ids))
	for i, id := range ids {
		snaps[i] = c.workers[id].metrics
	}
	obs.WriteExposition(&buf, snaps...)
	writeSums(&buf, snaps, "shadow_fleet_counter", "counter",
		"Per-instrument counter totals summed across workers.",
		func(s obs.Snapshot) []obs.Reading { return s.Counters })
	writeSums(&buf, snaps, "shadow_fleet_gauge", "gauge",
		"Per-instrument gauge sums across workers.",
		func(s obs.Snapshot) []obs.Reading { return s.Gauges })
	writeFleetHistograms(&buf, snaps)
	_, err := w.Write(buf.Bytes())
	return err
}

func (c *Collector) writeRollupsLocked(buf *bytes.Buffer) {
	fmt.Fprintf(buf, "# HELP shadow_fleet_workers Registered fleet workers.\n")
	fmt.Fprintf(buf, "# TYPE shadow_fleet_workers gauge\nshadow_fleet_workers %d\n", len(c.workers))
	fmt.Fprintf(buf, "# TYPE shadow_fleet_points_expected gauge\nshadow_fleet_points_expected %d\n", c.expected)
	fmt.Fprintf(buf, "# TYPE shadow_fleet_points_done gauge\nshadow_fleet_points_done %d\n", len(c.completed))
	fmt.Fprintf(buf, "# TYPE shadow_fleet_progress_percent gauge\nshadow_fleet_progress_percent %s\n", formatValue(c.progressPctLocked()))
	if flips := c.flipsPerSchemeLocked(); len(flips) > 0 {
		fmt.Fprintf(buf, "# HELP shadow_fleet_flips_total Bit flips summed across workers, keyed by scheme.\n")
		fmt.Fprintf(buf, "# TYPE shadow_fleet_flips_total counter\n")
		for _, scheme := range sortedFlipSchemes(flips) {
			fmt.Fprintf(buf, "shadow_fleet_flips_total{%s} %d\n", obs.PromLabel("scheme", scheme), flips[scheme])
		}
	}
}

// writeProgressLocked renders the per-worker and per-point progress
// families. Every point seen keeps its own series — completed ones at
// ratio 1, in-flight ones at their worker's progress — so a sweep's
// earlier points are not clobbered by the latest.
func (c *Collector) writeProgressLocked(buf *bytes.Buffer) {
	ids := c.workerIDsLocked()
	if len(ids) > 0 {
		wall := c.clock()
		workers := make([]WorkerJSON, len(ids))
		for i, id := range ids {
			workers[i] = c.workerJSONLocked(id, wall)
		}
		family := func(name, typ, help string, value func(WorkerJSON) string) {
			fmt.Fprintf(buf, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
			for _, wj := range workers {
				fmt.Fprintf(buf, "%s{%s,%s} %s\n", name, obs.PromLabel("worker", wj.ID), obs.PromLabel("point", wj.Point), value(wj))
			}
		}
		family("shadow_fleet_worker_progress_ratio", "gauge", "Progress of each worker's current point.",
			func(wj WorkerJSON) string { return formatValue(wj.Percent / 100) })
		family("shadow_fleet_worker_sim_picoseconds", "gauge", "Simulated time of each worker's current point.",
			func(wj WorkerJSON) string { return strconv.FormatInt(wj.SimNowPS, 10) })
		family("shadow_fleet_worker_sim_total_picoseconds", "gauge", "Simulated horizon of each worker's current point.",
			func(wj WorkerJSON) string { return strconv.FormatInt(wj.SimTotalPS, 10) })
		family("shadow_fleet_worker_sim_us_per_second", "gauge", "Simulated microseconds per wall second on each worker's current point.",
			func(wj WorkerJSON) string { return formatValue(wj.SimUSPerSec) })
		family("shadow_fleet_worker_events_total", "counter", "Trace events each worker's recorder has captured.",
			func(wj WorkerJSON) string { return strconv.FormatInt(wj.Events, 10) })
		family("shadow_fleet_worker_done", "gauge", "1 when the worker has no point in flight.",
			func(wj WorkerJSON) string { return strconv.Itoa(boolInt(wj.Done)) })
	}

	type pointState struct {
		ratio float64
		done  bool
	}
	state := map[string]pointState{}
	for _, r := range c.completed {
		state[r.Point] = pointState{1, true}
	}
	for _, id := range ids {
		if w := c.workers[id]; !w.done && w.point != "" {
			state[w.point] = pointState{w.progressPct() / 100, false}
		}
	}
	if len(state) == 0 {
		return
	}
	points := make([]string, 0, len(state))
	for p := range state {
		points = append(points, p) //shadowvet:ignore determinism -- sorted immediately below
	}
	sort.Strings(points)
	fmt.Fprintf(buf, "# HELP shadow_fleet_point_progress_ratio Progress of every point seen; completed points read 1.\n")
	fmt.Fprintf(buf, "# TYPE shadow_fleet_point_progress_ratio gauge\n")
	for _, p := range points {
		fmt.Fprintf(buf, "shadow_fleet_point_progress_ratio{%s} %s\n", obs.PromLabel("point", p), formatValue(state[p].ratio))
	}
	fmt.Fprintf(buf, "# TYPE shadow_fleet_point_done gauge\n")
	for _, p := range points {
		fmt.Fprintf(buf, "shadow_fleet_point_done{%s} %d\n", obs.PromLabel("point", p), boolInt(state[p].done))
	}
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

func sortedFlipSchemes(m map[string]int64) []string {
	schemes := make([]string, 0, len(m))
	for s := range m {
		schemes = append(schemes, s) //shadowvet:ignore determinism -- sorted immediately below
	}
	sort.Strings(schemes)
	return schemes
}

// writeSums renders one fleet-total family: each instrument's readings
// summed across workers, sorted by instrument name.
func writeSums(buf *bytes.Buffer, snaps []obs.Snapshot, family, typ, help string, readings func(obs.Snapshot) []obs.Reading) {
	sums := map[string]int64{}
	var names []string
	for _, s := range snaps {
		for _, r := range readings(s) {
			if _, ok := sums[r.Name]; !ok {
				names = append(names, r.Name)
			}
			sums[r.Name] += r.Value
		}
	}
	if len(names) == 0 {
		return
	}
	sort.Strings(names)
	fmt.Fprintf(buf, "# HELP %s %s\n# TYPE %s %s\n", family, help, family, typ)
	for _, name := range names {
		fmt.Fprintf(buf, "%s{%s} %d\n", family, obs.PromLabel("name", name), sums[name])
	}
}

// writeFleetHistograms merges every worker's histograms by instrument name.
// All of them share obs's power-of-two buckets, so the merge is a
// bucket-wise add, and the merged cumulative count at each edge is the sum
// of the workers' cumulative counts there.
func writeFleetHistograms(buf *bytes.Buffer, snaps []obs.Snapshot) {
	merged := map[string]*obs.Histogram{}
	var names []string
	for _, s := range snaps {
		for i := range s.Histograms {
			r := &s.Histograms[i]
			h := merged[r.Name]
			if h == nil {
				h = &obs.Histogram{}
				merged[r.Name] = h
				names = append(names, r.Name)
			}
			h.Merge(&r.Histogram)
		}
	}
	if len(names) == 0 {
		return
	}
	sort.Strings(names)
	fmt.Fprintf(buf, "# HELP shadow_fleet_histogram Per-instrument distributions merged across workers; le is the inclusive bucket upper edge.\n")
	fmt.Fprintf(buf, "# TYPE shadow_fleet_histogram histogram\n")
	for _, name := range names {
		obs.WritePromHistogram(buf, "shadow_fleet_histogram", name, merged[name], "")
	}
}

// formatValue renders a fractional roll-up the way the obs layer renders
// numbers: integral values print as integers, everything else through the
// shortest float form.
func formatValue(v float64) string {
	if v == float64(int64(v)) {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// MarshalFleet renders the status document deterministically.
func (c *Collector) MarshalFleet() []byte {
	if c == nil {
		return []byte("{}\n")
	}
	fj := c.Fleet()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(fj); err != nil {
		return []byte("{}\n")
	}
	return buf.Bytes()
}
