package fleet

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"shadow/internal/obs"
	"shadow/internal/obs/flight"
)

// The aggregator: merges every worker's metric snapshot into one
// fleet-level exposition and one fleet.json roll-up. All of it renders from
// a single consistent snapshot taken under the Collector's mutex, and every
// ordering is explicit (family name, then instrument name, then worker id),
// so two renders of the same state are byte-identical.

// flipsSuffix identifies bit-flip counters among ingested counters: the dram
// layer registers "dram/flips_total" and per-point probe tracks prepend
// "<scheme>/<workloads>/h<N>/", so the scheme of a flips counter is the
// first path segment of its instrument name.
const flipsSuffix = "dram/flips_total"

// WorkerJSON is one entry of /fleet/workers.json.
type WorkerJSON struct {
	ID         string       `json:"id"`
	Point      string       `json:"point"`
	Scheme     string       `json:"scheme,omitempty"`
	Seed       uint64       `json:"seed"`
	Done       bool         `json:"done"`
	Percent    float64      `json:"percent"`
	PointsDone int          `json:"points_done"`
	Trend      []TrendPoint `json:"trend,omitempty"`
}

// FleetJSON is the /fleet.json roll-up.
type FleetJSON struct {
	Workers         int              `json:"workers"`
	PointsExpected  int              `json:"points_expected"`
	PointsDone      int              `json:"points_done"`
	ProgressPercent float64          `json:"progress_percent"`
	ETASeconds      float64          `json:"eta_seconds"`
	Watchdog        *flight.Trip     `json:"watchdog,omitempty"`
	FlipsPerScheme  map[string]int64 `json:"flips_per_scheme"`
	Completed       []PointRecord    `json:"completed"`
	WorkerList      []WorkerJSON     `json:"worker_list"`
}

// Fleet builds the /fleet.json snapshot.
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
		ETASeconds:      c.etaSecondsLocked(),
		Watchdog:        c.watch.Tripped(),
		FlipsPerScheme:  c.flipsPerSchemeLocked(),
		Completed:       append([]PointRecord(nil), c.completed...),
	}
	for _, id := range c.workerIDsLocked() {
		fj.WorkerList = append(fj.WorkerList, c.workerJSONLocked(id, false))
	}
	return fj
}

// WorkersJSON builds the /fleet/workers.json payload: every registered
// worker, sorted by id, each with its recent progress trend for sparklines.
func (c *Collector) WorkersJSON() []WorkerJSON {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []WorkerJSON
	for _, id := range c.workerIDsLocked() {
		out = append(out, c.workerJSONLocked(id, true))
	}
	return out
}

func (c *Collector) workerJSONLocked(id string, withTrend bool) WorkerJSON {
	w := c.workers[id]
	wj := WorkerJSON{
		ID:         id,
		Point:      w.point,
		Scheme:     w.scheme,
		Seed:       w.seed,
		Done:       w.done,
		Percent:    w.progressPct(),
		PointsDone: w.pointsDone,
	}
	if withTrend {
		wj.Trend = c.store.Trend("worker/" + id + "/progress")
	}
	return wj
}

// Trends returns the store's series for the dashboard, keyed by name,
// deterministically ordered when marshalled (maps encode with sorted keys).
func (c *Collector) Trends() map[string][]TrendPoint {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[string][]TrendPoint, len(c.store.series))
	for _, name := range c.store.Names() {
		out[name] = c.store.Trend(name)
	}
	return out
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

// WriteMetrics renders the merged fleet exposition (/fleet/metrics):
//
//	shadow_fleet_* roll-up gauges (workers, points, progress, ETA)
//	shadow_fleet_flips_total{scheme=...}
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
	fmt.Fprintf(buf, "# TYPE shadow_fleet_eta_seconds gauge\nshadow_fleet_eta_seconds %s\n", formatValue(c.etaSecondsLocked()))
	watchdog := 0
	if c.watch.Tripped() != nil {
		watchdog = 1
	}
	fmt.Fprintf(buf, "# TYPE shadow_fleet_watchdog_tripped gauge\nshadow_fleet_watchdog_tripped %d\n", watchdog)
	if flips := c.flipsPerSchemeLocked(); len(flips) > 0 {
		fmt.Fprintf(buf, "# HELP shadow_fleet_flips_total Bit flips summed across workers, keyed by scheme.\n")
		fmt.Fprintf(buf, "# TYPE shadow_fleet_flips_total counter\n")
		for _, scheme := range sortedFlipSchemes(flips) {
			fmt.Fprintf(buf, "shadow_fleet_flips_total{%s} %d\n", obs.PromLabel("scheme", scheme), flips[scheme])
		}
	}
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

// MarshalFleet renders /fleet.json deterministically.
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
