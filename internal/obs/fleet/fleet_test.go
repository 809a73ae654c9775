package fleet

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"shadow/internal/obs"
)

var update = flag.Bool("update", false, "rewrite golden files")

// fakeClock is the injected wall clock: tests advance it explicitly, so
// point durations and the ingest throttle are exact instead of sleep-based.
type fakeClock struct{ t time.Time }

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)}
}

func (f *fakeClock) now() time.Time          { return f.t }
func (f *fakeClock) advance(d time.Duration) { f.t = f.t.Add(d) }

func newTestCollector(clk *fakeClock) *Collector {
	return NewCollector(clk.now)
}

// workerMetrics builds one synthetic worker's recorder: a point-labelled
// flips counter, request counters, a gauge, and a latency histogram whose
// observations differ per worker so bucket edge sets differ too.
func workerMetrics(scheme string, base int64) *obs.Recorder {
	rec := obs.NewRecorder(obs.Options{Metrics: true})
	p := rec.NewTrack(scheme + "/mix-high/h256")
	p.Counter("dram/flips_total").Add(base)
	p.Counter("memctrl/reads_total").Add(base * 100)
	p.Gauge("memctrl/queue_depth").Set(base)
	h := p.Histogram("memctrl/read_latency_ps")
	for i := int64(0); i < 20; i++ {
		h.Observe(base * (i + 1))
	}
	return rec
}

// sampleLine matches one exposition sample: metric name, optional label set,
// value. labelPair matches one label pair inside the set.
var (
	sampleLine = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(?:\{(.*)\})? (\S+)$`)
	labelPair  = regexp.MustCompile(`([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"`)
)

// sample is one exposition line read back; label values stay escaped.
type sample struct {
	name   string
	labels map[string]string
	value  float64
}

// readSamples reads every sample of an exposition, failing the test on any
// line that is neither a comment nor a sample.
func readSamples(t *testing.T, text []byte) []sample {
	t.Helper()
	var out []sample
	for i, line := range strings.Split(string(text), "\n") {
		if line == "" || strings.HasPrefix(line, "# ") {
			continue
		}
		m := sampleLine.FindStringSubmatch(line)
		if m == nil {
			t.Fatalf("line %d is not exposition text: %q", i+1, line)
		}
		v, err := strconv.ParseFloat(m[3], 64)
		if err != nil {
			t.Fatalf("line %d: bad value: %v", i+1, err)
		}
		s := sample{name: m[1], labels: map[string]string{}, value: v}
		for _, p := range labelPair.FindAllStringSubmatch(m[2], -1) {
			s.labels[p[1]] = p[2]
		}
		out = append(out, s)
	}
	return out
}

// TestFleetSumInvariant is the acceptance-criteria assertion: the merged
// exposition accounts for 100% of the per-worker counters — for every
// instrument, shadow_fleet_counter equals the sum of shadow_counter over
// workers, and likewise for gauges and histogram counts.
func TestFleetSumInvariant(t *testing.T) {
	clk := newFakeClock()
	c := newTestCollector(clk)
	schemes := []string{"shadow", "baseline", "prac"}
	for i, scheme := range schemes {
		id := fmt.Sprintf("w%d", i)
		c.PointStart(id, scheme+"/mix-high/h256", scheme, 42)
		m := workerMetrics(scheme, int64(i+1)*3)
		// One instrument every worker shares, each over a different edge
		// set, so the merge adds buckets only some workers populate.
		for v := int64(1); v <= 5; v++ {
			m.Metrics().Histogram("shared/latency").Observe(v * int64(i+1))
		}
		c.Ingest(id, m)
	}
	var merged bytes.Buffer
	if err := c.WriteMetrics(&merged); err != nil {
		t.Fatal(err)
	}
	by := map[string][]sample{}
	for _, s := range readSamples(t, merged.Bytes()) {
		by[s.name] = append(by[s.name], s)
	}

	for _, fam := range []string{"shadow_counter", "shadow_gauge"} {
		perWorker := map[string]float64{}
		for _, s := range by[fam] {
			if s.labels["worker"] == "" {
				t.Fatalf("%s sample without worker label: %+v", fam, s)
			}
			perWorker[s.labels["name"]] += s.value
		}
		if len(perWorker) == 0 {
			t.Fatalf("no %s samples in merged exposition", fam)
		}
		fleet := map[string]float64{}
		for _, s := range by["shadow_fleet_"+strings.TrimPrefix(fam, "shadow_")] {
			fleet[s.labels["name"]] = s.value
		}
		for name, sum := range perWorker {
			if got, ok := fleet[name]; !ok || got != sum {
				t.Errorf("%s: fleet total for %q = %v, worker sum = %v", fam, name, got, sum)
			}
		}
		if len(fleet) != len(perWorker) {
			t.Errorf("%s: fleet totals cover %d instruments, workers expose %d", fam, len(fleet), len(perWorker))
		}
	}

	// Histogram: merged count equals summed per-worker counts, buckets are
	// monotone along le, and +Inf equals _count.
	perWorkerCount := map[string]float64{}
	for _, s := range by["shadow_histogram_count"] {
		perWorkerCount[s.labels["name"]] += s.value
	}
	fleetBuckets := map[string][]sample{}
	for _, s := range by["shadow_fleet_histogram_bucket"] {
		fleetBuckets[s.labels["name"]] = append(fleetBuckets[s.labels["name"]], s)
	}
	fleetCount := map[string]float64{}
	for _, s := range by["shadow_fleet_histogram_count"] {
		fleetCount[s.labels["name"]] = s.value
	}
	if len(fleetCount) == 0 {
		t.Fatal("no merged histograms")
	}
	for name, want := range perWorkerCount {
		if fleetCount[name] != want {
			t.Errorf("histogram %q: fleet count %v != summed worker counts %v", name, fleetCount[name], want)
		}
		buckets := fleetBuckets[name]
		prev := -1.0
		for _, s := range buckets {
			if s.value < prev {
				t.Errorf("histogram %q: merged bucket le=%s decreases (%v < %v)", name, s.labels["le"], s.value, prev)
			}
			prev = s.value
		}
		last := buckets[len(buckets)-1]
		if last.labels["le"] != "+Inf" || last.value != want {
			t.Errorf("histogram %q: +Inf bucket = %+v, want value %v", name, last, want)
		}
	}

	// The shared histogram's merge equals the step-function merge of the
	// workers' cumulative series: at every union edge, each worker adds its
	// cumulative count at its largest edge at or below it.
	type point struct{ le, cum float64 }
	var series [][]point // per worker, ascending le, as exposed
	index := map[string]int{}
	edges := map[float64]bool{}
	for _, s := range by["shadow_histogram_bucket"] {
		if s.labels["name"] != "shared/latency" || s.labels["le"] == "+Inf" {
			continue
		}
		w, ok := index[s.labels["worker"]]
		if !ok {
			w = len(series)
			index[s.labels["worker"]] = w
			series = append(series, nil)
		}
		le, _ := strconv.ParseFloat(s.labels["le"], 64)
		series[w] = append(series[w], point{le, s.value})
		edges[le] = true
	}
	for _, s := range fleetBuckets["shared/latency"] {
		if s.labels["le"] == "+Inf" {
			continue
		}
		le, _ := strconv.ParseFloat(s.labels["le"], 64)
		var want float64
		for _, pts := range series {
			var at float64
			for _, p := range pts {
				if p.le <= le {
					at = p.cum
				}
			}
			want += at
		}
		if s.value != want {
			t.Errorf("shared histogram le=%v: merged %v, step-function merge %v", le, s.value, want)
		}
		delete(edges, le)
	}
	if len(edges) != 0 || len(series) != len(schemes) {
		t.Errorf("shared histogram: merge misses edges %v (%d workers expose it)", edges, len(series))
	}

	// Flips roll up per scheme (first path segment of the instrument name).
	fj := c.Fleet()
	for i, scheme := range schemes {
		if got, want := fj.FlipsPerScheme[scheme], int64(i+1)*3; got != want {
			t.Errorf("FlipsPerScheme[%q] = %d, want %d", scheme, got, want)
		}
	}
}

// TestFleetMetricsDeterministic: two renders of the same collector state are
// byte-identical — every fold is sorted, nothing depends on map order — and
// both renders match the golden files in testdata.
func TestFleetMetricsDeterministic(t *testing.T) {
	clk := newFakeClock()
	c := newTestCollector(clk)
	for i := 0; i < 4; i++ {
		id := fmt.Sprintf("w%d", i)
		c.PointStart(id, fmt.Sprintf("s%d/mix/h64", i), fmt.Sprintf("s%d", i), uint64(i))
		c.Ingest(id, workerMetrics(fmt.Sprintf("s%d", i), int64(i+1)))
	}
	var a, b bytes.Buffer
	if err := c.WriteMetrics(&a); err != nil {
		t.Fatal(err)
	}
	if err := c.WriteMetrics(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("two WriteMetrics renders of the same state differ")
	}
	if !bytes.Equal(c.MarshalFleet(), c.MarshalFleet()) {
		t.Fatal("two MarshalFleet renders of the same state differ")
	}
	checkGolden(t, "fleet.golden.prom", a.Bytes())
	checkGolden(t, "fleet.golden.json", c.MarshalFleet())
}

// checkGolden compares got with testdata/name, rewriting the file first
// under -update.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	golden := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s differs from golden (re-run with -update to refresh):\ngot:\n%s\nwant:\n%s", name, got, want)
	}
}

func completePoint(c *Collector, clk *fakeClock, id, point string, seed, hash uint64, d time.Duration) {
	c.PointStart(id, point, "shadow", seed)
	clk.advance(d)
	c.PointDone(id, point, "shadow", seed, hash)
}

func TestDivergenceWatchdog(t *testing.T) {
	clk := newFakeClock()
	c := newTestCollector(clk)
	completePoint(c, clk, "w0", "p0", 42, 0xdead, 10*time.Millisecond)
	if d := c.Divergence(); d != "" {
		t.Fatalf("divergence before any disagreement: %q", d)
	}
	// Same point+seed, different command hash from another worker.
	completePoint(c, clk, "w1", "p0", 42, 0xbeef, 10*time.Millisecond)
	d := c.Divergence()
	for _, want := range []string{"w0", "w1", "p0", "42"} {
		if !strings.Contains(d, want) {
			t.Fatalf("Divergence() = %q, missing %q", d, want)
		}
	}
}

// TestDivergenceKeepsFirstDisagreement: once two workers disagree, later
// disagreements do not overwrite the first, and the status document (what
// -fleet-out writes) carries the same description Divergence returns, which
// shadowexp's exit status reads.
func TestDivergenceKeepsFirstDisagreement(t *testing.T) {
	clk := newFakeClock()
	c := newTestCollector(clk)
	for i := 0; i < 3; i++ {
		completePoint(c, clk, "w0", fmt.Sprintf("p%d", i), uint64(i), uint64(100+i), time.Second)
	}
	completePoint(c, clk, "w1", "p0", 0, 0xbad, time.Second)
	first := c.Divergence()
	for _, want := range []string{"p0", "w0", "w1", "0x0000000000000bad"} {
		if !strings.Contains(first, want) {
			t.Fatalf("Divergence() = %q, missing %q", first, want)
		}
	}
	completePoint(c, clk, "w2", "p1", 1, 0xbad, time.Second)
	if d := c.Divergence(); d != first {
		t.Fatalf("a later disagreement replaced the first: %q, want %q", d, first)
	}
	if fj := c.Fleet(); fj.Divergence != first {
		t.Fatalf("status document divergence = %q, want %q", fj.Divergence, first)
	}
	var fj FleetJSON
	if err := json.Unmarshal(c.MarshalFleet(), &fj); err != nil || fj.Divergence != first || len(fj.Completed) != 5 {
		t.Fatalf("marshalled status: divergence %q, %d completed, err %v", fj.Divergence, len(fj.Completed), err)
	}
}

func TestDivergenceSameHashNoTrip(t *testing.T) {
	clk := newFakeClock()
	c := newTestCollector(clk)
	completePoint(c, clk, "w0", "p0", 42, 0xfeed, 10*time.Millisecond)
	completePoint(c, clk, "w1", "p0", 42, 0xfeed, 10*time.Millisecond)
	// Different seed may hash differently without being divergence.
	completePoint(c, clk, "w1", "p0", 43, 0xdead, 10*time.Millisecond)
	if d := c.Divergence(); d != "" {
		t.Fatalf("agreeing workers diverged: %q", d)
	}
}

func TestFleetProgress(t *testing.T) {
	clk := newFakeClock()
	c := newTestCollector(clk)
	c.ExpectPoints(10)
	fj := c.Fleet()
	if fj.ProgressPercent != 0 {
		t.Fatalf("fresh fleet: %+v", fj)
	}
	// One point per second, steadily.
	for i := 0; i < 4; i++ {
		completePoint(c, clk, "w0", fmt.Sprintf("p%d", i), uint64(i), uint64(i), time.Second)
	}
	fj = c.Fleet()
	if fj.PointsDone != 4 || fj.PointsExpected != 10 {
		t.Fatalf("fleet = %+v", fj)
	}
	if math.Abs(fj.ProgressPercent-40) > 1e-9 {
		t.Fatalf("progress = %v, want 40", fj.ProgressPercent)
	}
	// An in-flight point at 50% adds half a point of fractional progress.
	c.PointStart("w1", "p4", "shadow", 4)
	c.PointProgress("w1", "p4", 50, 100)
	fj = c.Fleet()
	if math.Abs(fj.ProgressPercent-45) > 1e-9 {
		t.Fatalf("progress with in-flight = %v, want 45", fj.ProgressPercent)
	}
}

func TestPointProgressThrottle(t *testing.T) {
	clk := newFakeClock()
	c := newTestCollector(clk)
	c.PointStart("w0", "p0", "shadow", 1)
	if !c.PointProgress("w0", "p0", 1, 100) {
		t.Fatal("first progress should request a snapshot")
	}
	if c.PointProgress("w0", "p0", 2, 100) {
		t.Fatal("immediate second progress should be throttled")
	}
	clk.advance(time.Second)
	if !c.PointProgress("w0", "p0", 3, 100) {
		t.Fatal("progress a second later should request a snapshot")
	}
}

func TestNilCollectorInert(t *testing.T) {
	var c *Collector
	c.ExpectPoints(5)
	c.PointStart("w0", "p", "s", 1)
	if c.PointProgress("w0", "p", 1, 2) {
		t.Fatal("nil collector requested a snapshot")
	}
	c.PointDone("w0", "p", "s", 1, 2)
	c.Ingest("w0", workerMetrics("shadow", 1))
	if c.Divergence() != "" {
		t.Fatal("nil collector produced state")
	}
	if err := c.WriteMetrics(&bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(c.MarshalFleet(), []byte("{}\n")) {
		t.Fatalf("nil MarshalFleet = %q", c.MarshalFleet())
	}
}

// TestRoundTripByteIdentical: a one-worker fleet re-exposes the worker's
// registry byte for byte as WriteExposition renders it alone, apart from
// the added worker label — escaped hostile instrument names and histogram
// families included.
func TestRoundTripByteIdentical(t *testing.T) {
	rec := obs.NewRecorder(obs.Options{Metrics: true})
	p := rec.NewTrack("shadow/mix-high/h4096")
	p.Counter("dram/flips_total").Add(7)
	p.Counter("memctrl/acts_total").Add(123456)
	p.Gauge("memctrl/queue_depth").Set(42)
	h := p.Histogram("memctrl/read_latency_ps")
	for _, v := range []int64{1, 2, 5, 100, 10000, 0, 3} {
		h.Observe(v)
	}
	// Hostile label value: backslash, quote, newline.
	rec.NewTrack("evil\\name\"with\nnewline").Counter("x").Add(1)

	var own bytes.Buffer
	if err := obs.WriteExposition(&own, rec.Metrics().Snapshot()); err != nil {
		t.Fatal(err)
	}
	c := newTestCollector(newFakeClock())
	c.Ingest("w0", rec)
	var merged bytes.Buffer
	if err := c.WriteMetrics(&merged); err != nil {
		t.Fatal(err)
	}
	var reexposed strings.Builder
	for _, line := range strings.SplitAfter(merged.String(), "\n") {
		if line != "" && !strings.Contains(line, "shadow_fleet_") {
			reexposed.WriteString(strings.ReplaceAll(line, `,worker="w0"`, ""))
		}
	}
	if reexposed.String() != own.String() {
		t.Fatalf("re-exposure not byte-identical:\n--- own /metrics ---\n%s\n--- fleet ---\n%s", own.String(), reexposed.String())
	}
}

func TestFormatValue(t *testing.T) {
	cases := map[float64]string{
		0:      "0",
		42:     "42",
		-3:     "-3",
		1.5:    "1.5",
		0.0015: "0.0015",
	}
	for v, want := range cases {
		if got := formatValue(v); got != want {
			t.Errorf("formatValue(%v) = %q, want %q", v, got, want)
		}
	}
}
