package obs

import (
	"bytes"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// promLine matches one exposition line: a comment or a sample with an
// optional label set. Every non-empty output line must match — the
// "/metrics parses as Prometheus text format" contract.
var promLine = regexp.MustCompile(`^(# (HELP|TYPE) [a-zA-Z_:][a-zA-Z0-9_:]* .*|[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^{}]*\})? -?[0-9+\-.eEInf]+)$`)

func promText(t *testing.T, m *Metrics) string {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteExposition(&buf, m.Snapshot()); err != nil {
		t.Fatalf("WriteExposition: %v", err)
	}
	return buf.String()
}

func TestWritePrometheusGolden(t *testing.T) {
	m := newMetrics()
	m.Counter("run/mc/acts").Add(42)
	m.Gauge("run/queue").Set(-3)
	h := m.Histogram("run/lat")
	h.Observe(0)
	h.Observe(1)
	h.Observe(2)
	h.Observe(3)
	h.Observe(9)

	want := strings.Join([]string{
		"# HELP shadow_counter Monotonic counters, keyed by instrument name.",
		"# TYPE shadow_counter counter",
		`shadow_counter{name="run/mc/acts"} 42`,
		"# HELP shadow_gauge Last-written gauges, keyed by instrument name.",
		"# TYPE shadow_gauge gauge",
		`shadow_gauge{name="run/queue"} -3`,
		"# HELP shadow_histogram Power-of-two-bucketed distributions; le is the inclusive bucket upper edge.",
		"# TYPE shadow_histogram histogram",
		`shadow_histogram_bucket{name="run/lat",le="0"} 1`,
		`shadow_histogram_bucket{name="run/lat",le="1"} 2`,
		`shadow_histogram_bucket{name="run/lat",le="3"} 4`,
		`shadow_histogram_bucket{name="run/lat",le="15"} 5`,
		`shadow_histogram_bucket{name="run/lat",le="+Inf"} 5`,
		`shadow_histogram_sum{name="run/lat"} 15`,
		`shadow_histogram_count{name="run/lat"} 5`,
		"",
	}, "\n")
	if got := promText(t, m); got != want {
		t.Fatalf("exposition mismatch:\n got:\n%s\nwant:\n%s", got, want)
	}
}

func TestWritePrometheusParses(t *testing.T) {
	m := newMetrics()
	m.Counter("a").Inc()
	m.Gauge("b").Set(7)
	m.Histogram("c").Observe(100)
	for i, line := range strings.Split(promText(t, m), "\n") {
		if line == "" {
			continue
		}
		if !promLine.MatchString(line) {
			t.Errorf("line %d is not valid exposition text: %q", i+1, line)
		}
	}
}

func TestWritePrometheusEscaping(t *testing.T) {
	m := newMetrics()
	m.Counter("weird\"name\\with\nnewline").Inc()
	got := promText(t, m)
	want := `shadow_counter{name="weird\"name\\with\nnewline"} 1`
	if !strings.Contains(got, want) {
		t.Fatalf("escaped label missing:\n%s\nwant line: %s", got, want)
	}
	// The raw newline must not survive into the sample line.
	for _, line := range strings.Split(got, "\n") {
		if strings.HasPrefix(line, "shadow_counter{") && !promLine.MatchString(line) {
			t.Fatalf("sample line broken by unescaped character: %q", line)
		}
	}
}

// TestWritePrometheusBucketMonotonic checks the histogram contract scrape
// clients depend on: cumulative bucket counts never decrease, le edges
// strictly increase, and the +Inf bucket equals _count.
func TestWritePrometheusBucketMonotonic(t *testing.T) {
	m := newMetrics()
	h := m.Histogram("lat")
	for _, v := range []int64{-5, 0, 1, 1, 2, 7, 8, 100, 5000, 1 << 40} {
		h.Observe(v)
	}
	bucketRe := regexp.MustCompile(`^shadow_histogram_bucket\{name="lat",le="([^"]+)"\} (\d+)$`)
	var lastLe, lastCum int64
	first := true
	var infCum int64
	seenInf := false
	for _, line := range strings.Split(promText(t, m), "\n") {
		sub := bucketRe.FindStringSubmatch(line)
		if sub == nil {
			continue
		}
		cum, err := strconv.ParseInt(sub[2], 10, 64)
		if err != nil {
			t.Fatalf("bad cumulative count %q: %v", sub[2], err)
		}
		if cum < lastCum {
			t.Fatalf("cumulative count decreased: %d after %d (%s)", cum, lastCum, line)
		}
		lastCum = cum
		if sub[1] == "+Inf" {
			seenInf, infCum = true, cum
			continue
		}
		if seenInf {
			t.Fatalf("bucket after +Inf: %s", line)
		}
		le, err := strconv.ParseInt(sub[1], 10, 64)
		if err != nil {
			t.Fatalf("bad le %q: %v", sub[1], err)
		}
		if !first && le <= lastLe {
			t.Fatalf("le not increasing: %d after %d", le, lastLe)
		}
		first, lastLe = false, le
	}
	if !seenInf {
		t.Fatal("no +Inf bucket")
	}
	if infCum != h.Count() {
		t.Fatalf("+Inf bucket %d != count %d", infCum, h.Count())
	}
}

func TestWritePrometheusNilRegistry(t *testing.T) {
	var m *Metrics
	var buf bytes.Buffer
	if err := WriteExposition(&buf, m.Snapshot()); err != nil {
		t.Fatalf("nil registry: %v", err)
	}
	if buf.Len() != 0 {
		t.Fatalf("nil registry wrote %q", buf.String())
	}
}
