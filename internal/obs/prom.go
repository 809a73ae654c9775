package obs

import (
	"bytes"
	"fmt"
	"io"
	"strings"
)

// Prometheus text exposition (format 0.0.4), stdlib-only. Instruments are
// exported as three shared families keyed by a "name" label — the registry
// is dynamic, so per-instrument metric names would force clients to discover
// an open-ended namespace, while label-keyed families make every shadowsim
// and shadowexp worker scrapeable with three static queries:
//
//	shadow_counter{name="..."}            monotonic counters
//	shadow_gauge{name="..."}              last-written gauges
//	shadow_histogram_bucket{name,le=...}  cumulative power-of-two buckets
//	shadow_histogram_sum{name="..."}      + _count, per histogram
//
// Histogram buckets follow the Prometheus convention: each _bucket carries
// the count of samples ≤ le, the le values are the inclusive upper edges of
// the registry's power-of-two buckets (0, 1, 3, 7, ..., 2^i-1), and the
// series ends with le="+Inf" equal to _count. Time series (simulated-time
// sums) have no exposition analogue and stay in the JSON dump.

// ContentTypePrometheus is the Content-Type of the /metrics endpoint.
const ContentTypePrometheus = "text/plain; version=0.0.4; charset=utf-8"

// promLabelEscaper escapes a label value per the exposition format:
// backslash, double quote, and line feed.
var promLabelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

// PromLabel renders one label pair, escaping the value.
func PromLabel(key, value string) string {
	return key + `="` + promLabelEscaper.Replace(value) + `"`
}

// WritePrometheus renders every counter, gauge, and histogram in Prometheus
// text exposition format 0.0.4, sorted by instrument name. A nil registry
// writes nothing.
func (m *Metrics) WritePrometheus(w io.Writer) error {
	if m == nil {
		return nil
	}
	var buf bytes.Buffer
	if names := sortedKeysCounter(m.counters); len(names) > 0 {
		buf.WriteString("# HELP shadow_counter Monotonic counters, keyed by instrument name.\n")
		buf.WriteString("# TYPE shadow_counter counter\n")
		for _, name := range names {
			fmt.Fprintf(&buf, "shadow_counter{%s} %d\n", PromLabel("name", name), m.counters[name].Value())
		}
	}
	if names := sortedKeysGauge(m.gauges); len(names) > 0 {
		buf.WriteString("# HELP shadow_gauge Last-written gauges, keyed by instrument name.\n")
		buf.WriteString("# TYPE shadow_gauge gauge\n")
		for _, name := range names {
			fmt.Fprintf(&buf, "shadow_gauge{%s} %d\n", PromLabel("name", name), m.gauges[name].Value())
		}
	}
	if names := sortedKeysHistogram(m.hists); len(names) > 0 {
		buf.WriteString("# HELP shadow_histogram Power-of-two-bucketed distributions; le is the inclusive bucket upper edge.\n")
		buf.WriteString("# TYPE shadow_histogram histogram\n")
		for _, name := range names {
			writePromHistogram(&buf, name, m.hists[name])
		}
	}
	_, err := w.Write(buf.Bytes())
	return err
}

func writePromHistogram(buf *bytes.Buffer, name string, h *Histogram) {
	label := PromLabel("name", name)
	var cum int64
	for _, b := range h.Buckets() {
		cum += b.Count
		fmt.Fprintf(buf, "shadow_histogram_bucket{%s,%s} %d\n", label, PromLabel("le", fmt.Sprint(b.Hi)), cum)
	}
	fmt.Fprintf(buf, "shadow_histogram_bucket{%s,le=\"+Inf\"} %d\n", label, h.Count())
	fmt.Fprintf(buf, "shadow_histogram_sum{%s} %d\n", label, h.Sum())
	fmt.Fprintf(buf, "shadow_histogram_count{%s} %d\n", label, h.Count())
}
