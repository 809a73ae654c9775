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

// WriteExposition renders snapshots as one exposition document in
// Prometheus text format 0.0.4, each snapshot's instruments sorted by name.
// Each family gets its HELP and TYPE lines once, when any snapshot holds an
// instrument of it, followed by the samples of every snapshot in argument
// order, each label set extended by that snapshot's Labels. The fleet
// collector's /metrics writes one snapshot per worker.
func WriteExposition(w io.Writer, snaps ...Snapshot) error {
	var buf bytes.Buffer
	if anyNonEmpty(snaps, func(s Snapshot) int { return len(s.Counters) }) {
		buf.WriteString("# HELP shadow_counter Monotonic counters, keyed by instrument name.\n")
		buf.WriteString("# TYPE shadow_counter counter\n")
		for _, s := range snaps {
			for _, r := range s.Counters {
				fmt.Fprintf(&buf, "shadow_counter{%s%s} %d\n", PromLabel("name", r.Name), s.Labels, r.Value)
			}
		}
	}
	if anyNonEmpty(snaps, func(s Snapshot) int { return len(s.Gauges) }) {
		buf.WriteString("# HELP shadow_gauge Last-written gauges, keyed by instrument name.\n")
		buf.WriteString("# TYPE shadow_gauge gauge\n")
		for _, s := range snaps {
			for _, r := range s.Gauges {
				fmt.Fprintf(&buf, "shadow_gauge{%s%s} %d\n", PromLabel("name", r.Name), s.Labels, r.Value)
			}
		}
	}
	if anyNonEmpty(snaps, func(s Snapshot) int { return len(s.Histograms) }) {
		buf.WriteString("# HELP shadow_histogram Power-of-two-bucketed distributions; le is the inclusive bucket upper edge.\n")
		buf.WriteString("# TYPE shadow_histogram histogram\n")
		for _, s := range snaps {
			for i := range s.Histograms {
				r := &s.Histograms[i]
				WritePromHistogram(&buf, "shadow_histogram", r.Name, &r.Histogram, s.Labels)
			}
		}
	}
	_, err := w.Write(buf.Bytes())
	return err
}

// anyNonEmpty reports whether n is positive for some snapshot.
func anyNonEmpty(snaps []Snapshot, n func(Snapshot) int) bool {
	for _, s := range snaps {
		if n(s) > 0 {
			return true
		}
	}
	return false
}

// WritePromHistogram renders one histogram's samples under family (its
// _bucket, _sum and _count series): cumulative counts at every non-empty
// bucket's upper edge, then +Inf. labels extends each label set, as
// Snapshot.Labels does.
func WritePromHistogram(buf *bytes.Buffer, family, name string, h *Histogram, labels string) {
	label := PromLabel("name", name)
	var cum int64
	for _, b := range h.Buckets() {
		cum += b.Count
		fmt.Fprintf(buf, "%s_bucket{%s,%s%s} %d\n", family, label, PromLabel("le", fmt.Sprint(b.Hi)), labels, cum)
	}
	fmt.Fprintf(buf, "%s_bucket{%s,le=\"+Inf\"%s} %d\n", family, label, labels, h.Count())
	fmt.Fprintf(buf, "%s_sum{%s%s} %d\n", family, label, labels, h.Sum())
	fmt.Fprintf(buf, "%s_count{%s%s} %d\n", family, label, labels, h.Count())
}
